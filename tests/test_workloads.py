import pytest
from hypothesis import given, strategies as st

from srptlab import ClassId, ClassSpec, S3Interpretation, generate


class TestGenerate:
    def test_s1(self):
        inst = generate(ClassSpec(ClassId.S1, n=3, m=2))
        assert inst.machines == 2
        assert [(j.id, j.arrival, j.processing) for j in inst.jobs] == [
            (1, 0, 3),
            (2, 1, 3),
            (3, 2, 3),
        ]

    def test_s2_defaults_to_n_machines(self):
        inst = generate(ClassSpec(ClassId.S2, n=3))
        assert inst.machines == 3
        assert all(j.processing == 4 for j in inst.jobs)
        assert [j.arrival for j in inst.jobs] == [0, 1, 2]

    def test_s3_literal_reading(self):
        inst = generate(ClassSpec(ClassId.S3, n=3))
        assert inst.machines == 3
        assert all(j.processing == 6 for j in inst.jobs)

    def test_s3_alternative_reading(self):
        inst = generate(
            ClassSpec(
                ClassId.S3, n=3, s3_interpretation=S3Interpretation.THEOREM_N_PLUS_2
            )
        )
        assert all(j.processing == 5 for j in inst.jobs)
        assert inst.machines == 3

    def test_s3_readings_coincide_at_n2(self):
        literal = generate(ClassSpec(ClassId.S3, n=2))
        alt = generate(
            ClassSpec(
                ClassId.S3, n=2, s3_interpretation=S3Interpretation.THEOREM_N_PLUS_2
            )
        )
        assert literal == alt

    def test_s4(self):
        inst = generate(ClassSpec(ClassId.S4, n=2))
        assert inst.machines == 2
        assert [(j.arrival, j.processing) for j in inst.jobs] == [
            (0, 2),
            (1, 2),
            (2, 2),
            (3, 2),
        ]

    def test_s5_two_n_jobs_of_length_two_n(self):
        inst = generate(ClassSpec(ClassId.S5, n=2))
        assert inst.machines == 2
        assert inst.job_count == 4
        assert all(j.processing == 4 for j in inst.jobs)

    def test_parametric_unit_job(self):
        inst = generate(
            ClassSpec(ClassId.PARAMETRIC, n=1, m=1, processing_override=1)
        )
        assert inst.job_count == 1
        assert inst.jobs[0].id == 1
        assert inst.jobs[0].processing == 1


class TestSpecValidation:
    def test_s1_requires_machines(self):
        with pytest.raises(ValueError):
            ClassSpec(ClassId.S1, n=3)

    def test_override_only_for_parametric(self):
        with pytest.raises(ValueError):
            ClassSpec(ClassId.S2, n=3, processing_override=5)

    def test_s3_interpretation_only_for_s3(self):
        with pytest.raises(ValueError):
            ClassSpec(
                ClassId.S1,
                n=3,
                m=2,
                s3_interpretation=S3Interpretation.LITERAL_2N,
            )

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ClassSpec(ClassId.S2, n=0)
        with pytest.raises(ValueError):
            ClassSpec(ClassId.S2, n=2, m=0)

    @pytest.mark.parametrize(
        "class_id, fields, message",
        [
            (ClassId.S2, {"n": 2.5}, "class parameter n must be an integer, got 2.5"),
            (ClassId.S2, {"n": "3"}, "class parameter n must be an integer, got '3'"),
            (ClassId.S2, {"n": 3, "m": True}, "machine count must be an integer, got True"),
            (ClassId.S2, {"n": 3, "m": 1.5}, "machine count must be an integer, got 1.5"),
            (
                ClassId.PARAMETRIC,
                {"n": 3, "processing_override": 4.0},
                "processing_override must be an integer, got 4.0",
            ),
        ],
    )
    def test_sizes_that_are_not_ints(self, class_id, fields, message):
        with pytest.raises(ValueError) as exc:
            ClassSpec(class_id, **fields)
        assert str(exc.value) == message

    def test_string_ids_are_coerced(self):
        spec = ClassSpec("S2", n=2, s3_interpretation=None)
        assert spec.class_id is ClassId.S2


@given(n=st.integers(1, 40))
def test_arrivals_are_unit_spaced_from_zero(n):
    inst = generate(ClassSpec(ClassId.S4, n=n))
    assert [j.arrival for j in inst.jobs] == list(range(inst.job_count))


@given(n=st.integers(1, 40))
def test_generate_is_pure(n):
    spec = ClassSpec(ClassId.S5, n=n)
    assert generate(spec) == generate(spec)


@given(n=st.integers(2, 40))
def test_theorem_default_specs_meet_model_constraints(n):
    specs = [
        ClassSpec(ClassId.S1, n=n, m=2),
        ClassSpec(ClassId.S1, n=n, m=n),
        ClassSpec(ClassId.S2, n=n),
        ClassSpec(ClassId.S3, n=n),
        ClassSpec(ClassId.S3, n=n, s3_interpretation=S3Interpretation.THEOREM_N_PLUS_2),
        ClassSpec(ClassId.S4, n=n),
        ClassSpec(ClassId.S5, n=n),
    ]
    for spec in specs:
        assert generate(spec).constraint_violations() == [], spec
