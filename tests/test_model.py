import math

import pytest
from hypothesis import given, strategies as st

from srptlab import (
    Instance,
    Job,
    Schedule,
    Segment,
    rational_of,
    validate_schedule,
)


class TestRationalOf:
    def test_reduces_to_lowest_terms(self):
        r = rational_of(10, 8)
        assert (r.numerator, r.denominator) == (5, 4)

    def test_already_reduced(self):
        r = rational_of(3, 2)
        assert (r.numerator, r.denominator) == (3, 2)

    def test_identity(self):
        r = rational_of(4, 4)
        assert (r.numerator, r.denominator) == (1, 1)

    @pytest.mark.parametrize("denom", [0, -1, -8])
    def test_rejects_non_positive_denominator(self, denom):
        with pytest.raises(ValueError):
            rational_of(3, denom)

    @given(a=st.integers(-200, 200), b=st.integers(1, 200), k=st.integers(1, 50))
    def test_scaling_invariance(self, a, b, k):
        assert rational_of(a, b) == rational_of(k * a, k * b)

    @given(a=st.integers(-200, 200), b=st.integers(1, 200))
    def test_lowest_terms_and_positive_denominator(self, a, b):
        r = rational_of(a, b)
        assert r.denominator > 0
        assert math.gcd(r.numerator, r.denominator) == 1

    @given(
        a=st.integers(-50, 50),
        b=st.integers(1, 50),
        c=st.integers(-50, 50),
        d=st.integers(1, 50),
    )
    def test_equality_is_cross_multiplication(self, a, b, c, d):
        assert (rational_of(a, b) == rational_of(c, d)) == (a * d == c * b)


class TestJobAndInstance:
    def test_job_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Job(id=0, arrival=0, processing=1)
        with pytest.raises(ValueError):
            Job(id=1, arrival=-1, processing=1)
        with pytest.raises(ValueError):
            Job(id=1, arrival=0, processing=0)

    def test_instance_rejects_empty_jobs(self):
        with pytest.raises(ValueError):
            Instance(jobs=(), machines=1)

    def test_instance_rejects_bad_machine_count(self):
        with pytest.raises(ValueError):
            Instance(jobs=(Job(1, 0, 1),), machines=0)

    def test_instance_rejects_duplicate_or_gapped_ids(self):
        with pytest.raises(ValueError):
            Instance(jobs=(Job(1, 0, 1), Job(1, 0, 1)), machines=1)
        with pytest.raises(ValueError):
            Instance(jobs=(Job(1, 0, 1), Job(3, 0, 1)), machines=1)

    def test_ids_may_be_listed_in_any_order(self):
        inst = Instance(jobs=(Job(2, 1, 3), Job(1, 0, 3)), machines=1)
        assert inst.job(1).arrival == 0

    def test_constraint_violations(self):
        ok = Instance(jobs=(Job(1, 0, 2), Job(2, 0, 2)), machines=2)
        assert ok.constraint_violations() == []
        assert ok.meets_constraints

        few_jobs = Instance(jobs=(Job(1, 0, 3),), machines=2)
        assert any("n >= m" in v for v in few_jobs.constraint_violations())

        short_jobs = Instance(jobs=(Job(1, 0, 1), Job(2, 0, 5)), machines=2)
        assert any("t >= m" in v for v in short_jobs.constraint_violations())

    def test_with_zero_releases(self):
        inst = Instance(jobs=(Job(1, 0, 2), Job(2, 5, 2)), machines=1)
        offline = inst.with_zero_releases()
        assert all(j.arrival == 0 for j in offline.jobs)
        assert [j.processing for j in offline.jobs] == [2, 2]

    def test_types_are_immutable(self):
        job = Job(1, 0, 2)
        with pytest.raises(AttributeError):
            job.processing = 5


class TestSegment:
    def test_rejects_empty_or_reversed_interval(self):
        with pytest.raises(ValueError):
            Segment(1, 1, 2, 2)
        with pytest.raises(ValueError):
            Segment(1, 1, 3, 2)

    def test_length(self):
        assert Segment(1, 1, 2, 5).length == 3


def _one_job_instance():
    return Instance(jobs=(Job(1, 0, 2),), machines=1)


class TestValidateSchedule:
    def test_valid_single_job_schedule(self):
        s = Schedule.from_segments(_one_job_instance(), [Segment(1, 1, 0, 2)])
        assert validate_schedule(s) == []

    def test_work_conservation_breach(self):
        s = Schedule.from_segments(_one_job_instance(), [Segment(1, 1, 0, 1)])
        assert validate_schedule(s) == ["job 1 received 1 of 2 units"]

    def test_machine_overlap_breach(self):
        inst = Instance(jobs=(Job(1, 0, 2), Job(2, 1, 2)), machines=1)
        s = Schedule.from_segments(inst, [Segment(1, 1, 0, 2), Segment(2, 1, 1, 3)])
        assert validate_schedule(s) == ["machine 1 overlap on [1,2)"]

    def test_adjacent_segments_do_not_overlap(self):
        inst = Instance(jobs=(Job(1, 0, 2), Job(2, 0, 2)), machines=1)
        s = Schedule.from_segments(inst, [Segment(1, 1, 0, 2), Segment(2, 1, 2, 4)])
        assert validate_schedule(s) == []

    def test_job_on_two_machines_at_once(self):
        inst = Instance(jobs=(Job(1, 0, 4),), machines=2)
        s = Schedule.from_segments(inst, [Segment(1, 1, 0, 2), Segment(1, 2, 1, 3)])
        violations = validate_schedule(s)
        assert any("simultaneously on [1,2)" in v for v in violations)

    def test_overlap_scan_reaches_past_a_shorter_segment(self):
        # A covers B and C; B ends before C starts. Comparing only neighbours
        # in start order would miss A against C.
        inst = Instance(jobs=(Job(1, 0, 10), Job(2, 0, 1), Job(3, 0, 1)), machines=1)
        s = Schedule.from_segments(
            inst, [Segment(1, 1, 0, 10), Segment(2, 1, 1, 2), Segment(3, 1, 3, 4)]
        )
        assert validate_schedule(s) == [
            "machine 1 overlap on [1,2)",
            "machine 1 overlap on [3,4)",
        ]

    def test_job_overlap_scan_reaches_past_a_shorter_segment(self):
        inst = Instance(jobs=(Job(1, 0, 12),), machines=2)
        s = Schedule.from_segments(
            inst, [Segment(1, 1, 0, 10), Segment(1, 2, 1, 2), Segment(1, 2, 3, 4)]
        )
        assert validate_schedule(s) == [
            "job 1 runs on machines 1 and 2 simultaneously on [1,2)",
            "job 1 runs on machines 1 and 2 simultaneously on [3,4)",
        ]

    def test_release_respect(self):
        inst = Instance(jobs=(Job(1, 3, 2),), machines=1)
        s = Schedule.from_segments(inst, [Segment(1, 1, 0, 2)])
        assert any("before arrival 3" in v for v in validate_schedule(s))

    def test_makespan_mismatch(self):
        s = Schedule(_one_job_instance(), (Segment(1, 1, 0, 2),), makespan=5)
        assert any("makespan 5" in v for v in validate_schedule(s))

    def test_unknown_job_and_machine_out_of_range(self):
        inst = _one_job_instance()
        s = Schedule.from_segments(
            inst, [Segment(1, 1, 0, 2), Segment(7, 4, 0, 1)]
        )
        violations = validate_schedule(s)
        assert any("unknown job 7" in v for v in violations)
        assert any("machine 4" in v for v in violations)

    def test_from_segments_orders_and_derives_makespan(self):
        inst = Instance(jobs=(Job(1, 0, 2), Job(2, 0, 2)), machines=2)
        s = Schedule.from_segments(inst, [Segment(2, 2, 0, 2), Segment(1, 1, 0, 2)])
        assert s.makespan == 2
        assert [seg.machine for seg in s.segments] == [1, 2]
        assert s.completion_times() == {1: 2, 2: 2}
