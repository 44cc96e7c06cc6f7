import dataclasses
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from srptlab import (
    Instance,
    Job,
    Schedule,
    Segment,
    competitive_ratio,
    validate_schedule,
)
from srptlab import model


class TestRationalOf:
    """competitive_ratio is the package's one constructor of an exact ratio."""

    def test_reduces_to_lowest_terms(self):
        r = competitive_ratio(10, 8)
        assert (r.numerator, r.denominator) == (5, 4)

    def test_already_reduced(self):
        r = competitive_ratio(3, 2)
        assert (r.numerator, r.denominator) == (3, 2)

    def test_identity(self):
        r = competitive_ratio(4, 4)
        assert (r.numerator, r.denominator) == (1, 1)

    @pytest.mark.parametrize("denom", [0, -1, -8])
    def test_rejects_non_positive_denominator(self, denom):
        with pytest.raises(ValueError):
            competitive_ratio(3, denom)

    @given(a=st.integers(-200, 200), b=st.integers(1, 200), k=st.integers(1, 50))
    def test_scaling_invariance(self, a, b, k):
        assert competitive_ratio(a, b) == competitive_ratio(k * a, k * b)

    @given(a=st.integers(-200, 200), b=st.integers(1, 200))
    def test_lowest_terms_and_positive_denominator(self, a, b):
        r = competitive_ratio(a, b)
        assert r.denominator > 0
        assert math.gcd(r.numerator, r.denominator) == 1

    @given(
        a=st.integers(-50, 50),
        b=st.integers(1, 50),
        c=st.integers(-50, 50),
        d=st.integers(1, 50),
    )
    def test_equality_is_cross_multiplication(self, a, b, c, d):
        assert (competitive_ratio(a, b) == competitive_ratio(c, d)) == (a * d == c * b)


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

    @pytest.mark.parametrize("machines", [1.5, 1.0, True, "1", None])
    def test_instance_rejects_a_machine_count_that_is_not_an_int(self, machines):
        with pytest.raises(ValueError) as exc:
            Instance(jobs=(Job(1, 0, 1),), machines=machines)
        assert str(exc.value) == f"machine count must be an integer, got {machines!r}"

    def test_instance_rejects_duplicate_or_gapped_ids(self):
        with pytest.raises(ValueError):
            Instance(jobs=(Job(1, 0, 1), Job(1, 0, 1)), machines=1)
        with pytest.raises(ValueError):
            Instance(jobs=(Job(1, 0, 1), Job(3, 0, 1)), machines=1)

    @pytest.mark.parametrize(
        "ids, fault",
        [
            ((1, 1), "id 1 repeats"),
            ((3, 1, 2, 2), "id 2 repeats"),
            ((2, 3), "id 1 is missing"),
            ((1, 3, 3), "id 2 is missing"),
            ((1, 2, 4), "id 3 is missing"),
        ],
    )
    def test_instance_names_the_first_bad_id(self, ids, fault):
        with pytest.raises(ValueError) as err:
            Instance(jobs=tuple(Job(i, 0, 1) for i in ids), machines=1)
        assert str(err.value) == (
            f"job ids must be unique and contiguous from 1, but {fault}"
        )

    def test_instance_names_the_first_entry_that_is_not_a_job(self):
        with pytest.raises(ValueError) as err:
            Instance(jobs=(Job(1, 0, 2), {"id": 2}, (3, 0, 2)), machines=1)
        assert str(err.value) == "jobs[1] is not a Job: {'id': 2}"

    def test_ids_may_be_listed_in_any_order(self):
        inst = Instance(jobs=(Job(2, 1, 3), Job(1, 0, 3)), machines=1)
        assert {job.id: job for job in inst.jobs}[1].arrival == 0

    def test_constraint_violations(self):
        ok = Instance(jobs=(Job(1, 0, 2), Job(2, 0, 2)), machines=2)
        assert ok.constraint_violations() == []

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


class TestJob:
    def test_repr_names_every_field(self):
        assert repr(Job(1, 0, 3)) == "Job(id=1, arrival=0, processing=3)"

    def test_keyword_and_positional_construction_agree(self):
        job = Job(id=2, arrival=5, processing=7)
        assert job == Job(2, 5, 7)
        assert (job.id, job.arrival, job.processing) == (2, 5, 7)

    @pytest.mark.parametrize("field", ["id", "arrival", "processing"])
    def test_fields_cannot_be_assigned(self, field):
        job = Job(1, 0, 2)
        with pytest.raises(AttributeError):
            setattr(job, field, 5)
        assert job == Job(1, 0, 2)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 0, 1), "job id must be >= 1, got 0"),
            ((1, -1, 1), "job 1: arrival must be >= 0, got -1"),
            ((1, 0, 0), "job 1: processing must be >= 1, got 0"),
            ((1, 0, 2.5), "job 1: processing must be an integer, got 2.5"),
            ((1, 0.5, 2), "job 1: arrival must be an integer, got 0.5"),
            ((True, 0, 2), "job id must be an integer, got True"),
            ((1, "0", 2), "job 1: arrival must be an integer, got '0'"),
            ((1, 0, None), "job 1: processing must be an integer, got None"),
        ],
    )
    def test_each_check_has_its_message(self, fields, message):
        with pytest.raises(ValueError) as exc:
            Job(*fields)
        assert str(exc.value) == message

    def test_int_subclasses_other_than_bool_pass(self):
        class Tick(int):
            pass

        assert Job(Tick(1), 0, Tick(2)) == Job(1, 0, 2)

    def test_every_constructor_runs_the_checks(self):
        with pytest.raises(ValueError):
            Job(id=1, arrival=0, processing=0)
        with pytest.raises(ValueError):
            Job._make((1, 0, 0))
        with pytest.raises(ValueError):
            Job(1, 0, 2)._replace(arrival=-1)
        assert Job._make((1, 0, 2)) == Job(1, 0, 2)
        assert Job(1, 0, 2)._replace(processing=4) == Job(1, 0, 4)

    def test_equal_fields_compare_and_hash_equal(self):
        a, b = Job(2, 1, 3), Job(2, 1, 3)
        assert a == b and hash(a) == hash(b)
        assert a == (2, 1, 3) and hash(a) == hash((2, 1, 3))
        assert len({a, b}) == 1
        assert a != Job(2, 1, 4)

    def test_pickle_round_trip(self):
        job = Job(3, 2, 5)
        again = pickle.loads(pickle.dumps(job))
        assert again == job and type(again) is Job
        assert repr(again) == repr(job)

    def test_instance_refuses_a_plain_tuple(self):
        with pytest.raises(ValueError, match=r"jobs\[0\] is not a Job: \(1, 0, 2\)"):
            Instance(jobs=((1, 0, 2),), machines=1)


class TestSegment:
    def test_rejects_empty_or_reversed_interval(self):
        with pytest.raises(ValueError):
            Segment(1, 1, 2, 2)
        with pytest.raises(ValueError):
            Segment(1, 1, 3, 2)

    def test_length(self):
        assert Segment(1, 1, 2, 5).length == 3

    def test_repr_names_every_field(self):
        assert repr(Segment(3, 2, 4, 9)) == "Segment(job_id=3, machine=2, start=4, end=9)"

    @pytest.mark.parametrize("field", ["job_id", "machine", "start", "end", "length"])
    def test_fields_cannot_be_assigned(self, field):
        seg = Segment(1, 1, 0, 2)
        with pytest.raises(AttributeError):
            setattr(seg, field, 5)
        assert seg == Segment(1, 1, 0, 2)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 1, 0, 2), "segment job id must be >= 1, got 0"),
            ((1, 0, 0, 2), "segment machine must be >= 1, got 0"),
            ((1, 1, -1, 2), "segment start must be >= 0, got -1"),
            ((1, 1, 2, 2), "segment must satisfy start < end, got [2,2)"),
            ((1, 1, 0.5, 2), "segment start must be an integer, got 0.5"),
            ((1, 1, 0, 2.0), "segment end must be an integer, got 2.0"),
            ((1, False, 0, 2), "segment machine must be an integer, got False"),
            ((1.0, 1, 0, 2), "segment job id must be an integer, got 1.0"),
        ],
    )
    def test_each_check_has_its_message(self, fields, message):
        with pytest.raises(ValueError) as exc:
            Segment(*fields)
        assert str(exc.value) == message

    def test_every_constructor_runs_the_checks(self):
        assert Segment(job_id=1, machine=2, start=0, end=3) == Segment(1, 2, 0, 3)
        with pytest.raises(ValueError):
            Segment(job_id=1, machine=2, start=3, end=3)
        with pytest.raises(ValueError):
            Segment._make((1, 2, 3, 3))
        with pytest.raises(ValueError):
            Segment(1, 2, 0, 3)._replace(start=3)
        assert Segment(1, 2, 0, 3)._replace(end=4) == Segment(1, 2, 0, 4)

    def test_equal_fields_compare_and_hash_equal(self):
        a, b = Segment(2, 1, 3, 5), Segment(2, 1, 3, 5)
        assert a == b and hash(a) == hash(b)
        assert a == (2, 1, 3, 5)
        assert len({a, b}) == 1
        assert a != Segment(2, 1, 3, 6)

    def test_from_segments_orders_by_machine_start_job(self):
        inst = Instance(jobs=tuple(Job(i, 0, 9) for i in range(1, 5)), machines=2)
        given_order = [
            Segment(4, 2, 0, 1),
            Segment(3, 1, 5, 6),
            Segment(2, 1, 0, 1),
            Segment(1, 1, 0, 1),
            Segment(1, 2, 3, 4),
        ]
        s = Schedule.from_segments(inst, given_order)
        assert s.segments == (
            Segment(1, 1, 0, 1),
            Segment(2, 1, 0, 1),
            Segment(3, 1, 5, 6),
            Segment(4, 2, 0, 1),
            Segment(1, 2, 3, 4),
        )


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

    @pytest.mark.parametrize("k", [2, 3, 10, 50])
    def test_mutual_overlaps_give_one_message_per_later_segment(self, k):
        # k segments over [0,2) on one machine: k - 1 messages, not k(k - 1)/2.
        inst = Instance(jobs=tuple(Job(i, 0, 2) for i in range(1, k + 1)), machines=1)
        s = Schedule.from_segments(inst, [Segment(i, 1, 0, 2) for i in range(1, k + 1)])
        assert validate_schedule(s) == ["machine 1 overlap on [0,2)"] * (k - 1)

    def test_overlap_is_reported_against_the_segment_that_ends_last(self):
        # [2,3) starts inside both [0,4) and [1,6); it is reported against
        # [1,6), which ends last, and [1,6) against [0,4) on [1,4).
        inst = Instance(jobs=(Job(1, 0, 4), Job(2, 0, 5), Job(3, 0, 1)), machines=1)
        s = Schedule.from_segments(
            inst, [Segment(1, 1, 0, 4), Segment(2, 1, 1, 6), Segment(3, 1, 2, 3)]
        )
        assert validate_schedule(s) == [
            "machine 1 overlap on [1,4)",
            "machine 1 overlap on [2,3)",
        ]

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


class TestMakespan:
    @pytest.mark.parametrize(
        "segments, makespan",
        [
            ((), 0),
            ((Segment(1, 1, 0, 2),), 2),
            ((Segment(1, 2, 3, 7), Segment(1, 1, 0, 2), Segment(2, 1, 2, 5)), 7),
        ],
    )
    def test_is_the_latest_segment_end(self, segments, makespan):
        assert Schedule(_one_job_instance(), segments).makespan == makespan

    def test_is_not_a_field_and_cannot_be_set(self):
        assert [f.name for f in dataclasses.fields(Schedule)] == ["instance", "segments"]
        with pytest.raises(TypeError):
            Schedule(_one_job_instance(), (Segment(1, 1, 0, 2),), 5)
        s = Schedule(_one_job_instance(), (Segment(1, 1, 0, 2),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.makespan = 5


class TestValidateOnce:
    def _broken(self):
        return Schedule.from_segments(_one_job_instance(), [Segment(1, 1, 0, 1)])

    def test_checks_run_once_per_schedule(self, monkeypatch):
        calls = []
        body = model._schedule_violations
        monkeypatch.setattr(
            model, "_schedule_violations", lambda s: calls.append(s) or body(s)
        )
        s = self._broken()
        assert validate_schedule(s) == validate_schedule(s) == [
            "job 1 received 1 of 2 units"
        ]
        assert len(calls) == 1

    def test_each_call_returns_a_fresh_list(self):
        s = self._broken()
        first = validate_schedule(s)
        first.append("caller's own note")
        validate_schedule(s).clear()
        assert validate_schedule(s) == ["job 1 received 1 of 2 units"]

    def test_replaced_schedule_is_checked_afresh(self):
        s = Schedule.from_segments(_one_job_instance(), [Segment(1, 1, 0, 2)])
        assert (s.makespan, validate_schedule(s)) == (2, [])
        later = dataclasses.replace(s, segments=(Segment(1, 1, 0, 3),))
        assert later.makespan == 3
        assert validate_schedule(later) == ["job 1 received 3 of 2 units"]
        assert (s.makespan, validate_schedule(s)) == (2, [])

    @pytest.mark.parametrize("validated_first", [False, True])
    def test_pickle_round_trip_keeps_the_verdict(self, validated_first):
        s = self._broken()
        if validated_first:
            validate_schedule(s)
        again = pickle.loads(pickle.dumps(s))
        assert again == s
        assert validate_schedule(again) == ["job 1 received 1 of 2 units"]


# Values whose repr fits in model._QUOTE_LIMIT characters.
SHORT = st.one_of(
    st.integers(), st.text(max_size=20), st.none(), st.booleans()
).filter(lambda value: len(repr(value)) <= model._QUOTE_LIMIT)


class TestQuote:
    @given(st.one_of(SHORT, st.lists(SHORT, max_size=5)))
    def test_short_values_and_lists_quote_as_their_repr(self, value):
        assert model._quote(value) == repr(value)

    def test_long_repr_is_cut_and_states_its_length(self):
        quoted = model._quote("x" * 100_000)
        assert quoted == repr("x" * 100_000)[: model._QUOTE_LIMIT] + "... (100002 characters)"

    def test_long_list_names_five_entries_and_counts_the_rest(self):
        assert model._quote(list(range(3000))) == "[0, 1, 2, 3, 4] (and 2995 more)"

    def test_list_entries_are_quoted_too(self):
        quoted = model._quote([1, "x" * 1000])
        assert quoted.startswith("[1, 'xxx")
        assert quoted.endswith("... (1002 characters)]")
        assert len(quoted) < 100

    def test_nested_lists_are_cut_as_entries(self):
        # Five levels of five entries would repr as 3,125 numbers.
        nested = 1
        for _ in range(5):
            nested = [nested] * 5
        assert len(model._quote(nested)) < 500
