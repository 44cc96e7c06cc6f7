import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import families, instances, loop_items
from srptlab import (
    ClassId,
    ClassSpec,
    Instance,
    Job,
    Migration,
    PolicyConfig,
    Schedule,
    Segment,
    generate,
    remaining_profile,
    simulate_srpt,
    validate_schedule,
)
from srptlab import engine
from srptlab.engine import place, select_srpt

REASSIGN = PolicyConfig(migration=Migration.REASSIGN_ALL)
STICKY = PolicyConfig(migration=Migration.STICKY)


def s1(n, m):
    return generate(ClassSpec(ClassId.S1, n=n, m=m))


class TestSmallTraces:
    """Hand-traced schedules frozen as exact expectations."""

    def test_s1_n2_m2_reassign_all(self):
        schedule, trace = simulate_srpt(s1(2, 2), REASSIGN)
        assert schedule.makespan == 3
        assert schedule.segments == (
            Segment(1, 1, 0, 2),
            Segment(2, 1, 2, 3),
            Segment(2, 2, 1, 2),
        )
        assert tuple(e.time for e in trace.epochs) == (0, 1, 2, 3)
        assert trace.epochs[1].remaining == ((1, 1), (2, 2))
        assert trace.epochs[1].running == (1, 2)
        # After J1 completes only J2 runs; Segment(2, 1, 2, 3) above shows it
        # compacted onto machine 1.
        assert trace.epochs[2].running == (2,)

    def test_s1_n2_m2_sticky_keeps_machines(self):
        schedule, trace = simulate_srpt(s1(2, 2), STICKY)
        assert schedule.makespan == 3
        assert schedule.segments == (Segment(1, 1, 0, 2), Segment(2, 2, 1, 3))
        # Placement lives in the segments; the trace is the shared selection.
        assert trace == simulate_srpt(s1(2, 2), REASSIGN)[1]

    def test_single_job_no_contention(self):
        inst = Instance(jobs=(Job(1, 0, 7),), machines=3)
        schedule, trace = simulate_srpt(inst)
        assert schedule.makespan == 7
        assert schedule.segments == (Segment(1, 1, 0, 7),)
        assert tuple(e.time for e in trace.epochs) == (0, 7)

    def test_s4_n2_makespan_and_segments(self):
        inst = generate(ClassSpec(ClassId.S4, n=2))
        schedule, _ = simulate_srpt(inst, REASSIGN)
        assert schedule.makespan == 5

        sticky_schedule, _ = simulate_srpt(inst, STICKY)
        assert sticky_schedule.makespan == 5
        assert sticky_schedule.segments == (
            Segment(1, 1, 0, 2),
            Segment(3, 1, 2, 4),
            Segment(2, 2, 1, 3),
            Segment(4, 2, 3, 5),
        )

    def test_s1_n3_m2(self):
        schedule, _ = simulate_srpt(s1(3, 2))
        assert schedule.makespan == 6
        assert schedule.completion_times() == {1: 3, 2: 4, 3: 6}

    def test_s1_n4_m2_differs_from_claimed_formula(self):
        # The T3.1 formula says 10 here; the literal policy semantics finish
        # at 9 under either placement policy.
        for cfg in (REASSIGN, STICKY):
            schedule, _ = simulate_srpt(s1(4, 2), cfg)
            assert schedule.makespan == 9

    def test_arrival_gap_idles_machines(self):
        inst = Instance(jobs=(Job(1, 0, 2), Job(2, 5, 2)), machines=1)
        schedule, trace = simulate_srpt(inst)
        assert schedule.makespan == 7
        assert tuple(e.time for e in trace.epochs) == (0, 2, 5, 7)
        assert remaining_profile(trace, 2) == {}
        assert trace.epochs[1].running == ()


class TestLazyTrace:
    @pytest.mark.parametrize(
        "spec",
        [ClassSpec(ClassId.S1, n=5, m=2), ClassSpec(ClassId.S5, n=4)],
        ids=["S1-n5-m2", "S5-n4"],
    )
    def test_simulate_builds_no_snapshot(self, monkeypatch, spec):
        inst = generate(spec)
        log = list(select_srpt(inst))
        expected = {
            cfg: place(inst, loop_items(log), cfg.migration)
            for cfg in (REASSIGN, STICKY)
        }

        def refuse(*args, **kwargs):
            raise AssertionError("simulate_srpt built a snapshot")

        monkeypatch.setattr(engine, "select_srpt", refuse)
        monkeypatch.setattr(engine, "Epoch", refuse)
        results = {cfg: simulate_srpt(inst, cfg) for cfg in expected}
        monkeypatch.undo()
        for cfg, (schedule, trace) in results.items():
            assert schedule == expected[cfg]
            assert trace.epochs == tuple(select_srpt(inst))


class _Unreadable:
    """Stands in for one of the loop's queues where nothing may read it."""

    def __iter__(self):
        raise AssertionError("sticky placement read a queue")

    __len__ = __iter__


class TestDecisionDeltas:
    @given(inst=instances(max_n=12, max_m=6, max_processing=6, max_arrival=10))
    @settings(max_examples=300)
    def test_stopped_and_started_are_the_snapshot_differences(self, inst):
        before = set()
        items = zip(engine._decisions(inst), select_srpt(inst), strict=True)
        for (t, running, waiting, stopped, started), epoch in items:
            now = set(epoch.running)
            left = dict(epoch.remaining)
            assert t == epoch.time
            assert running == [(t + left[job_id], job_id) for job_id in epoch.running]
            # The two queues split the released, unfinished jobs.
            assert sorted([job_id for _, job_id in running + waiting]) == sorted(left)
            assert not set(stopped) & set(started)
            assert sorted(stopped) == sorted(before - now)
            assert sorted(started) == sorted(now - before)
            assert started == sorted(started, key=lambda job_id: (left[job_id], job_id))
            before = now

    @given(inst=instances(max_n=12, max_m=6, max_processing=6, max_arrival=10))
    @example(inst=generate(ClassSpec(ClassId.S5, n=16)))
    @settings(max_examples=200)
    def test_sticky_placement_never_reads_running(self, inst):
        unreadable = (
            (t, _Unreadable(), _Unreadable(), stopped, started)
            for t, _, _, stopped, started in engine._decisions(inst)
        )
        schedule = place(inst, unreadable, Migration.STICKY)
        assert schedule == simulate_srpt(inst, STICKY)[0]

    @pytest.mark.parametrize("migration", list(Migration))
    @given(inst=instances(max_n=12, max_m=6, max_processing=6, max_arrival=10))
    @example(inst=generate(ClassSpec(ClassId.S5, n=16)))
    @settings(max_examples=200)
    def test_placement_is_in_schedule_order(self, migration, inst):
        # place does not sort: its segments must already be in
        # from_segments' (machine, start, job_id) order, and its makespan the
        # latest segment end.
        placed = place(inst, engine._decisions(inst), migration)
        assert placed == Schedule.from_segments(inst, placed.segments)


class TestRemainingProfile:
    def test_s1_n2_profile_at_arrival(self):
        _, trace = simulate_srpt(s1(2, 2))
        assert remaining_profile(trace, 1) == {1: 1, 2: 2}

    def test_profile_at_time_zero_is_full_processing(self):
        _, trace = simulate_srpt(s1(2, 2))
        assert remaining_profile(trace, 0) == {1: 2}

    def test_profile_with_simultaneous_arrivals_at_zero(self):
        inst = Instance(jobs=(Job(1, 0, 3), Job(2, 0, 5)), machines=1)
        _, trace = simulate_srpt(inst)
        assert remaining_profile(trace, 0) == {1: 3, 2: 5}

    def test_s4_n2_profile_after_first_completion(self):
        _, trace = simulate_srpt(generate(ClassSpec(ClassId.S4, n=2)))
        assert remaining_profile(trace, 2) == {2: 1, 3: 2}

    def test_non_epoch_time_rejected(self):
        _, trace = simulate_srpt(s1(2, 2))
        with pytest.raises(ValueError):
            remaining_profile(trace, 99)

    def test_profile_at_makespan_is_empty(self):
        schedule, trace = simulate_srpt(s1(2, 2))
        assert remaining_profile(trace, schedule.makespan) == {}

    def test_reads_the_log_only_up_to_t(self, monkeypatch):
        inst = generate(ClassSpec(ClassId.S5, n=8))
        epochs = tuple(select_srpt(inst))
        times = [e.time for e in epochs]
        _, trace = simulate_srpt(inst)

        def select_until(t):
            def stand_in(instance):
                for epoch in select_srpt(instance):
                    yield epoch
                    if epoch.time >= t:
                        raise AssertionError(f"asked for the epoch after {t}")

            return stand_in

        monkeypatch.setattr(engine, "select_srpt", select_until(times[1]))
        assert remaining_profile(trace, times[1]) == dict(epochs[1].remaining)
        gap = next(t for t in range(times[-1]) if t not in times)
        monkeypatch.setattr(engine, "select_srpt", select_until(gap))
        message = f"time {gap} is not a decision epoch; epochs are {times}"
        with pytest.raises(ValueError, match=re.escape(message)):
            remaining_profile(trace, gap)


class TestEmptyInstance:
    def test_instance_with_no_jobs_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Instance(jobs=(), machines=1)


def _completions(schedule):
    return schedule.completion_times()


@given(inst=instances())
@settings(max_examples=150)
def test_every_simulated_schedule_is_valid(inst):
    for cfg in (REASSIGN, STICKY):
        schedule, _ = simulate_srpt(inst, cfg)
        assert validate_schedule(schedule) == []


@given(inst=instances())
@settings(max_examples=150)
def test_epochs_are_exactly_arrivals_and_completions(inst):
    schedule, trace = simulate_srpt(inst)
    arrivals = {job.arrival for job in inst.jobs}
    completions = set(_completions(schedule).values())
    times = tuple(e.time for e in trace.epochs)
    assert set(times) == arrivals | completions
    assert list(times) == sorted(set(times))
    assert times[-1] == schedule.makespan


@given(inst=instances())
@settings(max_examples=150)
def test_busy_machine_property(inst):
    # A machine only idles when there is no released unfinished job left over.
    _, trace = simulate_srpt(inst)
    for epoch in trace.epochs:
        available = len(epoch.remaining)
        idle = inst.machines - len(epoch.running)
        assert idle == max(0, inst.machines - available)


@given(inst=instances())
@settings(max_examples=150)
def test_priority_property(inst):
    # No running job may have strictly more remaining work than a waiting one.
    for cfg in (REASSIGN, STICKY):
        _, trace = simulate_srpt(inst, cfg)
        for epoch in trace.epochs:
            remaining = dict(epoch.remaining)
            running = set(epoch.running)
            waiting = [remaining[j] for j in remaining if j not in running]
            if not waiting or not running:
                continue
            assert max(remaining[j] for j in running) <= min(waiting)


@given(inst=instances())
@settings(max_examples=100)
def test_determinism(inst):
    for cfg in (REASSIGN, STICKY):
        first = simulate_srpt(inst, cfg)
        second = simulate_srpt(inst, cfg)
        assert first == second
        assert repr(first) == repr(second)


@given(inst=instances())
@settings(max_examples=100)
def test_work_conservation_exact(inst):
    schedule, _ = simulate_srpt(inst)
    for job in inst.jobs:
        ran = sum(s.length for s in schedule.segments if s.job_id == job.id)
        assert ran == job.processing


@pytest.mark.parametrize("class_id", list(ClassId))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_monotone_completion_on_generated_classes(class_id, n):
    m = 2 if class_id is ClassId.S1 else None
    spec = ClassSpec(class_id, n=n, m=m)
    inst = generate(spec)
    for cfg in (REASSIGN, STICKY):
        schedule, _ = simulate_srpt(inst, cfg)
        done = schedule.completion_times()
        ordered = [done[j.id] for j in sorted(inst.jobs, key=lambda x: x.id)]
        assert ordered == sorted(ordered)


def _preemptions(inst):
    """(time, id) for each job stopped with work left: the loop's waiting
    heap holds it after the epoch that stopped it."""
    out = []
    for t, _, waiting, stopped, _ in engine._decisions(inst):
        held = {job_id for _, job_id in waiting}
        out += [(t, job_id) for job_id in stopped if job_id in held]
    return out


class TestNoPreemptionOnEqualJobs:
    """Equal lengths and unit-spaced releases: a job that has run a unit has
    less left than any waiting job, so SRPT never stops a job before it has
    run all p units, whatever m is."""

    def test_an_arrival_with_less_work_preempts(self):
        inst = Instance(jobs=(Job(1, 0, 5), Job(2, 1, 1)), machines=1)
        assert _preemptions(inst) == [(1, 1)]

    @given(
        n=st.integers(1, 40), m=st.integers(1, 20), p=st.integers(1, 40)
    )
    @example(n=7, m=5, p=2)  # p < m
    @settings(max_examples=300)
    def test_parametric(self, n, m, p):
        spec = ClassSpec(ClassId.PARAMETRIC, n, m=m, processing_override=p)
        assert _preemptions(generate(spec)) == []

    def test_every_family(self):
        for spec in families([*range(1, 34), 64]):
            assert _preemptions(generate(spec)) == [], spec
