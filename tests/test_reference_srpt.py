"""The event-driven engine against a tick-by-tick SRPT reference."""

from hypothesis import given, settings

from _strategies import instances, loop_items
from srptlab import Migration, PolicyConfig, simulate_srpt
from srptlab.analysis import measure
from srptlab.engine import Epoch, place, select_srpt


def reference_run(inst):
    """Tick-by-tick SRPT: each step ranks the released unfinished jobs by
    (remaining, id) and runs the top m. Returns the completion time per job
    id and, per tick up to the makespan, the Epoch the engine's log would
    hold were that tick a decision epoch."""
    arrival = {job.id: job.arrival for job in inst.jobs}
    remaining = {job.id: job.processing for job in inst.jobs}
    done, states = {}, {}
    t = 0
    while True:
        released = sorted(job_id for job_id in remaining if arrival[job_id] <= t)
        ranked = sorted(released, key=lambda job_id: (remaining[job_id], job_id))
        running = tuple(ranked[: inst.machines])
        states[t] = Epoch(t, tuple((j, remaining[j]) for j in released), running)
        if not remaining:
            return done, states
        for job_id in running:
            remaining[job_id] -= 1
            if not remaining[job_id]:
                del remaining[job_id]
                done[job_id] = t + 1
        t += 1


@given(inst=instances())
@settings(max_examples=200)
def test_engine_matches_reference_under_both_policies(inst):
    expected, _ = reference_run(inst)
    for policy in Migration:
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=policy))
        assert schedule.completion_times() == expected
    assert measure(inst)[0] == max(expected.values())


@given(inst=instances(max_n=12, max_m=6, max_processing=6, max_arrival=10))
@settings(max_examples=300)
def test_decision_loop_matches_reference_where_the_heaps_are_stressed(inst):
    # Lengths up to 6 and releases up to 10 give ties in remaining work,
    # arrivals exactly at completions, idle gaps and m >= n.
    expected, states = reference_run(inst)
    epochs = sorted({job.arrival for job in inst.jobs} | set(expected.values()))
    log = tuple(select_srpt(inst))
    assert log == tuple(states[t] for t in epochs)
    assert measure(inst)[0] == max(expected.values()) == log[-1].time
    for policy in Migration:
        schedule, trace = simulate_srpt(inst, PolicyConfig(migration=policy))
        assert schedule.completion_times() == expected
        assert trace.epochs == log


@given(inst=instances())
@settings(max_examples=200)
def test_both_placements_of_one_selection_complete_alike(inst):
    log = list(select_srpt(inst))
    reassign, sticky = (place(inst, loop_items(log), policy) for policy in Migration)
    assert reassign.completion_times() == sticky.completion_times()
    # So one measurement stands for both policies' report rows.
    assert measure(inst)[0] == reassign.makespan == sticky.makespan
    for policy in Migration:
        _, trace = simulate_srpt(inst, PolicyConfig(migration=policy))
        assert trace.epochs == tuple(log)
