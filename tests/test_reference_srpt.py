"""The event-driven engine against a tick-by-tick SRPT reference."""

from hypothesis import given, settings

from _strategies import instances
from srptlab import Migration, PolicyConfig, simulate_srpt
from srptlab.engine import place, select_srpt


def reference_completions(inst):
    """Completion time per job id, one unit step at a time: each step ranks
    the released unfinished jobs by (remaining, id) and runs the top m."""
    arrival = {job.id: job.arrival for job in inst.jobs}
    remaining = {job.id: job.processing for job in inst.jobs}
    done = {}
    t = 0
    while remaining:
        released = [job_id for job_id in remaining if arrival[job_id] <= t]
        ranked = sorted(released, key=lambda job_id: (remaining[job_id], job_id))
        for job_id in ranked[: inst.machines]:
            remaining[job_id] -= 1
            if not remaining[job_id]:
                del remaining[job_id]
                done[job_id] = t + 1
        t += 1
    return done


@given(inst=instances())
@settings(max_examples=200)
def test_engine_matches_reference_under_both_policies(inst):
    expected = reference_completions(inst)
    for policy in Migration:
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=policy))
        assert schedule.completion_times() == expected


@given(inst=instances())
@settings(max_examples=200)
def test_both_placements_of_one_selection_complete_alike(inst):
    log = list(select_srpt(inst))
    reassign, sticky = (place(inst, log, policy)[0] for policy in Migration)
    assert reassign.completion_times() == sticky.completion_times()
