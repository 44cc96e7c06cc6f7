"""validate_schedule against a pairwise reference validator.

The reference compares every pair of segments of a group by interval
intersection, with no early exit; it sorts a group only to list the pairs
in the order validate_schedule reports them. A quarter of the drawn
schedules are SRPT's own; the rest break every invariant often: unknown job
ids, machines past m, a wrong makespan, overlaps on a machine, a job on two
machines at once, starts before release.
"""

from hypothesis import given, settings, strategies as st

from _strategies import instances
from srptlab import (
    Migration,
    PolicyConfig,
    Schedule,
    Segment,
    simulate_srpt,
    validate_schedule,
)


def _pairs(group, key):
    """Every pair (a, b) of group, a before b in key order, with the
    intersection of their intervals when it is not empty."""
    ordered = sorted(group, key=key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            lo, hi = max(a.start, b.start), min(a.end, b.end)
            if lo < hi:
                yield a, b, lo, hi


def reference_violations(s):
    inst = s.instance
    arrival = {job.id: job.arrival for job in inst.jobs}
    out = []
    for seg in s.segments:
        if seg.job_id not in arrival:
            out.append(f"segment references unknown job {seg.job_id}")
        if seg.machine > inst.machines:
            out.append(
                f"segment on machine {seg.machine} but instance has"
                f" {inst.machines} machines"
            )
    latest = max([seg.end for seg in s.segments] + [0])
    if s.makespan != latest:
        out.append(f"makespan {s.makespan} != latest segment end {latest}")
    for job in inst.jobs:
        got = sum(seg.length for seg in s.segments if seg.job_id == job.id)
        if got != job.processing:
            out.append(f"job {job.id} received {got} of {job.processing} units")
    for machine in sorted({seg.machine for seg in s.segments}):
        group = [seg for seg in s.segments if seg.machine == machine]
        for _, _, lo, hi in _pairs(group, lambda x: (x.start, x.end, x.job_id)):
            out.append(f"machine {machine} overlap on [{lo},{hi})")
    for job_id in sorted({seg.job_id for seg in s.segments}):
        group = [seg for seg in s.segments if seg.job_id == job_id]
        for a, b, lo, hi in _pairs(group, lambda x: (x.start, x.end, x.machine)):
            out.append(
                f"job {job_id} runs on machines {a.machine} and {b.machine}"
                f" simultaneously on [{lo},{hi})"
            )
    for seg in sorted(s.segments, key=lambda x: (x.job_id, x.start)):
        if seg.job_id in arrival and seg.start < arrival[seg.job_id]:
            out.append(
                f"job {seg.job_id} starts at {seg.start} before arrival"
                f" {arrival[seg.job_id]}"
            )
    return out


@st.composite
def broken_schedules(draw):
    inst = draw(instances(max_n=4, max_m=3))
    n, m = inst.job_count, inst.machines
    segments = []
    if draw(st.booleans()):
        schedule, _ = simulate_srpt(
            inst, PolicyConfig(migration=draw(st.sampled_from(list(Migration))))
        )
        if draw(st.booleans()):
            return schedule
        segments += schedule.segments[draw(st.integers(0, len(schedule.segments))) :]
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, 8))
        segments.append(
            Segment(
                draw(st.integers(1, n + 2)),
                draw(st.integers(1, m + 1)),
                start,
                start + draw(st.integers(1, 4)),
            )
        )
    if draw(st.booleans()):
        return Schedule.from_segments(inst, segments)
    order = draw(st.permutations(segments))
    return Schedule(inst, tuple(order), draw(st.integers(0, 12)))


@given(s=broken_schedules())
@settings(max_examples=400)
def test_validator_matches_pairwise_reference(s):
    assert validate_schedule(s) == reference_violations(s)

