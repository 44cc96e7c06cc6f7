"""validate_schedule against a pairwise reference validator.

For each segment b of a group (a machine or a job), the reference compares b
with every earlier segment of the group, in the order validate_schedule
scans it, and reports b against the one that ends last, the first such on a
tie, when their intervals intersect. It keeps no state from one b to the
next. A quarter of the drawn schedules are SRPT's own; the rest break every
invariant often: unknown job ids, machines past m, overlaps on a machine, a
job on two machines at once, starts before release.
"""

import re
from itertools import combinations

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
    """(a, b, lo, hi) for each b of group, in key order, whose interval
    meets that of a, the earlier segment that ends last (max keeps the first
    such), with [lo, hi) their intersection."""
    ordered = sorted(group, key=key)
    for j, b in enumerate(ordered[1:], 1):
        a = max(ordered[:j], key=lambda x: x.end)
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
    return Schedule(inst, tuple(order))


@given(s=broken_schedules())
@settings(max_examples=400)
def test_validator_matches_pairwise_reference(s):
    assert validate_schedule(s) == reference_violations(s)



def _groups(s):
    """The segments of each machine and of each job, as lists."""
    machines, jobs = {}, {}
    for seg in s.segments:
        machines.setdefault(seg.machine, []).append(seg)
        jobs.setdefault(seg.job_id, []).append(seg)
    return machines, jobs


@given(s=broken_schedules())
@settings(max_examples=400)
def test_a_group_yields_fewer_overlap_messages_than_segments(s):
    violations = validate_schedule(s)
    machines, jobs = _groups(s)
    for machine, group in machines.items():
        said = [v for v in violations if v.startswith(f"machine {machine} overlap on ")]
        assert len(said) < len(group)
    for job_id, group in jobs.items():
        said = [v for v in violations if v.startswith(f"job {job_id} runs on machines ")]
        assert len(said) < len(group)


@given(s=broken_schedules())
@settings(max_examples=400)
def test_valid_exactly_when_no_two_segments_of_a_group_intersect(s):
    machines, jobs = _groups(s)
    clash = any(
        max(a.start, b.start) < min(a.end, b.end)
        for group in [*machines.values(), *jobs.values()]
        for a, b in combinations(group, 2)
    )
    violations = validate_schedule(s)
    overlaps = [v for v in violations if " overlap on [" in v or " simultaneously on [" in v]
    assert bool(overlaps) == clash
    others = [v for v in violations if v not in overlaps]
    assert (violations == []) == (not clash and not others)


@given(s=broken_schedules())
@settings(max_examples=400)
def test_every_shared_instant_lies_in_a_reported_interval(s):
    reported = {}
    for v in validate_schedule(s):
        found = re.fullmatch(r"(machine \d+|job \d+) .* on \[(\d+),(\d+)\)", v)
        if found:
            group, lo, hi = found.groups()
            reported.setdefault(group, []).append(range(int(lo), int(hi)))
    machines, jobs = _groups(s)
    named = [(f"machine {m}", g) for m, g in machines.items()]
    named += [(f"job {j}", g) for j, g in jobs.items()]
    for group, segs in named:
        for a, b in combinations(segs, 2):
            for t in range(max(a.start, b.start), min(a.end, b.end)):
                assert any(t in r for r in reported.get(group, ())), (group, t)
