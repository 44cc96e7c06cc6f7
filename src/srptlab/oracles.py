"""Offline-optimum makespans.

Three routes, deliberately independent of the online simulator:

* zero_release_opt -- the baseline the claims are stated against: releases
  are ignored and equal-length jobs are packed non-preemptively in index
  order, m per round. Verification divides by mcnaughton and refuses any
  instance where it differs from this baseline's makespan ceil(n/m) * t,
  which it reads off the instance without building the schedule.
* mcnaughton -- the preemptive zero-release optimum max(max T_i, ceil(sum/m)),
  achieved by the classic wrap-around rule; no witness schedule is built.
* brute_force_opt -- exhaustive integer-grid search for small instances,
  with or without release dates; returns a witness schedule. It prunes a
  state when the work released at or after some r exceeds m times the time
  left after max(now, r): that work cannot start earlier, so no completion
  of the state meets the target.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .model import Instance, Schedule, Segment, _check_int, _quote


@dataclass(frozen=True)
class OptResult:
    makespan: int
    schedule: Schedule | None = None


class UnsupportedInstanceError(ValueError):
    """The requested optimum is undefined for this instance shape."""


class SearchCeilingError(ValueError):
    """The instance is too large for the exhaustive search."""


@dataclass(frozen=True)
class SearchCeiling:
    """Refusal bounds for brute_force_opt, sized so the oracle test suite
    runs in seconds. Each bound is an integer >= 1."""

    max_jobs: int = 6
    max_machines: int = 4
    max_total_work: int = 30

    def __post_init__(self) -> None:
        for field in fields(self):
            _check_int(getattr(self, field.name), f"search ceiling {field.name}", 1)


DEFAULT_CEILING = SearchCeiling()


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _indexed_round_makespan(inst: Instance) -> int:
    """ceil(n/m) * t, the indexed-round baseline's makespan; only defined
    when all processing times equal t."""
    lengths = {job.processing for job in inst.jobs}
    if len(lengths) > 1:
        raise UnsupportedInstanceError(
            "the indexed-round baseline is defined only for equal processing"
            f" times (saw {_quote(sorted(lengths))}); use mcnaughton() or"
            " brute_force_opt() instead"
        )
    return _ceil_div(inst.job_count, inst.machines) * lengths.pop()


def zero_release_opt(inst: Instance) -> OptResult:
    """Offline baseline for equal-length jobs: releases are treated as zero
    and job i runs non-preemptively on machine ((i-1) mod m)+1 in round
    ceil(i/m), giving makespan ceil(n/m) * t.

    Only defined when all processing times are equal; otherwise rejected
    with a pointer to mcnaughton / brute_force_opt.
    """
    makespan = _indexed_round_makespan(inst)
    t = inst.jobs[0].processing
    m = inst.machines
    offline = inst.with_zero_releases()
    segments = []
    for job in sorted(offline.jobs, key=lambda j: j.id):
        round_no = _ceil_div(job.id, m)
        machine = (job.id - 1) % m + 1
        segments.append(Segment(job.id, machine, (round_no - 1) * t, round_no * t))
    schedule = Schedule.from_segments(offline, segments)
    return OptResult(makespan=makespan, schedule=schedule)


def mcnaughton(inst: Instance) -> OptResult:
    """Preemptive zero-release optimum: max(longest job, ceil(total/m))."""
    total = sum(job.processing for job in inst.jobs)
    longest = max(job.processing for job in inst.jobs)
    return OptResult(makespan=max(longest, _ceil_div(total, inst.machines)))


def _grouped(jobs: dict[int, tuple[int, int]]) -> tuple:
    """Canonical state: sorted ((release, remaining), count) over unfinished
    jobs. Jobs with equal release and remaining are interchangeable, which
    is what collapses the search space."""
    counts: dict[tuple[int, int], int] = {}
    for rel, rem in jobs.values():
        if rem > 0:
            counts[(rel, rem)] = counts.get((rel, rem), 0) + 1
    return tuple(sorted(counts.items()))


def _pick_multisets(groups: list[tuple[tuple[int, int], int]], k: int):
    """Yield every way to take k units from the groups (count per group).

    Groups arrive sorted by descending remaining so the first emitted choice
    is the longest-remaining-first heuristic, which usually witnesses the
    optimum immediately.
    """
    if k == 0:
        yield ()
        return
    if not groups:
        return
    (key, avail), rest = groups[0], groups[1:]
    hi = min(avail, k)
    lo = max(0, k - sum(c for _, c in rest))
    for take in range(hi, lo - 1, -1):
        for tail in _pick_multisets(rest, k - take):
            yield ((key, take),) + tail if take else tail


def brute_force_opt(
    inst: Instance,
    respect_releases: bool,
    ceiling: SearchCeiling = DEFAULT_CEILING,
) -> OptResult:
    """Exact minimum makespan over all integer-grid preemptive schedules.

    State-space search over (time, multiset of (release, remaining)): at
    each unit step the k = min(m, released unfinished) jobs to run are
    chosen exhaustively (running fewer than k can never help, by exchange).
    Feasibility is tested against increasing makespan targets starting at
    the trivial lower bound, so the first feasible target is the optimum.
    Targets below the optimum are mostly rejected by a capacity bound, not by
    enumeration: work released at or after r cannot start before max(t, r),
    so it must fit in m * (target - max(t, r)).
    The memo table of failed states is per call.

    Refuses instances beyond the ceiling; the limits are stated in the error.
    """
    n = inst.job_count
    total = sum(job.processing for job in inst.jobs)
    if (
        n > ceiling.max_jobs
        or inst.machines > ceiling.max_machines
        or total > ceiling.max_total_work
    ):
        raise SearchCeilingError(
            f"instance (jobs {n}, machines {inst.machines}, total work {total})"
            f" exceeds the search ceiling (jobs <= {ceiling.max_jobs},"
            f" machines <= {ceiling.max_machines},"
            f" total work <= {ceiling.max_total_work})"
        )

    base = inst if respect_releases else inst.with_zero_releases()
    m = base.machines
    jobs = {job.id: (job.arrival, job.processing) for job in base.jobs}
    lower = max(
        _ceil_div(total, m),
        max(rel + rem for rel, rem in jobs.values()),
    )
    horizon = max(rel for rel, _ in jobs.values()) + total

    start = _grouped(jobs)
    for target in range(lower, horizon + 1):
        steps = _search_deadline(0, start, m, target, set())
        if steps is not None:
            return OptResult(makespan=target, schedule=_witness(base, steps))
    raise AssertionError("unreachable: the serial schedule always fits the horizon")


def _search_deadline(t: int, state: tuple, m: int, deadline: int, failed: set):
    """Depth-first search from (t, state) for a schedule finishing every job
    by deadline.

    A state fails at once if some job cannot finish in time on its own, or
    if the jobs released at or after some release r hold more work than m
    machines can do in [max(t, r), deadline) -- they cannot run earlier.
    Both checks cut only subtrees with no feasible completion, so the first
    feasible path found is the one the unpruned search would find.

    Returns the list of (time, chosen group counts) on success, else None.
    Only failed (time, state) pairs are memoised in failed; a success path
    ends the search. A module-level recursion rather than a closure, so the
    memo table is freed as soon as the search returns.
    """
    if not state:
        return []
    if (t, state) in failed:
        return None
    # The state is sorted on (release, remaining), so walking it backwards
    # the running sum covers only jobs released at or after rel -- all of
    # them at the last group of that release, a subset before it.
    suffix = 0
    for (rel, rem), c in reversed(state):
        suffix += rem * c
        start = max(t, rel)
        if start + rem > deadline or suffix > m * (deadline - start):
            failed.add((t, state))
            return None
    avail = [((rel, rem), c) for (rel, rem), c in state if rel <= t]
    if not avail:
        t_next = min(rel for (rel, _), _ in state)
        result = _search_deadline(t_next, state, m, deadline, failed)
        if result is None:
            failed.add((t, state))
        return result
    avail.sort(key=lambda g: (-g[0][1], g[0][0]))
    k = min(m, sum(c for _, c in avail))
    for picks in _pick_multisets(avail, k):
        counts = dict(state)
        for (rel, rem), take in picks:
            counts[(rel, rem)] -= take
            if counts[(rel, rem)] == 0:
                del counts[(rel, rem)]
            if rem - 1 > 0:
                counts[(rel, rem - 1)] = counts.get((rel, rem - 1), 0) + take
        tail = _search_deadline(t + 1, tuple(sorted(counts.items())), m, deadline, failed)
        if tail is not None:
            return [(t, picks)] + tail
    failed.add((t, state))
    return None


def _witness(base: Instance, steps) -> Schedule:
    """Replay a feasible step list into a concrete, validated-shape schedule.

    Within each interchangeable group the lowest job ids run first; within a
    step the running jobs occupy machines 1..k in job-id order.
    """
    # (release, remaining) -> sorted ids of the unfinished jobs in that group
    group: dict[tuple[int, int], list[int]] = {}
    for job in sorted(base.jobs, key=lambda j: j.id):
        group.setdefault((job.arrival, job.processing), []).append(job.id)
    runs: list[list[int]] = []  # [machine, job, start, end]
    last: dict[int, list[int]] = {}  # machine -> its latest run, extended in place
    for t, picks in steps:
        # Take every group's jobs from the pre-step index before moving any,
        # so a job moved into another group's (rel, rem) cannot be selected
        # twice within the same step.
        taken = [(key, group[key][:take]) for key, take in picks]
        running: list[int] = []
        for key, ids in taken:
            del group[key][: len(ids)]
            running += ids
        for (rel, rem), ids in taken:
            if rem > 1:
                below = group.get((rel, rem - 1))
                group[rel, rem - 1] = sorted(below + ids) if below else ids
        running.sort()
        for machine, jid in enumerate(running, 1):
            run = last.get(machine)
            if run and run[1] == jid and run[3] == t:
                run[3] = t + 1
            else:
                last[machine] = run = [machine, jid, t, t + 1]
                runs.append(run)
    segments = [Segment(jid, machine, start, end) for machine, jid, start, end in runs]
    return Schedule.from_segments(base, segments)
