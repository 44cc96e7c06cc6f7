"""Event-driven simulator for the preemptive SRPT policy on identical machines.

Decision epochs are exactly the distinct arrival instants and job-completion
instants. At each epoch the scheduler rescans all released, unfinished jobs
and runs the k = min(m, available) jobs with the least remaining work, ties
broken towards the lowest job id. Between consecutive epochs the assignment
is frozen and every running job's remaining time drops by the gap length.

Two machine-placement policies are supported; they select the same job set
at every epoch and therefore produce the same completion times, but they
place jobs differently:

* ``reassign-all``: the selected jobs are laid out on machines 1..k in
  (remaining, id) order at every epoch, so a job may migrate even while it
  keeps running.
* ``sticky``: a selected job that was already running keeps its machine;
  only newly selected jobs move onto freed or idle machines, lowest machine
  index first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Instance, Schedule, Segment


class Migration(str, Enum):
    REASSIGN_ALL = "reassign-all"
    STICKY = "sticky"


@dataclass(frozen=True)
class PolicyConfig:
    """Scheduler configuration; migration is its only field. The tie-break
    rules (lowest job id, lowest machine index) are fixed."""

    migration: Migration = Migration.REASSIGN_ALL

    def __post_init__(self) -> None:
        object.__setattr__(self, "migration", Migration(self.migration))


@dataclass(frozen=True)
class Epoch:
    """One decision point: the scan snapshot and the assignment taken.

    remaining holds (job_id, remaining_units) for every released unfinished
    job at this instant; assignment holds (machine, job_id) pairs for the
    interval that starts here.
    """

    time: int
    remaining: tuple[tuple[int, int], ...]
    assignment: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EngineTrace:
    epochs: tuple[Epoch, ...]

    def epoch_times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.epochs)


def _place(
    chosen: list[int], prev: dict[int, int], machines: int, cfg: PolicyConfig
) -> dict[int, int]:
    """Map the selected jobs (already in (remaining, id) order) to machines."""
    if cfg.migration is Migration.REASSIGN_ALL or not prev:
        return {job: slot + 1 for slot, job in enumerate(chosen)}
    placement = {job: prev[job] for job in chosen if job in prev}
    taken = set(placement.values())
    free = (mach for mach in range(1, machines + 1) if mach not in taken)
    for job in chosen:
        if job not in placement:
            placement[job] = next(free)
    return placement


def simulate_srpt(
    inst: Instance, cfg: PolicyConfig | None = None
) -> tuple[Schedule, EngineTrace]:
    """Run SRPT on the instance; return the schedule and the decision trace.

    The returned schedule always passes validate_schedule. The trace ends
    with a final epoch at the makespan holding an empty snapshot.
    """
    cfg = cfg or PolicyConfig()
    pending = sorted(inst.jobs, key=lambda j: (j.arrival, j.id))
    next_release = 0  # index into pending
    remaining: dict[int, int] = {}  # released, unfinished jobs only
    prev_assign: dict[int, int] = {}
    open_seg: dict[int, list[int]] = {}  # job -> [machine, start, end]
    closed: list[Segment] = []
    epochs: list[Epoch] = []
    unfinished = inst.job_count
    t = pending[0].arrival

    while unfinished:
        while next_release < len(pending) and pending[next_release].arrival <= t:
            job = pending[next_release]
            remaining[job.id] = job.processing
            next_release += 1

        ranked = sorted(remaining.items(), key=lambda kv: (kv[1], kv[0]))
        chosen = [job_id for job_id, _ in ranked[: min(inst.machines, len(ranked))]]
        assign = _place(chosen, prev_assign, inst.machines, cfg)
        epochs.append(
            Epoch(
                time=t,
                remaining=tuple(sorted(remaining.items())),
                assignment=tuple(sorted((m, j) for j, m in assign.items())),
            )
        )

        next_arrival = (
            pending[next_release].arrival if next_release < len(pending) else None
        )
        if not chosen:
            # All released work is done; the machines idle until the next
            # arrival (one must exist while unfinished jobs remain).
            t = next_arrival
            prev_assign = {}
            continue

        step_end = t + min(remaining[j] for j in chosen)
        if next_arrival is not None and next_arrival < step_end:
            step_end = next_arrival
        for job_id in chosen:
            machine = assign[job_id]
            seg = open_seg.get(job_id)
            if seg is not None and seg[0] == machine and seg[2] == t:
                seg[2] = step_end
            else:
                if seg is not None:
                    closed.append(Segment(job_id, seg[0], seg[1], seg[2]))
                open_seg[job_id] = [machine, t, step_end]
            remaining[job_id] -= step_end - t
            if remaining[job_id] == 0:
                del remaining[job_id]
                unfinished -= 1
        prev_assign = assign
        t = step_end

    for job_id in sorted(open_seg):
        machine, start, end = open_seg[job_id]
        closed.append(Segment(job_id, machine, start, end))
    epochs.append(Epoch(time=t, remaining=(), assignment=()))
    return Schedule.from_segments(inst, closed), EngineTrace(epochs=tuple(epochs))


def remaining_profile(trace: EngineTrace, t: int) -> dict[int, int]:
    """Remaining units per released unfinished job at epoch time t.

    t must be one of the trace's decision epochs; any other instant is
    rejected because the scan list is only defined at decision points.
    """
    for epoch in trace.epochs:
        if epoch.time == t:
            return dict(epoch.remaining)
    raise ValueError(
        f"time {t} is not a decision epoch; epochs are {list(trace.epoch_times())}"
    )
