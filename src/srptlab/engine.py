"""Event-driven simulator for the preemptive SRPT policy on identical machines.

Simulation is two passes over one decision log.

* ``select_srpt`` is the SRPT rule and the only code that decides which jobs
  run. Decision epochs are exactly the distinct arrival and completion
  instants. At each epoch it runs the k = min(m, available) released jobs
  with the least remaining work, ties broken towards the lowest job id, and
  yields the epoch's time, remaining-work snapshot and selected jobs.
  Between consecutive epochs every selected job's remaining time drops by
  the gap length.
* ``place`` is the only code that assigns machines. It reads the log pairwise
  and never changes which jobs run, so both policies below select the same
  jobs and produce the same completion times by construction:

  * ``reassign-all``: the selected jobs are laid out on machines 1..k in
    (remaining, id) order at every epoch, so a job may migrate even while it
    keeps running.
  * ``sticky``: a selected job that was already running keeps its machine;
    only newly selected jobs move onto freed or idle machines, lowest machine
    index first.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from operator import itemgetter

from .model import Instance, Schedule, Segment

Snapshot = tuple[tuple[int, int], ...]
LogEntry = tuple[int, Snapshot, tuple[int, ...]]


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
    remaining: Snapshot
    assignment: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EngineTrace:
    epochs: tuple[Epoch, ...]

    def epoch_times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.epochs)


def select_srpt(inst: Instance) -> Iterator[LogEntry]:
    """The SRPT decision loop: yield (time, remaining, running) per epoch.

    remaining is the (job_id, remaining_units) snapshot of every released
    unfinished job, in id order; running holds the selected ids in
    (remaining, id) order. The last entry sits at the makespan and is empty.
    """
    pending = sorted(inst.jobs, key=lambda j: (j.arrival, j.id), reverse=True)
    remaining: dict[int, int] = {}  # released, unfinished jobs only
    t = pending[-1].arrival
    while True:
        while pending and pending[-1].arrival <= t:
            job = pending.pop()
            remaining[job.id] = job.processing
        snapshot = tuple(sorted(remaining.items()))
        # A stable sort by remaining work keeps ties in id order.
        ranked = sorted(snapshot, key=itemgetter(1))[: inst.machines]
        running = tuple(job_id for job_id, _ in ranked)
        yield t, snapshot, running
        if not (running or pending):
            return
        # With nothing running the machines idle until the next arrival.
        first_done = t + remaining[running[0]] if running else math.inf
        step_end = min(first_done, pending[-1].arrival if pending else math.inf)
        for job_id in running:
            remaining[job_id] -= step_end - t
            if not remaining[job_id]:
                del remaining[job_id]
        t = step_end


def place(
    inst: Instance, log: Iterable[LogEntry], migration: Migration
) -> tuple[Schedule, EngineTrace]:
    """Put each epoch's running jobs on machines and merge the segments.

    log is select_srpt's output; consecutive entries bound the interval over
    which one assignment holds.
    """
    sticky = Migration(migration) is Migration.STICKY
    machine_of: dict[int, int] = {}
    open_seg: dict[int, list[int]] = {}  # job -> [machine, start, end]
    closed: list[Segment] = []
    epochs: list[Epoch] = []
    for (t, remaining, running), (step_end, _, _) in pairwise(log):
        if sticky:
            kept = {job: machine_of[job] for job in running if job in machine_of}
            taken = set(kept.values())
            free = (mach for mach in range(1, inst.machines + 1) if mach not in taken)
            machine_of = {job: kept.get(job) or next(free) for job in running}
        else:
            machine_of = dict(zip(running, range(1, inst.machines + 1)))
        assignment = tuple(sorted((m, j) for j, m in machine_of.items()))
        epochs.append(Epoch(t, remaining, assignment))
        for job_id, machine in machine_of.items():
            seg = open_seg.get(job_id)
            if seg is not None and seg[0] == machine and seg[2] == t:
                seg[2] = step_end
            else:
                if seg is not None:
                    closed.append(Segment(job_id, *seg))
                open_seg[job_id] = [machine, t, step_end]

    closed += (Segment(job_id, *seg) for job_id, seg in open_seg.items())
    epochs.append(Epoch(time=step_end, remaining=(), assignment=()))
    return Schedule.from_segments(inst, closed), EngineTrace(epochs=tuple(epochs))


def simulate_srpt(
    inst: Instance, cfg: PolicyConfig | None = None
) -> tuple[Schedule, EngineTrace]:
    """Run SRPT on the instance; return the schedule and the decision trace.

    The schedule passes validate_schedule (tested under hypothesis). The
    trace ends with a final epoch at the makespan holding an empty snapshot.
    """
    return place(inst, select_srpt(inst), (cfg or PolicyConfig()).migration)


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
