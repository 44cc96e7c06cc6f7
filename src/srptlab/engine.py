"""Event-driven simulator for the preemptive SRPT policy on identical machines.

Simulation is two passes over one decision log.

* ``select_srpt`` is the SRPT rule and the only code that decides which jobs
  run. Decision epochs are exactly the distinct arrival and completion
  instants. At each epoch it runs the k = min(m, available) released jobs
  with the least remaining work, ties broken towards the lowest job id, and
  yields one ``Epoch``: the time, the remaining-work snapshot and the
  selected jobs. Between consecutive epochs every selected job's remaining
  time drops by the gap length. This log is the engine trace, so the trace
  is the same under both policies.
* ``place`` is the only code that assigns machines; the machines live only in
  the schedule's segments. It reads the log pairwise and never changes which
  jobs run, so both policies below select the same jobs and produce the same
  completion times by construction:

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
from typing import NamedTuple

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


class Epoch(NamedTuple):
    """One decision point of select_srpt's log.

    remaining holds (job_id, remaining_units) for every released unfinished
    job at this instant, in id order; running holds the ids selected for the
    interval that starts here, in (remaining, id) order. The last epoch sits
    at the makespan with both empty.
    """

    time: int
    remaining: tuple[tuple[int, int], ...]
    running: tuple[int, ...]


@dataclass(frozen=True)
class EngineTrace:
    epochs: tuple[Epoch, ...]

    def epoch_times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.epochs)


def select_srpt(inst: Instance) -> Iterator[Epoch]:
    """The SRPT decision loop: yield one Epoch per decision point, the last
    one at the makespan."""
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
        yield Epoch(t, snapshot, running)
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


def place(inst: Instance, log: Iterable[Epoch], migration: Migration) -> Schedule:
    """Put each epoch's running jobs on machines and merge the segments.

    log is select_srpt's output; consecutive epochs bound the interval over
    which one placement holds.
    """
    sticky = Migration(migration) is Migration.STICKY
    machine_of: dict[int, int] = {}
    open_seg: dict[int, list[int]] = {}  # job -> [machine, start, end]
    closed: list[Segment] = []
    for (t, _, running), (step_end, _, _) in pairwise(log):
        if sticky:
            kept = {job: machine_of[job] for job in running if job in machine_of}
            taken = set(kept.values())
            free = (mach for mach in range(1, inst.machines + 1) if mach not in taken)
            machine_of = {job: kept.get(job) or next(free) for job in running}
        else:
            machine_of = dict(zip(running, range(1, inst.machines + 1)))
        for job_id, machine in machine_of.items():
            seg = open_seg.get(job_id)
            if seg is not None and seg[0] == machine and seg[2] == t:
                seg[2] = step_end
            else:
                if seg is not None:
                    closed.append(Segment(job_id, *seg))
                open_seg[job_id] = [machine, t, step_end]

    closed += (Segment(job_id, *seg) for job_id, seg in open_seg.items())
    return Schedule.from_segments(inst, closed)


def simulate_srpt(
    inst: Instance, cfg: PolicyConfig | None = None
) -> tuple[Schedule, EngineTrace]:
    """Run SRPT on the instance; return the schedule and the decision trace.

    The schedule passes validate_schedule (tested under hypothesis). The
    trace is select_srpt's log, so it does not depend on the policy; it ends
    with an epoch at the makespan holding an empty snapshot.
    """
    log = tuple(select_srpt(inst))
    return place(inst, log, (cfg or PolicyConfig()).migration), EngineTrace(log)


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
