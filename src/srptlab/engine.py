"""Event-driven simulator for the preemptive SRPT policy on identical machines.

One decision loop feeds everything else, and each consumer pays only for
what it reads.

* ``_decisions`` is the SRPT rule and the only code that decides which jobs
  run. Decision epochs are exactly the distinct arrival and completion
  instants. At each epoch the k = min(m, available) released jobs with the
  least remaining work run, ties broken towards the lowest job id. Waiting
  jobs sit in a heap on (remaining, id) and running jobs in a list of
  (finish, id) pairs kept sorted: running jobs all lose work at the same
  rate, so that order holds between epochs and only an arrival can preempt.
  Each epoch reports both queues and the jobs that stopped and started.
* ``select_srpt`` reads the trace off the loop's queues and yields one
  ``Epoch`` per decision point: the time, the remaining-work snapshot and the
  running jobs. This log is the engine trace, so the trace is the same under
  both policies. ``EngineTrace`` holds only the instance and builds the log
  when its epochs are read.
* ``place`` is the only code that assigns machines; the machines live only in
  the schedule's segments. It consumes the loop's reports and never changes
  which jobs run, so both policies select the same jobs and produce the same
  completion times by construction:

  * ``reassign-all``: the running jobs are laid out on machines 1..k in
    (remaining, id) order at every epoch where something stopped or started,
    so a job may migrate while it keeps running; a running job closes its
    segment and opens another only when its machine changes.
  * ``sticky``: a running job keeps its machine; a stopped job frees its
    machine and each started job takes the lowest free one, so an epoch costs
    only its changes.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
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
    """The selection log of one instance, built from the instance whenever
    epochs is read.

    Only the instance is stored, so equal instances give equal traces and a
    caller that drops the trace unread pays nothing for its snapshots. The
    log is not kept either: a caller that reads it more than once should
    hold on to the tuple.
    """

    instance: Instance

    @property
    def epochs(self) -> tuple[Epoch, ...]:
        return tuple(select_srpt(self.instance))


def _decisions(
    inst: Instance,
) -> Iterator[tuple[int, list, list, list[int], list[int]]]:
    """The SRPT decision loop: yield (time, running, waiting, stopped,
    started) once per epoch, the last one at the makespan with both queues
    empty.

    running is the loop's own sorted list of (finish, id) pairs, which is
    (remaining, id) order; waiting is its heap of (remaining, id) for the
    released jobs that do not run. Both change once the next epoch is asked
    for. stopped (completed or preempted here) and started (admitted here, in
    (remaining, id) order) are fresh, disjoint lists of job ids.
    """
    # (arrival, id, processing) per job, latest arrival first, so the next
    # arrival pops off the end.
    pending = sorted(
        [(arrival, job_id, work) for job_id, arrival, work in inst.jobs], reverse=True
    )
    machines = inst.machines
    waiting: list[tuple[int, int]] = []  # heap of (remaining, id)
    running: list[tuple[int, int]] = []  # (completion if not preempted, id)
    t = pending[-1][0]
    while True:
        stopped, started = [], []
        while running and running[0][0] == t:
            stopped.append(running.pop(0)[1])
        while pending and pending[-1][0] <= t:
            _, job_id, work = pending.pop()
            heappush(waiting, (work, job_id))
        # Running jobs all lose work at the same rate, so their order holds
        # and they stay ahead of every waiting job: only arrivals preempt.
        # Admissions leave the heap in increasing order and each preempted
        # job ranks above the one that displaced it, so no job both stops
        # and starts at one instant.
        while waiting and (
            len(running) < machines
            or waiting[0] < (running[-1][0] - t, running[-1][1])
        ):
            work, job_id = heappop(waiting)
            if len(running) == machines:
                end, worst = running.pop()
                heappush(waiting, (end - t, worst))
                stopped.append(worst)
            insort(running, (t + work, job_id))
            started.append(job_id)
        yield t, running, waiting, stopped, started
        # The next epoch is the earlier of the next completion and the next
        # arrival; with nothing running the machines idle until the arrival.
        if running:
            t = running[0][0]
            if pending and pending[-1][0] < t:
                t = pending[-1][0]
        elif pending:
            t = pending[-1][0]
        else:
            return


def select_srpt(inst: Instance) -> Iterator[Epoch]:
    """The decision log with snapshots: one Epoch per decision point, the
    last one at the makespan. Each snapshot is read off _decisions' queues:
    a running job has finish - t left and a waiting job its heap key. The
    choice of who runs is made there alone."""
    for t, running, waiting, _, _ in _decisions(inst):
        left = [(job_id, end - t) for end, job_id in running]
        left += [(job_id, work) for work, job_id in waiting]
        left.sort()
        yield Epoch(t, tuple(left), tuple(map(itemgetter(1), running)))


def place(inst: Instance, log: Iterable, migration: Migration) -> Schedule:
    """Put each epoch's running jobs on machines and merge the segments.

    log holds _decisions' items, of which place reads the running list and
    the stopped and started ids, never the waiting heap. The placement made
    at one epoch holds until the next, and the last epoch stops every job.
    Both policies close the segment of each stopped job. Sticky then gives
    each started job the lowest free machine; reassign-all walks running,
    where it puts job i on machine i, and reopens a segment only for a job
    whose machine changed.

    A machine's segments close in time order and never start together, so
    concatenating the machines gives Schedule.from_segments' order without
    a sort.
    """
    sticky = Migration(migration) is Migration.STICKY
    free = list(range(1, inst.machines + 1))  # sticky: idle machines, a min-heap
    held: dict[int, tuple[int, int]] = {}  # running job -> (machine, start)
    closed: list[list[Segment]] = [[] for _ in range(inst.machines)]  # in time order
    for t, running, _, stopped, started in log:
        for job_id in stopped:
            machine, start = held.pop(job_id)
            closed[machine - 1].append(Segment(job_id, machine, start, t))
            if sticky:
                heappush(free, machine)
        if sticky:
            for job_id in started:
                held[job_id] = (heappop(free), t)
        elif stopped or started:
            for machine, (_, job_id) in enumerate(running, 1):
                was = held.get(job_id)
                if was is None:
                    held[job_id] = (machine, t)
                elif was[0] != machine:
                    closed[was[0] - 1].append(Segment(job_id, was[0], was[1], t))
                    held[job_id] = (machine, t)
    return Schedule(inst, [seg for segs in closed for seg in segs])


def simulate_srpt(
    inst: Instance, cfg: PolicyConfig | None = None
) -> tuple[Schedule, EngineTrace]:
    """Run SRPT on the instance; return the schedule and the decision trace.

    The schedule passes validate_schedule (tested under hypothesis) and is
    placed straight from the decision loop, without snapshots. The trace is
    select_srpt's log, built each time its epochs are read; it does not
    depend on the policy and ends with an epoch at the makespan holding an
    empty snapshot.
    """
    migration = (cfg or PolicyConfig()).migration
    return place(inst, _decisions(inst), migration), EngineTrace(inst)


def remaining_profile(trace: EngineTrace, t: int) -> dict[int, int]:
    """Remaining units per released unfinished job at epoch time t.

    t must be one of the trace's decision epochs; any other instant is
    rejected because the scan list is only defined at decision points. The
    log is read only up to the first epoch at or after t.
    """
    for epoch in select_srpt(trace.instance):
        if epoch.time == t:
            return dict(epoch.remaining)
        if epoch.time > t:
            break
    times = [time for time, *_ in _decisions(trace.instance)]
    raise ValueError(f"time {t} is not a decision epoch; epochs are {times}")
