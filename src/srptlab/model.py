"""Domain model: jobs, instances, schedules, schedule validation.

All times are non-negative integers: Job, Segment and Instance refuse any
other value, a bool too, with a ValueError naming the field. Execution
segments are half-open intervals [start, end), so a segment ending at t and
another starting at t on the same machine never count as overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple


_QUOTE_LIMIT = 60


def _quote(value, top: bool = True) -> str:
    """value's repr for an error message, bounded: a list names its first five
    entries and counts the rest, and a repr (an entry's too) longer than
    _QUOTE_LIMIT characters is cut there and states its full length."""
    if top and isinstance(value, list):
        more = f" (and {len(value) - 5} more)" if len(value) > 5 else ""
        return f"[{', '.join(_quote(v, False) for v in value[:5])}]{more}"
    text = repr(value)
    cut = f"... ({len(text)} characters)" if len(text) > _QUOTE_LIMIT else ""
    return text[:_QUOTE_LIMIT] + cut


def _check_int(value, what: str, low: int | None = None) -> None:
    """The one check of an integer value, here, in ClassSpec and in
    SearchCeiling: an int but not a bool, and >= low when low is given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {_quote(value)}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {_quote(value)}")


class _JobFields(NamedTuple):
    id: int
    arrival: int
    processing: int


class Job(_JobFields):
    """One job: 1-based id, release instant, and integral processing time.

    An immutable named tuple: it compares and hashes by its three fields, so
    it also equals the plain tuple (id, arrival, processing).
    """

    __slots__ = ()

    def __new__(cls, id: int, arrival: int, processing: int) -> Job:
        # One test on the hot path; the fields are named only if it fails.
        if not (
            type(id) is type(arrival) is type(processing) is int
            and id >= 1 and arrival >= 0 and processing >= 1
        ):
            _check_int(id, "job id", 1)
            _check_int(arrival, f"job {id}: arrival", 0)
            _check_int(processing, f"job {id}: processing", 1)
        return tuple.__new__(cls, (id, arrival, processing))

    @classmethod
    def _make(cls, iterable) -> Job:
        # namedtuple's _make, and _replace through it, would skip the checks.
        return cls(*iterable)


@dataclass(frozen=True)
class Instance:
    """A job sequence plus the number of identical machines."""

    jobs: tuple[Job, ...]
    machines: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("instance must contain at least one job")
        _check_int(self.machines, "machine count", 1)
        try:
            ids = sorted(job.id for job in self.jobs)
        except AttributeError:
            pos = next(i for i, j in enumerate(self.jobs) if not isinstance(j, Job))
            raise ValueError(f"jobs[{pos}] is not a Job: {self.jobs[pos]!r}") from None
        if ids != list(range(1, len(self.jobs) + 1)):
            # ids is sorted and every id is >= 1, so at the first position i
            # with ids[i - 1] != i either id i - 1 repeats or id i is missing.
            i = next(i for i, job_id in enumerate(ids, 1) if job_id != i)
            fault = f"id {i - 1} repeats" if ids[i - 1] == i - 1 else f"id {i} is missing"
            raise ValueError(f"job ids must be unique and contiguous from 1, but {fault}")

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    def constraint_violations(self) -> list[str]:
        """Breaches of the model constraints n >= m and min processing >= m."""
        out = []
        if self.job_count < self.machines:
            out.append(
                f"job count {self.job_count} < machine count {self.machines}"
                " (model requires n >= m)"
            )
        shortest = min(job.processing for job in self.jobs)
        if shortest < self.machines:
            out.append(
                f"min processing time {shortest} < machine count {self.machines}"
                " (model requires t >= m)"
            )
        return out

    def with_zero_releases(self) -> Instance:
        """Offline copy of the instance: every arrival treated as zero."""
        return Instance(
            jobs=tuple(Job(j.id, 0, j.processing) for j in self.jobs),
            machines=self.machines,
        )


class _SegmentFields(NamedTuple):
    job_id: int
    machine: int
    start: int
    end: int


class Segment(_SegmentFields):
    """One contiguous run of a job on one machine over [start, end).

    An immutable named tuple: it compares and hashes by its four fields, so
    it also equals the plain tuple (job_id, machine, start, end).
    """

    __slots__ = ()

    def __new__(cls, job_id: int, machine: int, start: int, end: int) -> Segment:
        if not (
            type(job_id) is type(machine) is type(start) is type(end) is int
            and job_id >= 1 and machine >= 1 and 0 <= start < end
        ):
            _check_int(job_id, "segment job id", 1)
            _check_int(machine, "segment machine", 1)
            _check_int(start, "segment start", 0)
            _check_int(end, "segment end")
            if not start < end:
                raise ValueError(f"segment must satisfy start < end, got [{start},{end})")
        return tuple.__new__(cls, (job_id, machine, start, end))

    @classmethod
    def _make(cls, iterable) -> Segment:
        # namedtuple's _make, and _replace through it, would skip the checks.
        return cls(*iterable)

    @property
    def length(self) -> int:
        return self.end - self.start


# Sort keys: Schedule.from_segments' segment order, the scan order of the
# machine and job overlap checks, and the order of release messages.
_SCHEDULE_ORDER = attrgetter("machine", "start", "job_id")
_MACHINE_SCAN = attrgetter("start", "end", "job_id")
_JOB_SCAN = attrgetter("start", "end", "machine")
_RELEASE_ORDER = attrgetter("job_id", "start")
_END = attrgetter("end")


@dataclass(frozen=True)
class Schedule:
    """Execution segments for an instance. Its makespan, the latest segment
    end (0 without segments), is derived from them when it is built.

    Construction does not validate: broken schedules are representable so
    that validate_schedule can report their violations as data. A schedule
    and everything it holds are immutable, so its violations are found once,
    on the first validate_schedule call, and kept with it.
    """

    instance: Instance
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        # Set here, not by a second cached_property: on CPython 3.11 that
        # would grow every validated schedule's __dict__ by about 170 bytes.
        object.__setattr__(self, "makespan", max(map(_END, segments), default=0))

    @classmethod
    def from_segments(cls, instance: Instance, segments) -> Schedule:
        """Build a schedule with segments in (machine, start, job id) order."""
        return cls(instance, tuple(sorted(segments, key=_SCHEDULE_ORDER)))

    def completion_times(self) -> dict[int, int]:
        """Latest segment end per job id (only jobs that have segments)."""
        done: dict[int, int] = {}
        for seg in self.segments:
            done[seg.job_id] = max(done.get(seg.job_id, 0), seg.end)
        return dict(sorted(done.items()))

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(_schedule_violations(self))


def _overlaps(segs: list[Segment]):
    """Yield (a, b, (lo, hi)) once for each b of segs, which must be sorted
    by start, that starts before a ends, a being the earlier segment that
    ends last (the first such on a tie). No earlier segment ends after a, so
    every instant two segments share lies in a yielded [lo, hi)."""
    a = None
    for b in segs:
        if a is not None and b.start < a.end:
            yield a, b, (b.start, min(a.end, b.end))
        if a is None or b.end > a.end:
            a = b


def validate_schedule(s: Schedule) -> list[str]:
    """Check every schedule invariant; return one message per violation.

    An empty list means the schedule is valid. Checked, in order: segment
    references (job exists, machine in range), work conservation per job,
    machine overlaps, a job running on two machines at once, and release
    respect. The first call on a schedule costs O(S log S) for S segments,
    with at most one overlap message per segment per group (a machine or a
    job); later calls reuse its verdict. Each call returns a fresh list.
    """
    return list(s._violations)


def _refuse_invalid(s: Schedule, action: str) -> None:
    """Raise ValueError("cannot <action> an invalid schedule: ...") if s has
    violations, naming the first five and counting the rest, so the message
    stays one short line however broken s is."""
    violations = validate_schedule(s)
    if violations:
        more = f" (and {len(violations) - 5} more)" if len(violations) > 5 else ""
        named = "; ".join(violations[:5])
        raise ValueError(f"cannot {action} an invalid schedule: {named}{more}")


def _schedule_violations(s: Schedule) -> list[str]:
    """validate_schedule's checks, run once per schedule by
    Schedule._violations."""
    violations: list[str] = []
    machines = s.instance.machines
    arrival = {job.id: job.arrival for job in s.instance.jobs}
    by_machine: dict[int, list[Segment]] = {}
    by_job: dict[int, list[Segment]] = {}
    early: list[Segment] = []
    for seg in s.segments:
        by_machine.setdefault(seg.machine, []).append(seg)
        by_job.setdefault(seg.job_id, []).append(seg)
        if seg.job_id not in arrival:
            violations.append(f"segment references unknown job {seg.job_id}")
        elif seg.start < arrival[seg.job_id]:
            early.append(seg)
        if seg.machine > machines:
            violations.append(
                f"segment on machine {seg.machine} but instance has"
                f" {machines} machines"
            )

    for job in s.instance.jobs:
        got = sum(seg.end - seg.start for seg in by_job.get(job.id, ()))
        if got != job.processing:
            violations.append(f"job {job.id} received {got} of {job.processing} units")

    for machine in sorted(by_machine):
        segs = sorted(by_machine[machine], key=_MACHINE_SCAN)
        for _, _, (lo, hi) in _overlaps(segs):
            violations.append(f"machine {machine} overlap on [{lo},{hi})")

    for job_id in sorted(by_job):
        segs = sorted(by_job[job_id], key=_JOB_SCAN)
        for a, b, (lo, hi) in _overlaps(segs):
            violations.append(
                f"job {job_id} runs on machines {a.machine} and {b.machine}"
                f" simultaneously on [{lo},{hi})"
            )

    for seg in sorted(early, key=_RELEASE_ORDER):
        violations.append(
            f"job {seg.job_id} starts at {seg.start} before arrival"
            f" {arrival[seg.job_id]}"
        )

    return violations
