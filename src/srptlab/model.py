"""Domain model: jobs, instances, schedules, exact rationals, schedule validation.

All times are non-negative integers. Execution segments are half-open
intervals [start, end), so a segment ending at t and another starting at t
on the same machine never count as overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

# Competitive ratios are exact ratios of integers; Fraction already stores
# lowest terms with a positive denominator, which is the whole contract.
Rational = Fraction


def rational_of(numer: int, denom: int) -> Rational:
    """Exact ratio in lowest terms. The denominator must be positive."""
    if denom <= 0:
        raise ValueError(f"denominator must be a positive integer, got {denom}")
    return Fraction(numer, denom)


@dataclass(frozen=True)
class Job:
    """One job: 1-based id, release instant, and integral processing time."""

    id: int
    arrival: int
    processing: int

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"job id must be >= 1, got {self.id}")
        if self.arrival < 0:
            raise ValueError(f"job {self.id}: arrival must be >= 0, got {self.arrival}")
        if self.processing < 1:
            raise ValueError(
                f"job {self.id}: processing must be >= 1, got {self.processing}"
            )


@dataclass(frozen=True)
class Instance:
    """A job sequence plus the number of identical machines."""

    jobs: tuple[Job, ...]
    machines: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("instance must contain at least one job")
        if self.machines < 1:
            raise ValueError(f"machine count must be >= 1, got {self.machines}")
        ids = sorted(job.id for job in self.jobs)
        if ids != list(range(1, len(self.jobs) + 1)):
            raise ValueError(
                f"job ids must be unique and contiguous from 1, got {ids}"
            )

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    def job(self, job_id: int) -> Job:
        for job in self.jobs:
            if job.id == job_id:
                return job
        raise KeyError(f"no job with id {job_id}")

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

    @property
    def meets_constraints(self) -> bool:
        return not self.constraint_violations()

    def with_zero_releases(self) -> Instance:
        """Offline copy of the instance: every arrival treated as zero."""
        return Instance(
            jobs=tuple(Job(j.id, 0, j.processing) for j in self.jobs),
            machines=self.machines,
        )


@dataclass(frozen=True)
class Segment:
    """One contiguous run of a job on one machine over [start, end)."""

    job_id: int
    machine: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.job_id < 1:
            raise ValueError(f"segment job id must be >= 1, got {self.job_id}")
        if self.machine < 1:
            raise ValueError(f"segment machine must be >= 1, got {self.machine}")
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if not self.start < self.end:
            raise ValueError(
                f"segment must satisfy start < end, got [{self.start},{self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Schedule:
    """Execution segments for an instance plus the resulting makespan.

    Construction does not validate: broken schedules are representable so
    that validate_schedule can report their violations as data.
    """

    instance: Instance
    segments: tuple[Segment, ...]
    makespan: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def from_segments(cls, instance: Instance, segments) -> Schedule:
        """Build a schedule with segments in (machine, start) order and the
        makespan derived from the latest segment end."""
        ordered = tuple(sorted(segments, key=lambda s: (s.machine, s.start, s.job_id)))
        makespan = max((s.end for s in ordered), default=0)
        return cls(instance=instance, segments=ordered, makespan=makespan)

    def completion_times(self) -> dict[int, int]:
        """Latest segment end per job id (only jobs that have segments)."""
        done: dict[int, int] = {}
        for seg in self.segments:
            done[seg.job_id] = max(done.get(seg.job_id, 0), seg.end)
        return dict(sorted(done.items()))


def _overlaps(segs: list[Segment]):
    """Yield (a, b, (lo, hi)) for every overlapping pair of segs, which must
    be sorted by start. The scan from a stops at the first b starting at or
    after a's end: every later segment starts later still."""
    for i, a in enumerate(segs):
        for b in islice(segs, i + 1, None):
            if b.start >= a.end:
                break
            yield a, b, (b.start, min(a.end, b.end))


def validate_schedule(s: Schedule) -> list[str]:
    """Check every schedule invariant; return one message per violation.

    An empty list means the schedule is valid. Checked, in order: segment
    references (job exists, machine in range), makespan consistency, work
    conservation per job, machine overlaps, a job running on two machines
    at once, and release respect.
    """
    violations: list[str] = []
    arrival = {job.id: job.arrival for job in s.instance.jobs}
    by_machine: dict[int, list[Segment]] = {}
    by_job: dict[int, list[Segment]] = {}
    for seg in s.segments:
        by_machine.setdefault(seg.machine, []).append(seg)
        by_job.setdefault(seg.job_id, []).append(seg)

    for seg in s.segments:
        if seg.job_id not in arrival:
            violations.append(f"segment references unknown job {seg.job_id}")
        if seg.machine > s.instance.machines:
            violations.append(
                f"segment on machine {seg.machine} but instance has"
                f" {s.instance.machines} machines"
            )

    latest = max((seg.end for seg in s.segments), default=0)
    if s.makespan != latest:
        violations.append(f"makespan {s.makespan} != latest segment end {latest}")

    for job in s.instance.jobs:
        got = sum(seg.length for seg in by_job.get(job.id, ()))
        if got != job.processing:
            violations.append(f"job {job.id} received {got} of {job.processing} units")

    for machine in sorted(by_machine):
        segs = sorted(by_machine[machine], key=lambda x: (x.start, x.end, x.job_id))
        for _, _, (lo, hi) in _overlaps(segs):
            violations.append(f"machine {machine} overlap on [{lo},{hi})")

    for job_id in sorted(by_job):
        segs = sorted(by_job[job_id], key=lambda x: (x.start, x.end, x.machine))
        for a, b, (lo, hi) in _overlaps(segs):
            violations.append(
                f"job {job_id} runs on machines {a.machine} and {b.machine}"
                f" simultaneously on [{lo},{hi})"
            )

    for seg in sorted(s.segments, key=lambda x: (x.job_id, x.start)):
        if seg.job_id in arrival and seg.start < arrival[seg.job_id]:
            violations.append(
                f"job {seg.job_id} starts at {seg.start} before arrival"
                f" {arrival[seg.job_id]}"
            )

    return violations
