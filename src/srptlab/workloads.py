"""Generators for the five structured input families S1..S5 plus a
parametric generalization.

Every family releases job J_i at time i-1 (unit-spaced arrivals) with equal
processing times:

* S1: n jobs of length n; machine count must be given explicitly.
* S2: n jobs of length n+1; m defaults to n.
* S3: n jobs of length 2n as written, or n+2 under the alternative reading
  that makes claim T3.4's stated makespans consistent; m defaults to n.
* S4: 2n jobs of length n; m defaults to n.
* S5: 2n jobs of length 2n on n machines (processing time equals job count).
* parametric: n jobs of a chosen length (defaults to n); m defaults to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Instance, Job, _check_int, _quote


class ClassId(str, Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"
    PARAMETRIC = "parametric"


class S3Interpretation(str, Enum):
    LITERAL_2N = "literal-2n"
    THEOREM_N_PLUS_2 = "theorem-n-plus-2"


def _member(enum, value):
    try:
        return enum(value)
    except ValueError:
        raise ValueError(f"{_quote(value)} is not a valid {enum.__name__}") from None


@dataclass(frozen=True)
class ClassSpec:
    """A family id plus its size parameter n and optional overrides."""

    class_id: ClassId
    n: int
    m: int | None = None
    processing_override: int | None = None
    s3_interpretation: S3Interpretation | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_id", _member(ClassId, self.class_id))
        if self.s3_interpretation is not None:
            interp = _member(S3Interpretation, self.s3_interpretation)
            object.__setattr__(self, "s3_interpretation", interp)
        _check_int(self.n, "class parameter n", 1)
        if self.m is not None:
            _check_int(self.m, "machine count", 1)
        if self.class_id is ClassId.S1 and self.m is None:
            raise ValueError("class S1 needs an explicit machine count")
        if self.processing_override is not None:
            if self.class_id is not ClassId.PARAMETRIC:
                raise ValueError(
                    "processing_override is only valid for the parametric class"
                )
            _check_int(self.processing_override, "processing_override", 1)
        if (
            self.s3_interpretation is not None
            and self.class_id is not ClassId.S3
        ):
            raise ValueError("s3_interpretation is only valid for class S3")

    @property
    def machines(self) -> int:
        return self.m if self.m is not None else self.n

    @property
    def job_count(self) -> int:
        if self.class_id in (ClassId.S4, ClassId.S5):
            return 2 * self.n
        return self.n

    @property
    def processing(self) -> int:
        n = self.n
        if self.class_id is ClassId.S1 or self.class_id is ClassId.S4:
            return n
        if self.class_id is ClassId.S2:
            return n + 1
        if self.class_id is ClassId.S3:
            interp = self.s3_interpretation or S3Interpretation.LITERAL_2N
            return 2 * n if interp is S3Interpretation.LITERAL_2N else n + 2
        if self.class_id is ClassId.S5:
            return 2 * n
        return self.processing_override if self.processing_override is not None else n


def generate(spec: ClassSpec) -> Instance:
    """Materialize the family instance: jobs 1..count arriving at 0,1,2,...

    Pure: equal ClassSpec values generate equal instances.
    """
    processing = spec.processing
    jobs = tuple(Job(i, i - 1, processing) for i in range(1, spec.job_count + 1))
    return Instance(jobs=jobs, machines=spec.machines)
