"""Competitive-ratio measurement and claim verification.

The claim table pairs each workload family with the closed-form makespans
stated for it (ids T3.1..T3.5). A verification sweep runs SRPT's decision
loop once per instance and reads the makespan off its last epoch. Placement
never changes which jobs run, so no job is placed and each instance gives
one ReportRow; the emitters in reports.py write that row under each
migration policy. The makespan is divided by McNaughton's zero-release
optimum, which must match the indexed-round baseline, and everything is
compared to the claimed formulas with integer/rational equality -- no
floating point anywhere in a verdict.

Known outcomes the discrepancy report (reports.py) documents rather than hides:

* T3.1 (S1, m=2): the claimed w_SRPT = n(n+1)/2 disagrees with the literal
  policy semantics for even n >= 4, where simulation gives n^2/2 + 1. The
  sweep records measured vs claimed; the stated bound CR <= 3/2 still holds.
* T3.4 (S3): only the p = n+2 reading reproduces the claimed makespans;
  the literal p = 2n reading mismatches both w_SRPT and w_OPT for n >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .engine import _decisions
from .model import Instance
from .oracles import _indexed_round_makespan, mcnaughton
from .workloads import ClassId, ClassSpec, S3Interpretation, generate

PASS = "PASS"
MISMATCH = "MISMATCH"
NOT_APPLICABLE = "N-A"


def competitive_ratio(srpt_makespan: int, opt_makespan: int) -> Fraction:
    """Exact ratio w_SRPT / w_OPT in lowest terms."""
    if opt_makespan < 1:
        raise ValueError(
            f"optimal makespan must be a positive integer, got {opt_makespan}"
        )
    return Fraction(srpt_makespan, opt_makespan)


_LABEL_SUFFIX = {
    None: "",
    S3Interpretation.THEOREM_N_PLUS_2: "/n+2",
    S3Interpretation.LITERAL_2N: "/2n",
}


@dataclass(frozen=True)
class TheoremSpec:
    """A claim: workload family, applicability, and the stated makespan
    formulas. The claimed ratio is the exact quotient of the stored
    makespan formulas; intermediate printed simplifications are not stored."""

    theorem_id: str
    family: ClassId
    machines: int | None  # None means m tracks the family parameter n
    applicable: Callable[[int], bool]
    claimed_srpt: Callable[[int], int]
    claimed_opt: Callable[[int], int]
    interpretations: tuple[S3Interpretation | None, ...] = (None,)

    def claimed_cr(self, n: int) -> Fraction:
        return Fraction(self.claimed_srpt(n), self.claimed_opt(n))

    def class_spec(self, n: int, interp: S3Interpretation | None = None) -> ClassSpec:
        m = self.machines if self.machines is not None else n
        return ClassSpec(self.family, n=n, m=m, s3_interpretation=interp)

    @property
    def labels(self) -> tuple[str, ...]:
        """One row label per reading, in interpretations order: the id alone,
        or ("T3.4/n+2", "T3.4/2n") for the two S3 readings."""
        return tuple(self.theorem_id + _LABEL_SUFFIX[i] for i in self.interpretations)


THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(
        theorem_id="T3.1",
        family=ClassId.S1,
        machines=2,
        applicable=lambda n: n >= 2 and n % 2 == 0,
        claimed_srpt=lambda n: n * (n + 1) // 2,
        claimed_opt=lambda n: n * n // 2,
    ),
    TheoremSpec(
        theorem_id="T3.2",
        family=ClassId.S1,
        machines=None,
        applicable=lambda n: n >= 1,
        claimed_srpt=lambda n: 2 * n - 1,
        claimed_opt=lambda n: n,
    ),
    TheoremSpec(
        theorem_id="T3.3",
        family=ClassId.S2,
        machines=None,
        applicable=lambda n: n >= 1,
        claimed_srpt=lambda n: 2 * n,
        claimed_opt=lambda n: n + 1,
    ),
    TheoremSpec(
        theorem_id="T3.4",
        family=ClassId.S3,
        machines=None,
        applicable=lambda n: n >= 2,
        claimed_srpt=lambda n: 2 * n + 1,
        claimed_opt=lambda n: n + 2,
        interpretations=(
            S3Interpretation.THEOREM_N_PLUS_2,
            S3Interpretation.LITERAL_2N,
        ),
    ),
    TheoremSpec(
        theorem_id="T3.5",
        family=ClassId.S4,
        machines=None,
        applicable=lambda n: n >= 1,
        claimed_srpt=lambda n: 3 * n - 1,
        claimed_opt=lambda n: 2 * n,
    ),
)


def theorem_spec(theorem_id: str) -> TheoremSpec:
    for spec in THEOREMS:
        if spec.theorem_id == theorem_id:
            return spec
    raise KeyError(f"unknown theorem id {theorem_id!r}")


@dataclass(frozen=True)
class ReportRow:
    """One measured instance: a (theorem variant, n) cell with the measured
    and claimed values plus a verdict per compared field. Both migration
    policies share it, since placement changes no completion time."""

    theorem: str
    n: int
    w_srpt_measured: int
    w_opt_measured: int
    cr_measured: Fraction
    w_srpt_claimed: int | None = None
    w_opt_claimed: int | None = None
    cr_claimed: Fraction | None = None

    def _field_verdict(self, measured, claimed) -> str:
        if claimed is None:
            return NOT_APPLICABLE
        return PASS if measured == claimed else MISMATCH

    @property
    def verdict_srpt(self) -> str:
        return self._field_verdict(self.w_srpt_measured, self.w_srpt_claimed)

    @property
    def verdict_opt(self) -> str:
        return self._field_verdict(self.w_opt_measured, self.w_opt_claimed)

    @property
    def verdict_cr(self) -> str:
        return self._field_verdict(self.cr_measured, self.cr_claimed)

    @property
    def verdict(self) -> str:
        parts = (self.verdict_srpt, self.verdict_opt, self.verdict_cr)
        if MISMATCH in parts:
            return MISMATCH
        if all(p is NOT_APPLICABLE for p in parts):
            return NOT_APPLICABLE
        return PASS


def measure(inst: Instance) -> tuple[int, int, Fraction]:
    """(w_srpt, w_opt, ratio) for one instance, without placing any job.

    w_srpt is the time of the decision loop's last epoch, which sits at the
    makespan under either migration policy; no snapshot is built. w_opt is
    McNaughton's preemptive zero-release optimum, defined for any instance
    shape.
    """
    for w_srpt, _, _, _, _ in _decisions(inst):
        pass
    w_opt = mcnaughton(inst).makespan
    return w_srpt, w_opt, competitive_ratio(w_srpt, w_opt)


def _rows(
    label: str, class_specs, claim: TheoremSpec | None = None
) -> list[ReportRow]:
    """Measure each instance once and build one row for it; claimed cells
    stay empty (verdict N-A) when there is no claim. The claims are stated
    against the indexed-round baseline, ceil(n/m) * t, so an instance where
    it differs from McNaughton's optimum is refused rather than given another
    denominator.
    """
    rows = []
    for class_spec in class_specs:
        n = class_spec.n
        inst = generate(class_spec)
        measured = measure(inst)
        opt = _indexed_round_makespan(inst)
        if opt != measured[1]:
            raise ValueError(
                f"indexed-round baseline ({opt}) differs from the preemptive"
                f" optimum ({measured[1]}); this instance is outside the claim"
                " families -- compare against mcnaughton() directly"
            )
        claimed = (
            ()
            if claim is None
            else (claim.claimed_srpt(n), claim.claimed_opt(n), claim.claimed_cr(n))
        )
        rows.append(ReportRow(label, n, *measured, *claimed))
    return rows


def summary(rows, spec: TheoremSpec) -> str:
    """The claim's verdict over its rows, every reading included: PASS,
    N-A when no n applies, or MISMATCH with the instances that fail."""
    labels = spec.labels
    rows = [r for r in rows if r.theorem in labels]
    bad = sum(r.verdict == MISMATCH for r in rows)
    if bad:
        return f"{MISMATCH} ({bad} of {len(rows)} instances)"
    return PASS if rows else NOT_APPLICABLE


def verify_theorem(spec: TheoremSpec, ns) -> tuple[ReportRow, ...]:
    """Sweep one claim over the applicable n values, giving its rows in
    table order.

    Non-applicable n are skipped (T3.1 is stated for even n only). Every
    interpretation variant of the family is measured and labelled, so a
    claim that only holds under one reading names which one passes.
    """
    ns = [n for n in ns if spec.applicable(n)]
    return tuple(
        row
        for interp, label in zip(spec.interpretations, spec.labels)
        for row in _rows(label, [spec.class_spec(n, interp) for n in ns], spec)
    )


def verify_all(ns) -> tuple[ReportRow, ...]:
    """The full default suite in table order: each claim's readings, then
    the claimless S5 rows, whose claimed cells are empty (verdict N-A)."""
    ns = list(ns)
    rows = [row for spec in THEOREMS for row in verify_theorem(spec, ns)]
    return (*rows, *_rows("S5", [ClassSpec(ClassId.S5, n=n) for n in ns]))
