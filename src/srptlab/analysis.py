"""Competitive-ratio measurement and claim verification.

The claim table pairs each workload family with the closed-form makespans
stated for it (ids T3.1..T3.5). A verification sweep runs SRPT's selection
once per instance, places it under both migration policies, computes the
zero-release baseline optimum, forms the exact ratio, and compares
everything to the claimed formulas with integer/rational equality -- no
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

from .engine import Migration, place, select_srpt
from .model import Instance, Rational, rational_of
from .oracles import mcnaughton, zero_release_opt
from .workloads import ClassId, ClassSpec, S3Interpretation, generate

PASS = "PASS"
MISMATCH = "MISMATCH"
NOT_APPLICABLE = "N-A"

BOTH_POLICIES: tuple[Migration, ...] = (Migration.REASSIGN_ALL, Migration.STICKY)


def competitive_ratio(srpt_makespan: int, opt_makespan: int) -> Rational:
    """Exact ratio w_SRPT / w_OPT in lowest terms."""
    if opt_makespan < 1:
        raise ValueError(
            f"optimal makespan must be a positive integer, got {opt_makespan}"
        )
    return rational_of(srpt_makespan, opt_makespan)


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
    bound: Fraction | None = None

    def claimed_cr(self, n: int) -> Rational:
        return rational_of(self.claimed_srpt(n), self.claimed_opt(n))

    def class_spec(self, n: int, interp: S3Interpretation | None = None) -> ClassSpec:
        m = self.machines if self.machines is not None else n
        return ClassSpec(self.family, n=n, m=m, s3_interpretation=interp)

    def row_label(self, interp: S3Interpretation | None = None) -> str:
        if interp is None:
            return self.theorem_id
        suffix = "2n" if interp is S3Interpretation.LITERAL_2N else "n+2"
        return f"{self.theorem_id}/{suffix}"


THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(
        theorem_id="T3.1",
        family=ClassId.S1,
        machines=2,
        applicable=lambda n: n >= 2 and n % 2 == 0,
        claimed_srpt=lambda n: n * (n + 1) // 2,
        claimed_opt=lambda n: n * n // 2,
        bound=Fraction(3, 2),
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
    """One measurement row: a (theorem variant, n, policy) cell with the
    measured and claimed values plus a verdict per compared field."""

    theorem: str
    n: int
    policy: str
    w_srpt_measured: int
    w_opt_measured: int
    cr_measured: Rational
    w_srpt_claimed: int | None = None
    w_opt_claimed: int | None = None
    cr_claimed: Rational | None = None

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


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    rows: tuple[ReportRow, ...]

    @property
    def mismatch_rows(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if r.verdict == MISMATCH)

    @property
    def summary(self) -> str:
        bad = len(self.mismatch_rows)
        if bad:
            return f"MISMATCH ({bad} of {len(self.rows)} rows)"
        return PASS if self.rows else NOT_APPLICABLE


@dataclass(frozen=True)
class SweepReport:
    """All theorem reports plus measured-only rows (the S5 family has no
    claim, so its rows carry empty claimed cells and an N-A verdict)."""

    reports: tuple[TheoremReport, ...]
    extra_rows: tuple[ReportRow, ...] = ()

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        out: list[ReportRow] = []
        for rep in self.reports:
            out.extend(rep.rows)
        out.extend(self.extra_rows)
        return tuple(out)

    @property
    def mismatch_rows(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if r.verdict == MISMATCH)


def measure(inst: Instance) -> dict[Migration, tuple[int, int, Rational]]:
    """Select once, place under both policies, divide by the zero-release
    baseline. Returns {policy: (w_srpt, w_opt, ratio)}. The baseline is the
    indexed-round optimum, cross-checked against the McNaughton bound; the
    two agree on every family a claim sweeps, so a disagreement is surfaced
    instead of silently picking a denominator.
    """
    log = list(select_srpt(inst))
    opt = zero_release_opt(inst).makespan
    preemptive = mcnaughton(inst).makespan
    if opt != preemptive:
        raise ValueError(
            f"indexed-round baseline ({opt}) differs from the preemptive"
            f" optimum ({preemptive}); this instance is outside the claim"
            " families -- compare against mcnaughton() directly"
        )
    makespans = {p: place(inst, log, p)[0].makespan for p in BOTH_POLICIES}
    return {p: (w, opt, competitive_ratio(w, opt)) for p, w in makespans.items()}


def _rows(
    label: str, class_specs, claim: TheoremSpec | None = None
) -> list[ReportRow]:
    """Measure each instance under both policies; claimed cells stay empty
    (verdict N-A) when there is no claim."""
    rows = []
    for class_spec in class_specs:
        n = class_spec.n
        claimed = (
            ()
            if claim is None
            else (claim.claimed_srpt(n), claim.claimed_opt(n), claim.claimed_cr(n))
        )
        for policy, measured in measure(generate(class_spec)).items():
            rows.append(ReportRow(label, n, policy.value, *measured, *claimed))
    return rows


def verify_theorem(spec: TheoremSpec, ns) -> TheoremReport:
    """Sweep one claim over the applicable n values.

    Non-applicable n are skipped (T3.1 is stated for even n only). Every
    interpretation variant of the family is measured and labelled, so a
    claim that only holds under one reading names which one passes.
    """
    ns = [n for n in ns if spec.applicable(n)]
    rows: list[ReportRow] = []
    for interp in spec.interpretations:
        specs = [spec.class_spec(n, interp) for n in ns]
        rows += _rows(spec.row_label(interp), specs, spec)
    return TheoremReport(theorem_id=spec.theorem_id, rows=tuple(rows))


def verify_all(ns) -> SweepReport:
    """The full default suite: every claim plus the claimless S5 family."""
    ns = list(ns)
    return SweepReport(
        reports=tuple(verify_theorem(spec, ns) for spec in THEOREMS),
        extra_rows=tuple(_rows("S5", [ClassSpec(ClassId.S5, n=n) for n in ns])),
    )


def bound_check(report: TheoremReport, bound: Rational) -> tuple[bool, ...]:
    """Exact per-row test of measured CR <= bound."""
    return tuple(row.cr_measured <= bound for row in report.rows)
