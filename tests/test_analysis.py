import sys
from fractions import Fraction

import pytest

from srptlab import (
    ClassId,
    Migration,
    bound_check,
    competitive_ratio,
    discrepancy_report,
    generate,
    mcnaughton,
    simulate_srpt,
    theorem_spec,
    verify_all,
    verify_theorem,
    zero_release_opt,
)
from srptlab.analysis import MISMATCH, NOT_APPLICABLE, PASS, ReportRow, TheoremReport
from srptlab.engine import select_srpt


class TestCompetitiveRatio:
    def test_examples(self):
        assert competitive_ratio(3, 2) == Fraction(3, 2)
        assert competitive_ratio(4, 3) == Fraction(4, 3)
        assert competitive_ratio(5, 5) == Fraction(1, 1)

    def test_zero_opt_rejected(self):
        with pytest.raises(ValueError):
            competitive_ratio(3, 0)


class TestClaimedFormulaIdentities:
    """The stored quotients reproduce the claimed ratio closed forms exactly."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_identities(self, n):
        one = Fraction(1)
        assert theorem_spec("T3.2").claimed_cr(n) == 2 * one - Fraction(1, n)
        assert theorem_spec("T3.3").claimed_cr(n) == 2 * one - Fraction(2, n + 1)
        assert theorem_spec("T3.4").claimed_cr(n) == 2 * one - Fraction(3, n + 2)
        assert theorem_spec("T3.5").claimed_cr(n) == Fraction(3, 2) - Fraction(1, 2 * n)

    def test_t31_quotient_is_not_the_printed_simplification(self):
        # (n(n+1)/2) / (n^2/2) = (n+1)/n, which differs from (n^2+2)/n^2
        # everywhere except n=2; only the quotient is stored.
        spec = theorem_spec("T3.1")
        assert spec.claimed_cr(2) == Fraction(3, 2) == Fraction(2 * 2 + 2, 4)
        assert spec.claimed_cr(4) == Fraction(5, 4) != Fraction(18, 16)


class TestVerifyTheorem:
    def test_t32_small_sweep_all_pass(self):
        report = verify_theorem(theorem_spec("T3.2"), range(2, 11))
        assert report.rows
        for row in report.rows:
            assert row.w_srpt_measured == 2 * row.n - 1
            assert row.w_opt_measured == row.n
            assert row.cr_measured == Fraction(2 * row.n - 1, row.n)
            assert row.verdict == PASS
        assert report.summary == PASS

    def test_t35_small_sweep_all_pass(self):
        report = verify_theorem(theorem_spec("T3.5"), range(2, 11))
        for row in report.rows:
            assert (row.w_srpt_measured, row.w_opt_measured) == (
                3 * row.n - 1,
                2 * row.n,
            )
            assert row.verdict == PASS

    def test_t31_passes_only_at_n2(self):
        report = verify_theorem(theorem_spec("T3.1"), range(2, 7))
        by_n = {}
        for row in report.rows:
            by_n.setdefault(row.n, set()).add(row.verdict)
        assert by_n == {2: {PASS}, 4: {MISMATCH}, 6: {MISMATCH}}
        n4 = [r for r in report.rows if r.n == 4]
        assert all(r.w_srpt_measured == 9 and r.w_srpt_claimed == 10 for r in n4)
        assert all(r.verdict_opt == PASS for r in report.rows)

    def test_t31_skips_odd_n(self):
        report = verify_theorem(theorem_spec("T3.1"), [3, 5])
        assert report.rows == ()
        assert report.summary == NOT_APPLICABLE

    def test_t34_names_the_passing_interpretation(self):
        report = verify_theorem(theorem_spec("T3.4"), [2, 3])
        verdicts = {(r.theorem, r.n): r.verdict for r in report.rows if r.policy == "reassign-all"}
        assert verdicts == {
            ("T3.4/n+2", 2): PASS,
            ("T3.4/n+2", 3): PASS,
            ("T3.4/2n", 2): PASS,  # p=2n and p=n+2 coincide at n=2
            ("T3.4/2n", 3): MISMATCH,
        }
        literal_n3 = [
            r for r in report.rows if r.theorem == "T3.4/2n" and r.n == 3
        ]
        for row in literal_n3:
            assert row.verdict_opt == MISMATCH
            assert (row.w_opt_measured, row.w_opt_claimed) == (6, 5)
            assert (row.w_srpt_measured, row.w_srpt_claimed) == (8, 7)

    def test_both_policies_always_agree_on_makespan(self):
        sweep = verify_all(range(2, 13))
        seen = {}
        for row in sweep.rows:
            key = (row.theorem, row.n)
            seen.setdefault(key, set()).add(row.w_srpt_measured)
        assert all(len(values) == 1 for values in seen.values())

    def test_measured_cr_at_least_one_and_dominates_mcnaughton(self):
        sweep = verify_all(range(2, 13))
        assert all(row.cr_measured >= 1 for row in sweep.rows)
        for spec in (theorem_spec("T3.2"), theorem_spec("T3.5")):
            for n in range(2, 13):
                inst = generate(spec.class_spec(n))
                assert zero_release_opt(inst).makespan == mcnaughton(inst).makespan

    def test_sweep_is_deterministic(self):
        assert verify_all(range(2, 8)) == verify_all(range(2, 8))


class TestBoundCheck:
    def test_t31_rows_stay_under_three_halves(self):
        report = verify_theorem(theorem_spec("T3.1"), range(2, 21))
        assert all(bound_check(report, Fraction(3, 2)))

    def test_explicit_rows(self):
        def row(cr):
            return ReportRow(
                theorem="X",
                n=1,
                policy=Migration.REASSIGN_ALL.value,
                w_srpt_measured=1,
                w_opt_measured=1,
                cr_measured=cr,
            )

        report = TheoremReport(
            theorem_id="X", rows=(row(Fraction(1, 1)), row(Fraction(2, 1)))
        )
        assert bound_check(report, Fraction(3, 2)) == (True, False)


class TestDiscrepancyReport:
    def test_agreement_at_n2(self):
        text = discrepancy_report(verify_all([2]))
        assert "AGREE" in text
        assert "DIFFER" not in text

    def test_n4_row_records_all_three_measurements(self):
        text = discrepancy_report(verify_all([2, 3, 4]))
        t31_n4 = next(ln for ln in text.splitlines() if ln.strip().startswith("4 "))
        # measured under both policies, the exhaustive optimum, and the claim
        assert t31_n4.split() == ["4", "9", "9", "9", "10", "DIFFER"]

    def test_t34_matrix(self):
        text = discrepancy_report(verify_all([2, 3]))
        assert "[T3.4]" in text
        rows = [ln.split() for ln in text.splitlines() if ln.strip().startswith(("2 ", "3 "))]
        assert ["3", "PASS", "MISMATCH"] in rows

    def test_algebra_note_present(self):
        text = discrepancy_report(verify_all([2]))
        assert "(n^2+2)/n^2" in text
        assert "not reproduced" in text

    def test_empty_range_gives_empty_report(self):
        assert discrepancy_report(verify_all([])) == ""

    def test_beyond_ceiling_cells_are_dashed(self):
        text = discrepancy_report(verify_all([6]))
        t31_n6 = next(ln for ln in text.splitlines() if ln.strip().startswith("6 "))
        assert t31_n6.split() == ["6", "19", "19", "-", "21", "DIFFER"]

    def test_deterministic_bytes(self):
        assert discrepancy_report(verify_all(range(2, 9))) == discrepancy_report(
            verify_all(range(2, 9))
        )

    def test_reads_the_sweep_without_simulating(self, monkeypatch):
        sweep = verify_all(range(2, 9))

        def refuse(*args, **kwargs):
            raise AssertionError("discrepancy_report simulated again")

        refused = {"simulate_srpt": simulate_srpt, "select_srpt": select_srpt}
        holders = [
            (module, attr)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "srptlab"
            for attr, func in refused.items()
            if getattr(module, attr, None) is func
        ]
        # engine and the package root hold simulate_srpt; engine and
        # analysis hold select_srpt.
        assert len(holders) >= 4
        for module, attr in holders:
            monkeypatch.setattr(module, attr, refuse)
        text = discrepancy_report(sweep)
        assert "[T3.1]" in text
        assert "[T3.4]" in text
        fields = text.split("Field-level mismatches")[1].splitlines()
        assert ["T3.1", "4", "reassign-all", "w_srpt", "9", "10"] in [
            ln.split() for ln in fields
        ]
