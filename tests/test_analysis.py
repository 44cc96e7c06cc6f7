import dataclasses
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import instances
from srptlab import (
    ClassId,
    ClassSpec,
    Instance,
    Job,
    Migration,
    PolicyConfig,
    S3Interpretation,
    brute_force_opt,
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
from srptlab import analysis, engine, reports
from srptlab.analysis import MISMATCH, NOT_APPLICABLE, PASS, ReportRow, summary
from srptlab.cli import main
from srptlab.engine import place, select_srpt
from srptlab.reports import emit_report

OUT = Path(__file__).parent.parent / "out"


def refuse_everywhere(monkeypatch, funcs: dict, message: str) -> list:
    """Make every srptlab namespace holding one of funcs (name -> function)
    raise AssertionError(message) instead; return the (module, name) pairs
    replaced."""

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    holders = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "srptlab"
        for attr, func in funcs.items()
        if getattr(module, attr, None) is func
    ]
    for module, attr in holders:
        monkeypatch.setattr(module, attr, refuse)
    return holders


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
        spec = theorem_spec("T3.2")
        rows = verify_theorem(spec, range(2, 11))
        assert rows
        for row in rows:
            assert row.w_srpt_measured == 2 * row.n - 1
            assert row.w_opt_measured == row.n
            assert row.cr_measured == Fraction(2 * row.n - 1, row.n)
            assert row.verdict == PASS
        assert summary(rows, spec) == PASS

    def test_t35_small_sweep_all_pass(self):
        rows = verify_theorem(theorem_spec("T3.5"), range(2, 11))
        for row in rows:
            assert (row.w_srpt_measured, row.w_opt_measured) == (
                3 * row.n - 1,
                2 * row.n,
            )
            assert row.verdict == PASS

    def test_t31_passes_only_at_n2(self):
        rows = verify_theorem(theorem_spec("T3.1"), range(2, 7))
        by_n = {}
        for row in rows:
            by_n.setdefault(row.n, set()).add(row.verdict)
        assert by_n == {2: {PASS}, 4: {MISMATCH}, 6: {MISMATCH}}
        n4 = [r for r in rows if r.n == 4]
        assert all(r.w_srpt_measured == 9 and r.w_srpt_claimed == 10 for r in n4)
        assert all(r.verdict_opt == PASS for r in rows)

    def test_t31_skips_odd_n(self):
        spec = theorem_spec("T3.1")
        rows = verify_theorem(spec, [3, 5])
        assert rows == ()
        assert summary(rows, spec) == NOT_APPLICABLE

    def test_t34_names_the_passing_interpretation(self):
        rows = verify_theorem(theorem_spec("T3.4"), [2, 3])
        verdicts = {(r.theorem, r.n): r.verdict for r in rows}
        assert verdicts == {
            ("T3.4/n+2", 2): PASS,
            ("T3.4/n+2", 3): PASS,
            ("T3.4/2n", 2): PASS,  # p=2n and p=n+2 coincide at n=2
            ("T3.4/2n", 3): MISMATCH,
        }
        literal_n3 = [
            r for r in rows if r.theorem == "T3.4/2n" and r.n == 3
        ]
        for row in literal_n3:
            assert row.verdict_opt == MISMATCH
            assert (row.w_opt_measured, row.w_opt_claimed) == (6, 5)
            assert (row.w_srpt_measured, row.w_srpt_claimed) == (8, 7)

    def test_measured_cr_at_least_one_and_dominates_mcnaughton(self):
        rows = verify_all(range(2, 13))
        assert all(row.cr_measured >= 1 for row in rows)
        for spec in (theorem_spec("T3.2"), theorem_spec("T3.5")):
            for n in range(2, 13):
                inst = generate(spec.class_spec(n))
                assert zero_release_opt(inst).makespan == mcnaughton(inst).makespan

    def test_sweep_is_deterministic(self):
        assert verify_all(range(2, 8)) == verify_all(range(2, 8))

    def test_refuses_where_indexed_rounds_and_mcnaughton_differ(self):
        # S1 with m=2 at n=3: indexed rounds give 6, McNaughton gives 5.
        spec = dataclasses.replace(theorem_spec("T3.2"), machines=2)
        verify_theorem(spec, [2])
        with pytest.raises(
            ValueError,
            match=r"indexed-round baseline \(6\) differs from the preemptive"
            r" optimum \(5\)",
        ):
            verify_theorem(spec, [3])


class TestMeasure:
    def test_verify_and_sweep_place_no_job(self, monkeypatch, capsys):
        golden = (OUT / "verdicts.csv").read_text().splitlines()
        verdicts = golden[:1] + [ln for ln in golden[1:] if int(ln.split(",")[1]) <= 8]
        sweep = ["class,n,m,policy,w_srpt,w_opt_zero_release,cr_num,cr_den"]
        for n in range(2, 5):
            inst = generate(ClassSpec(ClassId.S5, n=n))
            w_opt = mcnaughton(inst).makespan
            for policy in Migration:
                w = simulate_srpt(inst, PolicyConfig(migration=policy))[0].makespan
                cr = Fraction(w, w_opt)
                sweep.append(
                    f"S5,{n},{inst.machines},{policy.value},{w},{w_opt},"
                    f"{cr.numerator},{cr.denominator}"
                )

        # Verify and sweep run the decision loop alone: they neither place a
        # job nor build a snapshot.
        holders = refuse_everywhere(
            monkeypatch,
            {"simulate_srpt": simulate_srpt, "place": place, "select_srpt": select_srpt},
            "measured by placing jobs on machines or by snapshots",
        )
        assert (engine, "place") in holders
        assert (engine, "select_srpt") in holders
        table = emit_report(verify_all(range(2, 9)), "csv").decode()
        assert table.splitlines() == verdicts
        assert main(
            ["sweep", "--class", "S5", "--n-min", "2", "--n-max", "4", "--format", "csv"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == sweep


class TestClosedForms:
    """Exact makespans and ratios that hold for every size, so each one is
    a gate rather than a sample."""

    @given(n=st.integers(1, 60), m=st.integers(1, 20), p=st.integers(1, 40))
    @example(n=7, m=5, p=2)  # p < m
    @settings(max_examples=300)
    def test_equal_jobs_released_unit_apart(self, n, m, p):
        # SRPT never preempts here, so it is FIFO list scheduling: with
        # n - 1 = K*m + R, the last job starts when its machine frees up at
        # R + K*p, or at its release n - 1 if that is later.
        spec = ClassSpec(ClassId.PARAMETRIC, n, m=m, processing_override=p)
        k, r = divmod(n - 1, m)
        w_srpt, _, _ = analysis.measure(generate(spec))
        assert w_srpt == max(n - 1 + p, r + (k + 1) * p)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
    def test_class_wide_maximum_is_two_minus_one_over_m(self, m):
        # The model's class is N >= m jobs of one length p >= m released
        # unit apart. Against the zero-release optimum max(p, ceil(N*p/m)),
        # the formula above peaks at exactly 2 - 1/m, and only at N = p = m:
        # S1 with m = n, the family of T3.2.
        best, where = Fraction(0), []
        for count in range(m, 40 * m):
            k, r = divmod(count - 1, m)
            for p in range(m, 40 * m):
                w_opt = max(p, -(-count * p // m))
                ratio = Fraction(max(count - 1 + p, r + (k + 1) * p), w_opt)
                if ratio > best:
                    best, where = ratio, [(count, p)]
                elif ratio == best:
                    where.append((count, p))
        assert best == 2 - Fraction(1, m)
        assert where == [(m, m)]
        spec = ClassSpec(ClassId.PARAMETRIC, m, m=m, processing_override=m)
        assert analysis.measure(generate(spec)) == (2 * m - 1, m, best)

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    def test_family_laws(self, n):
        # The formula above with each family's N, m and p substituted; the
        # S1 m=2 odd-n law is checked at n - 1.
        t31, t34 = theorem_spec("T3.1"), theorem_spec("T3.4")
        odd = n - 1
        laws = {
            "T3.1, even n": (t31.class_spec(n), n * n // 2 + 1),
            "S1 m=2, odd n": (t31.class_spec(odd), odd * (odd + 1) // 2),
            "T3.2": (theorem_spec("T3.2").class_spec(n), 2 * n - 1),
            "T3.3": (theorem_spec("T3.3").class_spec(n), 2 * n),
            "T3.4/n+2": (t34.class_spec(n, S3Interpretation.THEOREM_N_PLUS_2), 2 * n + 1),
            "T3.4/2n": (t34.class_spec(n, S3Interpretation.LITERAL_2N), 3 * n - 1),
            "T3.5": (theorem_spec("T3.5").class_spec(n), 3 * n - 1),
            "S5": (ClassSpec(ClassId.S5, n), 5 * n - 1),
        }
        measured = {
            label: analysis.measure(generate(spec))[0] for label, (spec, _) in laws.items()
        }
        assert measured == {label: law for label, (_, law) in laws.items()}

    def test_graham_family_attains_two_minus_one_over_m(self):
        # m jobs of length m - 1 and one of length m, all released at 0:
        # SRPT runs the short ones first and ends at 2m - 1 against m.
        for m in range(2, 65):
            jobs = [Job(i, 0, m - 1) for i in range(1, m + 1)] + [Job(m + 1, 0, m)]
            w_srpt, w_opt, cr = analysis.measure(Instance(tuple(jobs), m))
            assert (w_srpt, w_opt) == (2 * m - 1, m)
            assert cr == Fraction(2 * m - 1, m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_grid_maximum_against_release_respecting_optimum(self, m):
        # Every multiset of 1..5 jobs with release in {0, 1, 2} and length in
        # {1, 2, 3}: 2,001 instances. The worst SRPT ratio against the exact
        # release-respecting optimum is G_m's 2 - 1/m.
        kinds = [(r, p) for r in range(3) for p in range(1, 4)]
        grid = [
            tuple(Job(i, r, p) for i, (r, p) in enumerate(jobs, start=1))
            for size in range(1, 6)
            for jobs in itertools.combinations_with_replacement(kinds, size)
        ]
        assert len(grid) == 2001
        ratios = {}
        for jobs in grid:
            inst = Instance(jobs, m)
            ratios[jobs] = Fraction(
                analysis.measure(inst)[0], brute_force_opt(inst, True).makespan
            )
        g_m = tuple(Job(i, 0, m - 1) for i in range(1, m + 1)) + (Job(m + 1, 0, m),)
        assert max(ratios.values()) == ratios[g_m] == Fraction(2 * m - 1, m)

    @given(inst=instances(max_n=12, max_m=6, max_processing=20, max_arrival=0))
    @settings(max_examples=300)
    def test_zero_release_ratio_is_at_most_two_minus_one_over_m(self, inst):
        # Graham's list-scheduling bound: with no arrivals after 0 SRPT is
        # list scheduling, so C <= W/m + (1 - 1/m) * p_max.
        _, _, cr = analysis.measure(inst)
        assert cr <= 2 - Fraction(1, inst.machines)


class TestBoundCheck:
    def test_t31_rows_stay_under_three_halves(self):
        rows = verify_theorem(theorem_spec("T3.1"), range(2, 21))
        assert all(row.cr_measured <= Fraction(3, 2) for row in rows)


class TestSummary:
    @staticmethod
    def row(theorem, w_srpt_claimed=None):
        """Measured 3 against OPT 2; claimed w_srpt_claimed against 2."""
        claimed = ()
        if w_srpt_claimed is not None:
            claimed = (w_srpt_claimed, 2, Fraction(w_srpt_claimed, 2))
        return ReportRow(theorem, 2, 3, 2, Fraction(3, 2), *claimed)

    def test_summary_counts_the_claims_mismatching_instances(self):
        rows = (
            self.row("T3.4/n+2", 3),
            self.row("T3.4/2n", 4),
            self.row("T3.4/2n", 5),
            self.row("T3.2", 4),
            self.row("S5"),
        )
        assert summary(rows, theorem_spec("T3.4")) == "MISMATCH (2 of 3 instances)"
        assert summary(rows, theorem_spec("T3.2")) == "MISMATCH (1 of 1 instances)"
        assert summary(rows, theorem_spec("T3.5")) == NOT_APPLICABLE
        mismatched = [r.theorem for r in rows if r.verdict == MISMATCH]
        assert mismatched == ["T3.4/2n", "T3.4/2n", "T3.2"]

    def test_summary_passes_when_every_row_agrees(self):
        rows = (self.row("T3.2", 3), self.row("S5"))
        assert summary(rows, theorem_spec("T3.2")) == PASS
        assert [r for r in rows if r.verdict == MISMATCH] == []

    def test_labels_name_each_reading_in_order(self):
        assert theorem_spec("T3.4").labels == ("T3.4/n+2", "T3.4/2n")
        assert theorem_spec("T3.2").labels == ("T3.2",)


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
        holders = refuse_everywhere(
            monkeypatch,
            {
                "simulate_srpt": simulate_srpt,
                "select_srpt": select_srpt,
                "_decisions": engine._decisions,
            },
            "discrepancy_report simulated again",
        )
        # engine and the package root hold simulate_srpt, engine holds
        # select_srpt, and engine and analysis hold the decision loop.
        assert len(holders) >= 4
        assert (analysis, "_decisions") in holders
        text = discrepancy_report(sweep)
        assert "[T3.1]" in text
        assert "[T3.4]" in text
        fields = text.split("Field-level mismatches")[1].splitlines()
        assert ["T3.1", "4", "reassign-all", "w_srpt", "9", "10"] in [
            ln.split() for ln in fields
        ]

    def test_reads_verdicts_without_evaluating_a_claim(self, monkeypatch):
        rows = verify_all(range(2, 9))
        expected = discrepancy_report(rows)

        def refuse(n):
            raise AssertionError("discrepancy_report evaluated a claimed formula")

        def refusing_spec(theorem_id):
            spec = analysis.theorem_spec(theorem_id)
            return dataclasses.replace(spec, claimed_srpt=refuse, claimed_opt=refuse)

        monkeypatch.setattr(reports, "theorem_spec", refusing_spec)
        assert discrepancy_report(rows) == expected

    def test_a_repeated_t31_n_prints_once(self):
        rows = verify_theorem(theorem_spec("T3.1"), [2, 4])
        text = discrepancy_report(rows + rows)
        section = text.split("[T3.1]")[1].split("note:")[0]
        assert [ln.split()[0] for ln in section.splitlines()[2:] if ln.strip()] == [
            "2",
            "4",
        ]
