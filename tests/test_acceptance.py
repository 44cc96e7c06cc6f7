"""Acceptance gate: every criterion as one test with one printed verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole gate targets well under a minute. All comparisons are
integer or exact-rational equality -- there are no tolerances to tune.

The expected outcome of the full default verify run is exit code 2 with a
documented mismatch set: the T3.1 w_SRPT/CR formulas for even n >= 4 and
the literal-2n reading of T3.4 for n >= 3. Everything else passes.
"""

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from srptlab import (
    ClassId,
    ClassSpec,
    Instance,
    Job,
    Migration,
    PolicyConfig,
    brute_force_opt,
    discrepancy_report,
    generate,
    mcnaughton,
    simulate_srpt,
    theorem_spec,
    validate_schedule,
    verify_all,
    zero_release_opt,
)
from srptlab.analysis import MISMATCH, PASS
from srptlab.cli import main
from srptlab.reports import emit_report

FULL_RANGE = range(2, 65)
POLICIES = (Migration.REASSIGN_ALL, Migration.STICKY)
OUT = Path(__file__).parent.parent / "out"


@pytest.fixture(scope="module")
def sweep():
    """The default sweep, computed once for every criterion that reads it."""
    return verify_all(FULL_RANGE)


def _report(sweep, theorem_id):
    """The sweep's rows for one claim, every reading included."""
    spec = theorem_spec(theorem_id)
    return tuple(r for r in sweep if r.theorem in spec.labels)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{label}] FAIL")
                raise
            print(f"[{label}] PASS")

        return wrapper

    return deco


def _assert_valid(schedule):
    assert validate_schedule(schedule) == []


@criterion("C1 T3.2 sweep n=2..64: w_SRPT=2n-1, w_OPT=n, CR=(2n-1)/n exactly")
def test_c1_claim_t32_sweep(sweep):
    report = _report(sweep, "T3.2")
    seen_ns = set()
    for row in report:
        n = row.n
        seen_ns.add(n)
        assert row.w_srpt_measured == 2 * n - 1
        assert row.w_opt_measured == n
        assert row.cr_measured == Fraction(2 * n - 1, n)
        assert row.verdict == PASS
    assert seen_ns == set(FULL_RANGE)


@criterion("C2 T3.3 sweep n=2..64: w_SRPT=2n, w_OPT=n+1, CR=2n/(n+1) exactly")
def test_c2_claim_t33_sweep(sweep):
    report = _report(sweep, "T3.3")
    seen_ns = set()
    for row in report:
        n = row.n
        seen_ns.add(n)
        assert row.w_srpt_measured == 2 * n
        assert row.w_opt_measured == n + 1
        assert row.cr_measured == Fraction(2 * n, n + 1)
        assert row.verdict == PASS
    assert seen_ns == set(FULL_RANGE)


@criterion("C3 T3.5 sweep n=2..64: w_SRPT=3n-1, w_OPT=2n, CR=(3n-1)/(2n) exactly")
def test_c3_claim_t35_sweep(sweep):
    report = _report(sweep, "T3.5")
    seen_ns = set()
    for row in report:
        n = row.n
        seen_ns.add(n)
        assert row.w_srpt_measured == 3 * n - 1
        assert row.w_opt_measured == 2 * n
        assert row.cr_measured == Fraction(3 * n - 1, 2 * n)
        assert row.verdict == PASS
    assert seen_ns == set(FULL_RANGE)


@criterion(
    "C4 T3.4 dual check: p=n+2 reproduces 2n+1/(n+2); literal p=2n flags OPT"
    " MISMATCH; default verify exits 2 with exactly the documented mismatches"
)
def test_c4_claim_t34_dual_check(sweep, tmp_path, capsys):
    report = _report(sweep, "T3.4")
    alt = [r for r in report if r.theorem == "T3.4/n+2"]
    literal = [r for r in report if r.theorem == "T3.4/2n"]

    assert {r.n for r in alt} == set(FULL_RANGE)
    for row in alt:
        assert row.w_srpt_measured == 2 * row.n + 1
        assert row.w_opt_measured == row.n + 2
        assert row.verdict == PASS

    for row in literal:
        if row.n == 2:
            assert row.verdict == PASS  # p=2n coincides with p=n+2 at n=2
        else:
            assert row.verdict_opt == MISMATCH
            assert row.w_opt_measured == 2 * row.n  # mcnaughton agrees, claim says n+2
            inst = generate(theorem_spec("T3.4").class_spec(row.n))
            assert mcnaughton(inst).makespan == 2 * row.n

    # Full default verify run: exit code 2 and exactly the documented set.
    out = tmp_path / "report.csv"
    code = main(["verify-theorems", "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == 2

    expected = {("T3.1", n) for n in FULL_RANGE if n % 2 == 0 and n >= 4}
    expected |= {("T3.4/2n", n) for n in FULL_RANGE if n >= 3}
    actual = {(r.theorem, r.n) for r in sweep if r.verdict == MISMATCH}
    assert actual == expected


@criterion(
    "C5 T3.1: exact 3/2 at n=2; CR<=3/2 for even n<=64; a discrepancy row"
    " for every even n where measured w_SRPT differs from n(n+1)/2"
)
def test_c5_claim_t31(sweep):
    spec = theorem_spec("T3.1")
    report = _report(sweep, "T3.1")

    (row,) = [r for r in report if r.n == 2]
    assert row.w_srpt_measured == 3
    assert row.w_opt_measured == 2
    assert row.cr_measured == Fraction(3, 2)
    assert row.verdict == PASS
    csv_n2 = [
        ln for ln in emit_report(report, "csv").decode().splitlines()
        if ln.startswith("T3.1,2,")
    ]
    assert csv_n2 == [f"T3.1,2,{p.value},3,3,2,2,3,2,3,2,PASS" for p in POLICIES]

    assert all(row.cr_measured <= Fraction(3, 2) for row in report)

    text = discrepancy_report(sweep)
    differing = set()
    for row in report:
        if row.w_srpt_measured != row.w_srpt_claimed:
            differing.add(row.n)
    assert differing == {n for n in FULL_RANGE if n % 2 == 0 and n >= 4}
    t31_section = text.split("[T3.4]")[0]
    for n in sorted(differing):
        line = next(
            ln for ln in t31_section.splitlines() if ln.strip().startswith(f"{n} ")
        )
        cells = line.split()
        assert cells[-1] == "DIFFER"
        assert cells[-2] == str(spec.claimed_srpt(n))


@criterion(
    "C6 oracle cross-validation: brute(zero)=mcnaughton exhaustively for"
    " n<=5, m<=3, T in 1..4; SRPT >= brute(releases) on 1000 sampled instances"
)
def test_c6_oracle_cross_validation():
    # Exhaustive over processing-time multisets (makespans are permutation
    # invariant with zero releases, so multisets cover every instance).
    checked = 0
    for n in range(1, 6):
        for times in itertools.combinations_with_replacement(range(1, 5), n):
            jobs = tuple(Job(i + 1, 0, p) for i, p in enumerate(times))
            for m in range(1, 4):
                inst = Instance(jobs=jobs, machines=m)
                brute = brute_force_opt(inst, respect_releases=False)
                assert brute.makespan == mcnaughton(inst).makespan, (times, m)
                _assert_valid(brute.schedule)
                checked += 1
    assert checked == 375

    rng = random.Random(1789)
    for _ in range(1000):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        jobs = tuple(
            Job(i + 1, rng.randint(0, 4), rng.randint(1, 4)) for i in range(n)
        )
        inst = Instance(jobs=jobs, machines=m)
        schedule, _ = simulate_srpt(inst)
        best = brute_force_opt(inst, respect_releases=True)
        assert schedule.makespan >= best.makespan, inst
        _assert_valid(schedule)
        _assert_valid(best.schedule)


@criterion("C7 every schedule produced by any engine validates cleanly")
def test_c7_schedule_validity_everywhere():
    specs = [ClassSpec(ClassId.S1, n=n, m=2) for n in range(2, 11)]
    specs += [ClassSpec(ClassId.S1, n=n, m=n) for n in range(1, 9)]
    specs += [ClassSpec(cid, n=n) for cid in (ClassId.S2, ClassId.S3, ClassId.S4, ClassId.S5) for n in range(1, 9)]
    specs += [
        ClassSpec(ClassId.S3, n=n, s3_interpretation="theorem-n-plus-2")
        for n in range(1, 9)
    ]
    for spec in specs:
        inst = generate(spec)
        for policy in POLICIES:
            schedule, _ = simulate_srpt(inst, PolicyConfig(migration=policy))
            _assert_valid(schedule)
        if len({j.processing for j in inst.jobs}) == 1:
            _assert_valid(zero_release_opt(inst).schedule)

    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 5)
        jobs = tuple(
            Job(i + 1, rng.randint(0, 5), rng.randint(1, 5)) for i in range(n)
        )
        inst = Instance(jobs=jobs, machines=rng.randint(1, 4))
        for policy in POLICIES:
            schedule, _ = simulate_srpt(inst, PolicyConfig(migration=policy))
            _assert_valid(schedule)


@criterion(
    "C8 determinism: S1 n=2 m=2 ASCII Gantt and the default verify CSV are"
    " byte-identical across two consecutive runs and to the goldens in out/"
)
def test_c8_determinism_and_golden_files(sweep, tmp_path, capsys):
    gantt_paths = []
    for i in range(2):
        path = tmp_path / f"gantt_{i}.txt"
        code = main(
            [
                "simulate", "--class", "S1", "--n", "2", "--m", "2",
                "--policy", "sticky", "--gantt", "ascii", "--out", str(path),
            ]
        )
        assert code == 0
        gantt_paths.append(path)
    capsys.readouterr()
    first, second = (p.read_bytes() for p in gantt_paths)
    assert first == second
    golden = Path(__file__).parent / "golden" / "gantt_s1_n2_m2_sticky.txt"
    assert first == golden.read_bytes()

    csv_paths = []
    for i in range(2):
        path = tmp_path / f"verify_{i}.csv"
        code = main(["verify-theorems", "--format", "csv", "--out", str(path)])
        assert code == 2  # the documented mismatch set is non-empty
        csv_paths.append(path)
    capsys.readouterr()
    a, b = (p.read_bytes() for p in csv_paths)
    assert a == b
    disc_a = (tmp_path / "verify_0-discrepancies.txt").read_bytes()
    disc_b = (tmp_path / "verify_1-discrepancies.txt").read_bytes()
    assert disc_a == disc_b
    assert a == (OUT / "verdicts.csv").read_bytes()
    assert disc_a == (OUT / "verdicts-discrepancies.txt").read_bytes()
    assert emit_report(sweep, "text") == (OUT / "verdicts.txt").read_bytes()


@criterion(
    "C9 widening the sweep to n=2..128 leaves every n<=64 verdict row"
    " byte-identical to out/verdicts.csv"
)
def test_c9_wider_range_keeps_the_default_verdicts():
    wide = emit_report(verify_all(range(2, 129)), "csv").decode().splitlines()
    assert max(int(ln.split(",")[1]) for ln in wide[1:]) == 128
    narrowed = wide[:1] + [ln for ln in wide[1:] if int(ln.split(",")[1]) <= 64]
    assert narrowed == (OUT / "verdicts.csv").read_text().splitlines()
