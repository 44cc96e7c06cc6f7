import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from srptlab import Schedule, Segment, cli, gantt, model
from srptlab.cli import main
from srptlab.oracles import OptResult

GOLDEN = Path(__file__).parent / "golden" / "gantt_s1_n2_m2_sticky.txt"
SRC = Path(__file__).resolve().parent.parent / "src"
# A 100,000-character schedule cell or YAML value.
LONG = "x" * 100_000


def run(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def _broken_schedule(inst):
    """Job 1 on machine 1 for one unit too long: a work-conservation breach."""
    job = inst.jobs[0]
    return Schedule.from_segments(inst, [Segment(job.id, 1, 0, job.processing + 1)])


class TestSimulate:
    def test_class_instance(self, capsys):
        code, out, _ = run("simulate", "--class", "S1", "--n", "2", "--m", "2", capsys=capsys)
        assert code == 0
        assert "makespan 3" in out

    def test_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.yaml"
        path.write_text("{jobs: [{arrival: 0, processing: 5}], machines: 1}")
        code, out, _ = run("simulate", "--in", str(path), capsys=capsys)
        assert code == 0
        assert "makespan 5" in out

    def test_gantt_to_stdout_matches_golden(self, capsys):
        code, out, _ = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2",
            "--policy", "sticky", "--gantt", "ascii",
            capsys=capsys,
        )
        assert code == 0
        assert GOLDEN.read_text() in out

    def test_dump_and_svg(self, tmp_path, capsys):
        dump = tmp_path / "sched.csv"
        svg = tmp_path / "sched.svg"
        code, _, _ = run(
            "simulate", "--class", "S4", "--n", "2",
            "--dump", str(dump), "--gantt", "svg", "--out", str(svg),
            capsys=capsys,
        )
        assert code == 0
        assert dump.read_text().startswith("job,machine,start,end")
        assert svg.read_bytes().startswith(b"<svg ")

    def test_dump_and_svg_validate_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        body = model._schedule_violations
        monkeypatch.setattr(
            model, "_schedule_violations", lambda s: calls.append(s) or body(s)
        )
        code, _, _ = run(
            "simulate", "--class", "S5", "--n", "8", "--policy", "reassign-all",
            "--dump", str(tmp_path / "F.csv"),
            "--gantt", "svg", "--out", str(tmp_path / "G.svg"),
            capsys=capsys,
        )
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("style", ["ascii", "svg"])
    def test_long_job_chart_is_refused(self, tmp_path, capsys, style):
        path = tmp_path / "long.yaml"
        path.write_text(
            "machines: 1\njobs: [{id: 1, arrival: 0, processing: 1000000000000}]\n"
        )
        chart = tmp_path / f"long.{style}"
        code, out, err = run(
            "simulate", "--in", str(path), "--gantt", style, "--out", str(chart),
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert "Gantt chart too large" in err
        assert not chart.exists()

    def test_chart_into_a_directory_prints_no_result(self, tmp_path, capsys):
        dump = tmp_path / "sched.csv"
        code, out, err = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2",
            "--dump", str(dump), "--gantt", "ascii", "--out", str(tmp_path),
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not dump.exists()

    def test_invalid_schedule_is_not_dumped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "simulate_srpt", lambda inst, cfg: (_broken_schedule(inst), None)
        )
        dump = tmp_path / "sched.csv"
        code, out, err = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2", "--dump", str(dump),
            capsys=capsys,
        )
        assert code == 1
        assert "cannot dump an invalid schedule" in err
        assert "job 1 received 3 of 2 units" in err
        assert out == ""
        assert not dump.exists()

    def test_svg_to_stdout_is_usage_error(self, capsys):
        code, _, err = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2", "--gantt", "svg",
            capsys=capsys,
        )
        assert code == 1
        assert "usage error" in err

    def test_svg_without_out_fails_before_simulating(self, tmp_path, capsys):
        dump = tmp_path / "sched.csv"
        code, out, err = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2",
            "--dump", str(dump), "--gantt", "svg",
            capsys=capsys,
        )
        assert code == 1
        assert "--gantt svg needs --out PATH" in err
        assert not dump.exists()
        assert "makespan" not in out

    def test_out_without_gantt_fails_before_simulating(self, tmp_path, capsys):
        dump = tmp_path / "sched.csv"
        chart = tmp_path / "chart.txt"
        code, out, err = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2",
            "--dump", str(dump), "--out", str(chart),
            capsys=capsys,
        )
        assert code == 1
        assert "usage error" in err
        assert "--gantt" in err
        assert out == ""
        assert not dump.exists()
        assert not chart.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_dump_and_chart_into_one_file_is_refused(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        # Refused before the instance is loaded: the chart would overwrite
        # the dump.
        def refuse(*args, **kwargs):
            raise AssertionError("instance loaded")

        monkeypatch.setattr(cli, "_load_instance", refuse)
        dump = tmp_path / "f.txt"
        chart = dump if spelling == "same" else tmp_path / "." / "f.txt"
        code, out, err = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2",
            "--dump", str(dump), "--gantt", "ascii", "--out", str(chart),
            capsys=capsys,
        )
        assert code == 1
        assert "usage error" in err
        assert "same file" in err
        assert out == ""
        assert not dump.exists()

    def test_constraint_breach_is_input_error(self, capsys):
        code, _, err = run(
            "simulate", "--class", "parametric", "--n", "2", "--m", "3",
            "--processing-override", "1",
            capsys=capsys,
        )
        assert code == 1
        assert "n >= m" in err

    def test_constraint_enforcement_can_be_disabled(self, capsys):
        code, out, _ = run(
            "simulate", "--class", "parametric", "--n", "2", "--m", "3",
            "--processing-override", "1", "--no-enforce-constraints",
            capsys=capsys,
        )
        assert code == 0
        assert "makespan 2" in out

    TOO_FEW_JOBS = (
        "{jobs: [{arrival: 0, processing: 3}, {arrival: 0, processing: 3}],"
        " machines: 3}"
    )

    @pytest.mark.parametrize(
        "doc",
        [
            TOO_FEW_JOBS,
            '{class: "parametric", n: 2, m: 3, processing_override: 1}',
        ],
        ids=["job-list", "stanza"],
    )
    def test_constraint_breach_in_file_is_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "inst.yaml"
        path.write_text(doc)
        code, out, err = run("simulate", "--in", str(path), capsys=capsys)
        assert code == 1
        assert "n >= m" in err
        assert "--no-enforce-constraints" in err
        assert "enforce_constraints=False" not in err
        assert out == ""

    def test_constraint_breach_in_file_can_be_allowed(self, tmp_path, capsys):
        path = tmp_path / "inst.yaml"
        path.write_text(self.TOO_FEW_JOBS)
        code, out, _ = run(
            "simulate", "--in", str(path), "--no-enforce-constraints", capsys=capsys
        )
        assert code == 0
        assert "makespan 3" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n", "9"),
            ("--m", "5"),
            ("--s3-interpretation", "literal-2n"),
            ("--processing-override", "4"),
        ],
    )
    def test_family_flags_with_in_rejected(self, tmp_path, capsys, flag, value):
        # Refused before the input is read: the instance file does not exist.
        code, out, err = run(
            "simulate", "--in", str(tmp_path / "none.yaml"), flag, value,
            capsys=capsys,
        )
        assert code == 1
        assert "usage error" in err
        assert flag in err
        assert "--class" in err
        assert out == ""

    def test_stanza_file_and_class_dump_the_same_bytes(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text('{class: "S5", n: 8}')
        from_file = tmp_path / "file.csv"
        from_class = tmp_path / "class.csv"
        code, out_file, _ = run(
            "simulate", "--in", str(path), "--dump", str(from_file), capsys=capsys
        )
        assert code == 0
        code, out_class, _ = run(
            "simulate", "--class", "S5", "--n", "8", "--dump", str(from_class),
            capsys=capsys,
        )
        assert code == 0
        assert out_file == out_class
        assert from_file.read_bytes() == from_class.read_bytes()

    def test_in_and_class_together_rejected(self, tmp_path, capsys):
        path = tmp_path / "inst.yaml"
        path.write_text("{jobs: [{arrival: 0, processing: 5}], machines: 1}")
        code, _, err = run(
            "simulate", "--in", str(path), "--class", "S1", "--n", "2", "--m", "2",
            capsys=capsys,
        )
        assert code == 1
        assert "exactly one" in err


class TestOpt:
    def test_indexed_rounds_method(self, capsys):
        code, out, _ = run(
            "opt", "--method", "paper", "--class", "S1", "--n", "4", "--m", "2",
            capsys=capsys,
        )
        assert code == 0
        assert out == "paper-opt makespan 8\n"

    def test_mcnaughton_method(self, capsys):
        code, out, _ = run(
            "opt", "--method", "mcnaughton", "--class", "S1", "--n", "4", "--m", "2",
            capsys=capsys,
        )
        assert code == 0
        assert out == "mcnaughton makespan 8\n"

    def test_brute_with_releases(self, capsys):
        code, out, _ = run(
            "opt", "--method", "brute", "--respect-releases",
            "--class", "S1", "--n", "3", "--m", "2",
            capsys=capsys,
        )
        assert code == 0
        assert out == "brute-force-with-releases makespan 5\n"

    def test_brute_over_ceiling_is_input_error(self, capsys):
        code, _, err = run(
            "opt", "--method", "brute", "--class", "S1", "--n", "8", "--m", "2",
            capsys=capsys,
        )
        assert code == 1
        assert "ceiling" in err

    def test_ceiling_flags_widen_the_search(self, capsys):
        code, out, _ = run(
            "opt", "--method", "brute", "--class", "S1", "--n", "7", "--m", "4",
            "--ceiling-jobs", "7", "--ceiling-work", "49",
            capsys=capsys,
        )
        assert code == 0
        assert out == "brute-force-zero-release makespan 13\n"

    def test_dump_requires_a_witness(self, tmp_path, capsys):
        dump = tmp_path / "w.csv"
        code, out, err = run(
            "opt", "--method", "mcnaughton", "--class", "S1", "--n", "2", "--m", "2",
            "--dump", str(dump),
            capsys=capsys,
        )
        assert code == 1
        assert "witness" in err
        assert "makespan" not in out
        assert not dump.exists()

    def test_invalid_witness_is_not_dumped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "zero_release_opt",
            lambda inst: OptResult(2, _broken_schedule(inst)),
        )
        dump = tmp_path / "w.csv"
        code, out, err = run(
            "opt", "--method", "paper", "--class", "S1", "--n", "2", "--m", "2",
            "--dump", str(dump),
            capsys=capsys,
        )
        assert code == 1
        assert "cannot dump an invalid schedule" in err
        assert "job 1 received 3 of 2 units" in err
        assert out == ""
        assert not dump.exists()

    @pytest.mark.parametrize("method", ["paper", "mcnaughton"])
    def test_respect_releases_needs_brute(self, capsys, method):
        # Both methods zero the releases: they would print 8 for S1 n=4 m=2,
        # whose release-respecting optimum is 9.
        code, out, err = run(
            "opt", "--method", method, "--respect-releases",
            "--class", "S1", "--n", "4", "--m", "2",
            capsys=capsys,
        )
        assert code == 1
        assert "ignores releases" in err
        assert "makespan" not in out

    @pytest.mark.parametrize("method", ["paper", "mcnaughton"])
    @pytest.mark.parametrize(
        "flag", ["--ceiling-jobs", "--ceiling-machines", "--ceiling-work"]
    )
    def test_ceiling_flags_need_brute(self, tmp_path, capsys, method, flag):
        # Refused before the input is read: the instance file does not exist.
        code, out, err = run(
            "opt", "--method", method, flag, "9", "--in", str(tmp_path / "none.txt"),
            capsys=capsys,
        )
        assert code == 1
        assert "usage error" in err
        assert "--method brute" in err
        assert "makespan" not in out

    @pytest.mark.parametrize(
        "flag", ["--ceiling-jobs", "--ceiling-machines", "--ceiling-work"]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_ceiling_flags_must_be_positive(self, tmp_path, capsys, flag, value):
        # Refused before the input is read: the instance file does not exist.
        # A non-integer is a parse-time usage error; SearchCeiling refuses
        # an integer below 1.
        code, out, err = run(
            "opt", "--method", "brute", flag, value, "--in", str(tmp_path / "none.txt"),
            capsys=capsys,
        )
        assert code == 1
        if value == "x":
            assert err.startswith(f"usage error: argument {flag}: invalid int value")
        else:
            field = CEILING_FIELDS[flag]
            assert err == f"error: search ceiling {field} must be >= 1, got {value}\n"
        assert out == ""


CEILING_FIELDS = {
    "--ceiling-jobs": "max_jobs",
    "--ceiling-machines": "max_machines",
    "--ceiling-work": "max_total_work",
}


DEFAULT_SUMMARY = [
    "T3.1: MISMATCH (31 of 32 instances)",
    "T3.2: PASS",
    "T3.3: PASS",
    "T3.4: MISMATCH (62 of 126 instances)",
    "T3.5: PASS",
]


class TestVerify:
    def test_default_range_summary(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code, _, err = run(
            "verify-theorems", "--format", "csv", "--out", str(out), capsys=capsys
        )
        assert code == 2
        assert err.splitlines() == DEFAULT_SUMMARY

    def test_claim_without_applicable_n_is_not_applicable(self, capsys):
        code, _, err = run(
            "verify-theorems", "--n-min", "3", "--n-max", "3", capsys=capsys
        )
        assert code == 2
        assert err.splitlines()[0] == "T3.1: N-A"

    def test_small_range_all_pass_exits_zero(self, capsys):
        code, out, _ = run("verify-theorems", "--n-max", "2", capsys=capsys)
        assert code == 0
        assert "MISMATCH" not in out.split("Field-level")[0]

    def test_mismatches_exit_two(self, capsys):
        code, out, _ = run("verify-theorems", "--n-max", "4", "--format", "csv", capsys=capsys)
        assert code == 2
        assert "T3.1,4,reassign-all,9,10," in out

    def test_out_files(self, tmp_path, capsys):
        table = tmp_path / "report.csv"
        code, _, _ = run(
            "verify-theorems", "--n-max", "3", "--format", "csv", "--out", str(table),
            capsys=capsys,
        )
        assert code == 2
        assert table.read_text().startswith("theorem,n,policy,")
        disc = tmp_path / "report-discrepancies.txt"
        assert "T3.4" in disc.read_text()

    def test_discrepancies_without_out_is_refused(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_all ran")

        monkeypatch.setattr(cli, "verify_all", refuse)
        disc = tmp_path / "d.txt"
        code, out, err = run(
            "verify-theorems", "--n-max", "2", "--discrepancies", str(disc),
            capsys=capsys,
        )
        assert code == 1
        assert err.startswith("usage error: unrecognized arguments: --discrepancies")
        assert out == ""
        assert not disc.exists()

    def test_discrepancies_flag_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # The report's path is derived from --out; no flag names it.
        def refuse(*args, **kwargs):
            raise AssertionError("verify_all ran")

        monkeypatch.setattr(cli, "verify_all", refuse)
        code, out, err = run(
            "verify-theorems", "--n-max", "2", "--out", str(tmp_path / "v.csv"),
            "--discrepancies", str(tmp_path / "d.txt"),
            capsys=capsys,
        )
        assert code == 1
        assert err.startswith("usage error: unrecognized arguments: --discrepancies")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_output_into_missing_directory_is_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_all ran")

        monkeypatch.setattr(cli, "verify_all", refuse)
        code, out, err = run(
            "verify-theorems", "--n-max", "2",
            "--out", str(tmp_path / "missing" / "v.csv"),
            capsys=capsys,
        )
        assert code == 1
        assert err.startswith("error: ")
        assert "no such directory" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_one_file_for_table_and_report_is_refused(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        # The report's derived path is a link to the table, by its absolute
        # path or by a dotted relative one.
        def refuse(*args, **kwargs):
            raise AssertionError("verify_all ran")

        monkeypatch.setattr(cli, "verify_all", refuse)
        table = tmp_path / "report.csv"
        target = table if spelling == "same" else "./report.csv"
        (tmp_path / "report-discrepancies.txt").symlink_to(target)
        code, out, err = run(
            "verify-theorems", "--n-max", "2", "--out", str(table), capsys=capsys
        )
        assert code == 1
        assert err == "usage error: --out and the discrepancy report name the same file\n"
        assert out == ""
        assert not table.exists()


class TestSweep:
    def test_s5_measured_rows(self, capsys):
        code, out, _ = run(
            "sweep", "--class", "S5", "--n-min", "2", "--n-max", "4",
            "--format", "csv",
            capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "class,n,m,policy,w_srpt,w_opt_zero_release,cr_num,cr_den"
        assert "S5,2,2,reassign-all,9,8,9,8" in lines

    def test_fixed_machine_count(self, capsys):
        # At n=3 the indexed-round optimum (6) and McNaughton (5) differ;
        # sweep divides by McNaughton.
        for n, expected in (
            ("4", ["S1,4,2,reassign-all,9,8,9,8"]),
            ("3", ["S1,3,2,reassign-all,6,5,6,5", "S1,3,2,sticky,6,5,6,5"]),
        ):
            code, out, _ = run(
                "sweep", "--class", "S1", "--n-min", n, "--n-max", n, "--m", "2",
                "--format", "csv",
                capsys=capsys,
            )
            assert code == 0
            for line in expected:
                assert line in out.splitlines()


    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("sweep_s5_n2_8", ["--class", "S5", "--n-min", "2", "--n-max", "8"]),
            (
                "sweep_s1_m2_n2_12",
                ["--class", "S1", "--m", "2", "--n-min", "2", "--n-max", "12"],
            ),
        ],
    )
    @pytest.mark.parametrize("fmt, suffix", [("csv", ".csv"), ("text", ".txt")])
    def test_table_matches_golden(self, capsys, golden, argv, fmt, suffix):
        code, out, _ = run("sweep", *argv, "--format", fmt, capsys=capsys)
        assert code == 0
        assert out == (GOLDEN.parent / (golden + suffix)).read_text()

    def test_machine_count_defaults_to_n(self, capsys):
        # S1 needs a machine count; without --m, sweep gives m = n at each n.
        code, out, _ = run(
            "sweep", "--class", "S1", "--n-min", "2", "--n-max", "6", "--format", "csv",
            capsys=capsys,
        )
        assert code == 0
        header, *rows = out.splitlines()
        expected = []
        for k in range(2, 7):
            code, one, _ = run(
                "sweep", "--class", "S1", "--n-min", str(k), "--n-max", str(k),
                "--m", str(k), "--format", "csv",
                capsys=capsys,
            )
            assert code == 0
            assert one.splitlines()[0] == header
            expected += one.splitlines()[1:]
        assert rows == expected
        assert {row.split(",")[1] for row in rows} == {"2", "3", "4", "5", "6"}

    @pytest.mark.parametrize("m", ["abc", "n"])
    def test_bad_machine_count_is_usage_error(self, capsys, monkeypatch, m):
        def refuse(*args, **kwargs):
            raise AssertionError("measure ran")

        monkeypatch.setattr(cli, "measure", refuse)
        code, out, err = run("sweep", "--class", "S5", "--m", m, capsys=capsys)
        assert code == 1
        assert "usage error" in err
        assert "--m" in err
        assert out == ""


class TestRender:
    def test_round_trip_via_files(self, tmp_path, capsys):
        dump = tmp_path / "sched.csv"
        code, _, _ = run(
            "simulate", "--class", "S1", "--n", "2", "--m", "2",
            "--policy", "sticky", "--dump", str(dump),
            capsys=capsys,
        )
        assert code == 0
        code, out, _ = run("render", "--in", str(dump), capsys=capsys)
        assert code == 0
        assert GOLDEN.read_text() in out

    def test_render_with_instance_file(self, tmp_path, capsys):
        inst = tmp_path / "inst.yaml"
        inst.write_text('{class: "S1", n: 2, m: 2}')
        dump = tmp_path / "sched.csv"
        run(
            "simulate", "--in", str(inst), "--policy", "sticky", "--dump", str(dump),
            capsys=capsys,
        )
        code, out, _ = run(
            "render", "--in", str(dump), "--instance", str(inst), capsys=capsys
        )
        assert code == 0
        assert "P1: |J1 J1 . |" in out

    def test_instance_file_is_not_constraint_checked(self, tmp_path, capsys):
        # The one-job, two-machine instance breaches n >= m; render draws it.
        inst = tmp_path / "inst.yaml"
        inst.write_text("{jobs: [{arrival: 0, processing: 2}], machines: 2}")
        dump = tmp_path / "sched.csv"
        dump.write_text("job,machine,start,end\n1,1,0,2\n")
        code, out, _ = run(
            "render", "--in", str(dump), "--instance", str(inst), capsys=capsys
        )
        assert code == 0
        assert "P1: |J1 J1|" in out

    def test_svg_without_out_fails_before_reading(self, tmp_path, capsys):
        code, _, err = run(
            "render", "--in", str(tmp_path / "missing.csv"), "--style", "svg",
            capsys=capsys,
        )
        assert code == 1
        assert "usage error" in err
        assert "--out" in err


SIM = "simulate --class S1 --n 2 --m 2"
OPT = "opt --method paper --class S1 --n 2 --m 2"
VERIFY = "verify-theorems --n-max 2"


class TestOutputTargets:
    """Every command refuses a bad output target before its work runs. {t}
    is a directory holding an instance file, a schedule dump, the empty
    directories sub/ and D-discrepancies.txt/, and a link
    L-discrepancies.txt to L.csv, which does not exist."""

    # (argv, the function whose call is the command's work, the error text)
    CASES = {
        "simulate-missing-dir": (
            SIM + " --gantt ascii --out {t}/C --dump {t}/missing/d.csv",
            "_load_instance",
            "error: {t}/missing/d.csv: no such directory {t}/missing",
        ),
        "simulate-directory": (
            SIM + " --gantt ascii --out {t}/sub",
            "_load_instance",
            "error: --out {t}/sub is a directory",
        ),
        "simulate-one-file": (
            SIM + " --dump {t}/F --gantt ascii --out {t}/./F",
            "_load_instance",
            "usage error: --dump and --out name the same file",
        ),
        "simulate-input": (
            "simulate --in {t}/s.yaml --dump {t}/s.yaml",
            "_load_instance",
            "usage error: --in and --dump name the same file",
        ),
        "opt-missing-dir": (
            OPT + " --dump {t}/missing/w.csv",
            "_load_instance",
            "error: {t}/missing/w.csv: no such directory {t}/missing",
        ),
        "opt-directory": (
            OPT + " --dump {t}/sub",
            "_load_instance",
            "error: --dump {t}/sub is a directory",
        ),
        "opt-one-file": (
            "opt --method paper --in {t}/s.yaml --dump {t}/./s.yaml",
            "_load_instance",
            "usage error: --in and --dump name the same file",
        ),
        "opt-input": (
            "opt --method paper --in {t}/s.yaml --dump {t}/s.yaml",
            "_load_instance",
            "usage error: --in and --dump name the same file",
        ),
        "sweep-missing-dir": (
            "sweep --class S5 --n-max 3 --out {t}/missing/s.txt",
            "generate",
            "error: {t}/missing/s.txt: no such directory {t}/missing",
        ),
        "sweep-directory": (
            "sweep --class S5 --n-max 3 --out {t}/sub",
            "generate",
            "error: --out {t}/sub is a directory",
        ),
        "verify-missing-dir": (
            VERIFY + " --out {t}/missing/A.csv",
            "verify_all",
            "error: {t}/missing/A.csv: no such directory {t}/missing",
        ),
        "verify-directory": (
            VERIFY + " --out {t}/D.csv",
            "verify_all",
            "error: the discrepancy report {t}/D-discrepancies.txt is a directory",
        ),
        "verify-one-file": (
            VERIFY + " --out {t}/L.csv",
            "verify_all",
            "usage error: --out and the discrepancy report name the same file",
        ),
        "render-missing-dir": (
            "render --in {t}/F.csv --out {t}/missing/g.txt",
            "schedule_from_csv",
            "error: {t}/missing/g.txt: no such directory {t}/missing",
        ),
        "render-directory": (
            "render --in {t}/F.csv --out {t}/sub",
            "schedule_from_csv",
            "error: --out {t}/sub is a directory",
        ),
        "render-one-file": (
            "render --in {t}/F.csv --instance {t}/./F.csv",
            "schedule_from_csv",
            "usage error: --in and --instance name the same file",
        ),
        "render-input": (
            "render --in {t}/F.csv --out {t}/F.csv",
            "schedule_from_csv",
            "usage error: --in and --out name the same file",
        ),
        "render-instance": (
            "render --in {t}/F.csv --instance {t}/s.yaml --out {t}/s.yaml",
            "schedule_from_csv",
            "usage error: --instance and --out name the same file",
        ),
    }

    @staticmethod
    def snapshot(root: Path) -> dict:
        return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

    @pytest.mark.parametrize("case", CASES)
    def test_bad_target_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, case
    ):
        argv, work, message = self.CASES[case]

        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, refuse)
        (tmp_path / "s.yaml").write_text('{class: "S1", n: 2, m: 2}')
        (tmp_path / "F.csv").write_text("job,machine,start,end\n1,1,0,2\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "D-discrepancies.txt").mkdir()
        (tmp_path / "L-discrepancies.txt").symlink_to("L.csv")
        before = self.snapshot(tmp_path)
        code, out, err = run(*(a.format(t=tmp_path) for a in argv.split()), capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == message.format(t=tmp_path) + "\n"
        assert self.snapshot(tmp_path) == before


class TestUsageAndErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--class", "S1", "--n", "2", "--m", "2"],
            ["opt", "--method", "paper", "--class", "S1", "--n", "2", "--m", "2"],
        ],
    )
    def test_dump_into_missing_directory_prints_no_result(self, tmp_path, capsys, argv):
        dump = tmp_path / "missing" / "sched.csv"
        code, out, err = run(*argv, "--dump", str(dump), capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not dump.exists()

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run("simulate", capsys=capsys)
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run("simulate", "--frobnicate", capsys=capsys)
        assert code == 1

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run("simulate", "--in", "/nonexistent/x.yaml", capsys=capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "doc, names",
        [
            ("{jobs: [], machines: 1}", "instance must contain at least one job"),
            (
                "{jobs: [{id: 0, arrival: 0, processing: 1}], machines: 1}",
                "job id must be >= 1, got 0",
            ),
            (
                "{jobs: [{id: 1, arrival: 0, processing: 2},"
                " {id: 1, arrival: 1, processing: 2}], machines: 1}",
                "job ids must be unique and contiguous from 1, but id 1 repeats",
            ),
            (
                "{jobs: [{arrival: 0, processing: 1}], machines: 0}",
                "machine count must be >= 1, got 0",
            ),
            (
                "{jobs: [{arrival: 0, processing: 1.5}], machines: 1}",
                "job 1: processing must be an integer, got 1.5",
            ),
            (
                "{jobs: [{arrival: 0.5, processing: 2}], machines: 1}",
                "job 1: arrival must be an integer, got 0.5",
            ),
            (
                "{jobs: [{arrival: 0, processing: 2}], machines: 1.5}",
                "machine count must be an integer, got 1.5",
            ),
            ("{class: S2, n: 2.5}", "class parameter n must be an integer, got 2.5"),
            ("{class: S2, n: 3, m: true}", "machine count must be an integer, got True"),
            ("{class: S9, n: 3}", "'S9' is not a valid ClassId"),
            ("{class: S2, n: 0}", "class parameter n must be >= 1, got 0"),
            ("{class: S2, n: 3, m: 0}", "machine count must be >= 1, got 0"),
            (
                "{class: S2, n: 3, processing_override: 4}",
                "processing_override is only valid for the parametric class",
            ),
            (
                "{class: parametric, n: 3, processing_override: 0}",
                "processing_override must be >= 1, got 0",
            ),
            (
                "{class: S3, n: 3, s3_interpretation: 7}",
                "7 is not a valid S3Interpretation",
            ),
            ("{jobs: 3, machines: 1}", "'jobs' must be a list, got 3"),
        ],
    )
    def test_malformed_instance_is_one_error_line(self, tmp_path, capsys, doc, names):
        path = tmp_path / "inst.yaml"
        path.write_text(doc)
        code, out, err = run("simulate", "--in", str(path), capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert names in err
        assert "Traceback" not in err

    def test_repeated_id_in_a_large_instance_is_one_short_line(self, tmp_path, capsys):
        # 3,000 jobs whose last id repeats id 1: the message names that id,
        # not every id in the file.
        jobs = [f"{{id: {i}, arrival: 0, processing: 1}}" for i in range(1, 3000)]
        jobs.append("{id: 1, arrival: 0, processing: 1}")
        path = tmp_path / "inst.yaml"
        path.write_text("{machines: 1, jobs: [" + ", ".join(jobs) + "]}")
        code, out, err = run(
            "simulate", "--in", str(path), "--no-enforce-constraints", capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert len(err) < 300
        assert "but id 1 repeats" in err

    @pytest.mark.parametrize(
        "argv, text, names",
        [
            pytest.param(
                "simulate --gantt ascii",
                "{class: S1, n: 2, 1: 2, x: 3}",
                "unknown class stanza keys: [1, 'x']",
                id="stanza-mixed-keys",
            ),
            pytest.param(
                "simulate --gantt ascii",
                "{jobs: [{arrival: 0, processing: 2}], machines: 1, 1: 2, x: 3}",
                "unknown instance keys: [1, 'x']",
                id="instance-mixed-keys",
            ),
            pytest.param(
                "simulate --gantt ascii",
                "{jobs: [{arrival: 0, processing: 2, 1: 2, x: 3}], machines: 1}",
                "job #1: unknown keys [1, 'x']",
                id="job-mixed-keys",
            ),
            pytest.param(
                "render",
                "job,machine,start,end\n1,1,0," + "2" * 131_073 + "\n",
                "schedule dump is not valid CSV: field larger than field limit",
                id="dump-oversized-field",
            ),
            # Python 3.10's csv refuses the NUL byte; later versions read it
            # and the cell is refused as a non-integer.
            pytest.param(
                "render",
                "job,machine,start,end\n1,1,0,\x002\n",
                "schedule",
                id="dump-nul-byte",
            ),
            # A 100,000-character value is quoted up to 60 characters.
            pytest.param(
                "render",
                "job,machine,start,end\n1,1,0," + LONG + "\n",
                "schedule row 2 has non-integer cells: ['1', '1', '0', 'xxx",
                id="dump-long-cell",
            ),
            pytest.param(
                "simulate --gantt ascii",
                f'{{jobs: [{{arrival: 0, processing: "{LONG}"}}], machines: 1}}',
                "job 1: processing must be an integer, got 'xxx",
                id="job-long-processing",
            ),
            pytest.param(
                "simulate --gantt ascii",
                "{jobs: [{arrival: 0, processing: -" + "9" * 4000 + "}], machines: 1}",
                "job 1: processing must be >= 1, got -999",
                id="job-long-negative-processing",
            ),
            pytest.param(
                "simulate --gantt ascii",
                f'{{class: S2, n: 3, m: "{LONG}"}}',
                "machine count must be an integer, got 'xxx",
                id="stanza-long-m",
            ),
            pytest.param(
                "simulate --gantt ascii",
                f'{{class: "{LONG}", n: 3}}',
                "... (100002 characters) is not a valid ClassId",
                id="stanza-long-class",
            ),
            pytest.param(
                "simulate --gantt ascii",
                f'{{jobs: "{LONG}", machines: 1}}',
                "'jobs' must be a list, got 'xxx",
                id="jobs-long-string",
            ),
            pytest.param(
                "simulate --gantt ascii",
                f'{{jobs: ["{LONG}"], machines: 1}}',
                "job #1 must be a mapping, got 'xxx",
                id="jobs-list-of-long-string",
            ),
            pytest.param(
                "simulate --gantt ascii",
                "{jobs: [{arrival: 0, processing: 2}], machines: 1, "
                + ", ".join(f"k{i}: 1" for i in range(20_000))
                + "}",
                "unknown instance keys: ['k0', 'k1', 'k10', 'k100', 'k1000']"
                " (and 19995 more)",
                id="instance-many-keys",
            ),
            pytest.param(
                "render",
                f"job,machine,start,end\n{10**6},1,0,1\n",
                "cannot infer job 1 (no segments); pass the instance file",
                id="dump-huge-job-id",
            ),
            pytest.param(
                "render",
                "job,machine,start,end\n"
                + "".join(f"{j},1,{j},{j + 1}\n" for j in range(1, 2001) if j != 7),
                "cannot infer job 7 (no segments); pass the instance file",
                id="dump-many-jobs-one-gap",
            ),
            # 3,000 jobs all on machine 1 over [0,1): one overlap message per
            # segment after the first, of which the refusal names five.
            pytest.param(
                "render",
                "job,machine,start,end\n" + "".join(f"{j},1,0,1\n" for j in range(1, 3001)),
                "machine 1 overlap on [0,1) (and 2994 more)",
                id="dump-all-overlap",
            ),
            pytest.param(
                "render --style svg",
                "job,machine,start,end\n1,100,0,1\n",
                "SVG Gantt chart too large: 100 machines x makespan 1 = 100 cells,"
                " limit 99",
                id="dump-svg-over-cell-limit",
            ),
        ],
    )
    def test_malformed_input_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, argv, text, names
    ):
        monkeypatch.setattr(gantt, "MAX_CELLS", 99)
        src, out = tmp_path / "input", tmp_path / "chart"
        src.write_text(text)
        code, stdout, err = run(
            *argv.split(), "--in", str(src), "--out", str(out), capsys=capsys
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert len(err) < 300
        assert names in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("m", ["0", "-2"])
    @pytest.mark.parametrize("command", ["simulate", "opt", "sweep"])
    def test_machine_count_below_one_is_one_model_error(
        self, capsys, monkeypatch, command, m
    ):
        # ClassSpec is the one check of --m, so all three commands say the
        # same; sweep measures nothing.
        def refuse(*args, **kwargs):
            raise AssertionError("measure ran")

        monkeypatch.setattr(cli, "measure", refuse)
        argv = {
            "simulate": ["simulate", "--n", "2"],
            "opt": ["opt", "--method", "paper", "--n", "2"],
            "sweep": ["sweep"],
        }[command]
        code, out, err = run(*argv, "--class", "S1", "--m", m, capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: machine count must be >= 1, got {m}\n"

    def test_many_distinct_lengths_are_one_short_line(self, tmp_path, capsys):
        # 3,000 distinct lengths: the refusal names five and counts the rest.
        jobs = [f"{{arrival: 0, processing: {i}}}" for i in range(1, 3001)]
        path = tmp_path / "inst.yaml"
        path.write_text("{machines: 1, jobs: [" + ", ".join(jobs) + "]}")
        code, out, err = run("opt", "--method", "paper", "--in", str(path), capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert len(err) < 300
        assert "(saw [1, 2, 3, 4, 5] (and 2995 more))" in err


def _readme_examples() -> list[tuple[list[str], str]]:
    """README's `$ srpt-lab ...` examples: (argv, the output printed below)."""
    lines = (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ srpt-lab "):
            output = []
            for out_line in lines[i + 1 :]:
                if not out_line or out_line.startswith("```"):
                    break
                output.append(out_line + "\n")
            examples.append((shlex.split(line)[2:], "".join(output)))
    return examples


def test_readme_examples_print_what_readme_shows(capsys):
    examples = _readme_examples()
    assert len(examples) == 2
    for argv, expected in examples:
        code, out, _ = run(*argv, capsys=capsys)
        assert code == 0
        assert out == expected


def _child_env() -> dict:
    # The child interpreter does not inherit pytest's pythonpath setting.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "srptlab", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "verify-theorems" in proc.stdout


def test_cli_import_loads_no_yaml():
    # YAML is parsed only when an instance file is read.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, srptlab.cli; assert 'yaml' not in sys.modules"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_closed_stdout_pipe_exits_quietly():
    # The text verdicts plus the discrepancy report are far larger than a pipe
    # buffer, so the child is still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "srptlab", "verify-theorems", "--format", "text"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b""
