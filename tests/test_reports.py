import pytest

from srptlab import theorem_spec, verify_all, verify_theorem
from srptlab.reports import CSV_COLUMNS, emit_report, emit_sweep

EXPECTED_HEADER = (
    "theorem,n,policy,w_srpt_measured,w_srpt_claimed,w_opt_measured,"
    "w_opt_claimed,cr_measured_num,cr_measured_den,cr_claimed_num,"
    "cr_claimed_den,verdict"
)


def test_csv_header_is_pinned():
    assert ",".join(CSV_COLUMNS) == EXPECTED_HEADER
    data = emit_report((), "csv")
    assert data == (EXPECTED_HEADER + "\n").encode()


def test_t32_n2_csv_row():
    report = verify_theorem(theorem_spec("T3.2"), [2])
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[1] == "T3.2,2,reassign-all,3,3,2,2,3,2,3,2,PASS"
    assert lines[2] == "T3.2,2,sticky,3,3,2,2,3,2,3,2,PASS"


def test_t33_n3_values():
    report = verify_theorem(theorem_spec("T3.3"), [3])
    row = report[0]
    assert (row.w_srpt_measured, row.w_opt_measured) == (6, 4)
    assert (row.cr_measured.numerator, row.cr_measured.denominator) == (3, 2)
    assert row.verdict == "PASS"


def test_s5_rows_have_empty_claimed_cells():
    sweep = verify_all([2])
    csv_lines = emit_report(sweep, "csv").decode().splitlines()
    s5 = [ln for ln in csv_lines if ln.startswith("S5,")]
    assert s5 == [
        "S5,2,reassign-all,9,,8,,9,8,,,N-A",
        "S5,2,sticky,9,,8,,9,8,,,N-A",
    ]


def test_text_table_has_same_cells():
    report = verify_theorem(theorem_spec("T3.2"), [2])
    text = emit_report(report, "text").decode()
    lines = text.splitlines()
    assert lines[0].split() == list(CSV_COLUMNS)
    assert lines[1].split() == [
        "T3.2", "2", "reassign-all", "3", "3", "2", "2", "3", "2", "3", "2", "PASS",
    ]


def test_emit_is_byte_deterministic():
    sweep = verify_all(range(2, 7))
    assert emit_report(sweep, "csv") == emit_report(sweep, "csv")
    assert emit_report(sweep, "text") == emit_report(sweep, "text")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report((), "html")


def test_emit_sweep_formats():
    from srptlab import ClassId, ClassSpec, generate
    from srptlab.analysis import measure

    inst = generate(ClassSpec(ClassId.S5, n=2))
    w_srpt, w_opt, cr = measure(inst)
    rows = [("S5", 2, 2, w_srpt, w_opt, cr)]
    csv_out = emit_sweep(rows, "csv").decode().splitlines()
    assert csv_out == [
        "class,n,m,policy,w_srpt,w_opt_zero_release,cr_num,cr_den",
        "S5,2,2,reassign-all,9,8,9,8",
        "S5,2,2,sticky,9,8,9,8",
    ]
    text_out = emit_sweep(rows, "text").decode()
    assert "reassign-all" in text_out
