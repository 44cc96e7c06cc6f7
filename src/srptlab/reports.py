"""Every table srpt-lab writes: the verdict table (pinned CSV schema and an
aligned text view), the measurement-only sweep table, and the discrepancy
report. All of them go through one text-table function and the one CSV
writer, files._csv_text.

A measured row stands for one instance. The migration policy changes no
completion time, so this module alone writes each row once under each
policy label."""

from __future__ import annotations

from fractions import Fraction

from .analysis import MISMATCH, PASS, ReportRow, theorem_spec
from .engine import Migration
from .files import _csv_text
from .oracles import DEFAULT_CEILING, SearchCeilingError, brute_force_opt
from .workloads import generate

CSV_COLUMNS = (
    "theorem",
    "n",
    "policy",
    "w_srpt_measured",
    "w_srpt_claimed",
    "w_opt_measured",
    "w_opt_claimed",
    "cr_measured_num",
    "cr_measured_den",
    "cr_claimed_num",
    "cr_claimed_den",
    "verdict",
)

SWEEP_COLUMNS = (
    "class",
    "n",
    "m",
    "policy",
    "w_srpt",
    "w_opt_zero_release",
    "cr_num",
    "cr_den",
)


def _text_table(header, body, indent: str = "", align=str.ljust) -> list[str]:
    """Columns padded to their widest cell and joined by two spaces, one
    line per row with trailing blanks stripped. The header is left-aligned;
    body cells are padded with align."""
    widths = [max(map(len, column)) for column in zip(header, *body)]

    def line(cells, pad) -> str:
        return indent + "  ".join(pad(c, w) for c, w in zip(cells, widths)).rstrip()

    return [line(header, str.ljust)] + [line(row, align) for row in body]


def _emit(header, rows, cells, fmt: str) -> bytes:
    """The table of rows, each written once under each policy label in the
    header's policy column; cells(row) gives the row's other cells, which
    its lines share. The CSV is written as the lines are made."""
    at = header.index("policy")
    body = (
        c[:at] + (p.value,) + c[at:] for c in map(cells, rows) for p in Migration
    )
    if fmt == "csv":
        return _csv_text(header, body).encode("utf-8")
    if fmt == "text":
        return ("\n".join(_text_table(header, list(body))) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}; use 'text' or 'csv'")


def _cells(row: ReportRow) -> tuple[str, ...]:
    def opt(v) -> str:
        return "" if v is None else str(v)

    return (
        row.theorem,
        str(row.n),
        str(row.w_srpt_measured),
        opt(row.w_srpt_claimed),
        str(row.w_opt_measured),
        opt(row.w_opt_claimed),
        str(row.cr_measured.numerator),
        str(row.cr_measured.denominator),
        opt(row.cr_claimed.numerator if row.cr_claimed is not None else None),
        opt(row.cr_claimed.denominator if row.cr_claimed is not None else None),
        row.verdict,
    )


def emit_report(rows, fmt: str = "text") -> bytes:
    """Render verification rows as bytes, each row once per policy; fmt is
    "text" or "csv".

    Output is byte-deterministic: fixed column order, "\\n" line endings,
    empty cells for missing claimed values.
    """
    return _emit(CSV_COLUMNS, rows, _cells, fmt)


def _sweep_cells(row) -> tuple[str, ...]:
    label, n, m, w_srpt, w_opt, cr = row
    return tuple(map(str, (label, n, m, w_srpt, w_opt, cr.numerator, cr.denominator)))


def emit_sweep(rows, fmt: str = "text") -> bytes:
    """Render measurement-only sweep rows (class, n, m, makespans, CR), each
    row once per policy."""
    return _emit(SWEEP_COLUMNS, rows, _sweep_cells, fmt)


def _format_ratio(r: Fraction | None) -> str:
    if r is None:
        return "-"
    return f"{r.numerator}/{r.denominator}"


T31_ALGEBRA_NOTE = (
    "note: the printed T3.1 ratio simplification (n^2+2)/n^2 does not follow"
    " from the claimed makespans, whose exact quotient is"
    " (n(n+1)/2)/(n^2/2) = (n+1)/n; it is recorded here as not reproduced."
)


def discrepancy_report(rows) -> str:
    """Consolidated text table of every point where the verification rows'
    measurements disagree with a claimed formula.

    Contains a row for every T3.1 n in the rows (agree or differ) with its
    one measured makespan under each policy label and, where the instance
    fits the default search ceiling, the exhaustive release-respecting
    optimum; an interpretation matrix for T3.4; and a field-level listing of
    every mismatch, in row order and then per policy. Every value and
    verdict is read off the rows: nothing is simulated or claimed again.
    No rows give an empty report.
    """
    ns = sorted({r.n for r in rows})
    if not ns:
        return ""
    span = f"{ns[0]}..{ns[-1]}" if len(ns) > 1 else str(ns[0])
    title = f"SRPT claim discrepancies (n = {span})"
    lines = [title, "=" * len(title)]

    t31 = theorem_spec("T3.1")
    (t31_label,) = t31.labels
    t31_rows = {r.n: r for r in rows if r.theorem == t31_label}
    if t31_rows:
        lines.append("")
        lines.append("[T3.1] S1 with m=2: measured vs claimed w_SRPT (even n)")
        body = []
        for n, row in sorted(t31_rows.items()):
            inst = generate(t31.class_spec(n))
            try:
                brute = str(brute_force_opt(inst, True, DEFAULT_CEILING).makespan)
            except SearchCeilingError:
                brute = "-"
            status = "AGREE" if row.verdict_srpt == PASS else "DIFFER"
            measured = [str(row.w_srpt_measured)] * len(Migration)
            body.append([str(n), *measured, brute, str(row.w_srpt_claimed), status])
        header = ["n"] + [p.value for p in Migration] + [
            "brute-force(releases)",
            "claimed",
            "status",
        ]
        lines.extend(_text_table(header, body, "  ", str.rjust))
        lines.append("")
        lines.append(T31_ALGEBRA_NOTE)

    labels = theorem_spec("T3.4").labels
    verdicts = {(r.n, r.theorem): r.verdict for r in rows if r.theorem in labels}
    if verdicts:
        lines.append("")
        lines.append(
            "[T3.4] S3 interpretation check (claimed w_SRPT=2n+1, w_OPT=n+2)"
        )
        body = [
            [str(n)] + [verdicts[(n, label)] for label in labels]
            for n in sorted({n for n, _ in verdicts})
        ]
        lines.extend(_text_table(["n", *labels], body, "  ", str.rjust))

    lines.append("")
    lines.append("Field-level mismatches (all claims, both policies)")
    field_rows = []
    for row in rows:
        fields = (
            ("w_srpt", row.verdict_srpt, str(row.w_srpt_measured), str(row.w_srpt_claimed)),
            ("w_opt", row.verdict_opt, str(row.w_opt_measured), str(row.w_opt_claimed)),
            ("cr", row.verdict_cr, _format_ratio(row.cr_measured), _format_ratio(row.cr_claimed)),
        )
        mismatched = [(f, m, c) for f, verdict, m, c in fields if verdict == MISMATCH]
        for p in Migration:
            field_rows += [[row.theorem, str(row.n), p.value, *f] for f in mismatched]
    if field_rows:
        lines.extend(
            _text_table(
                ["theorem", "n", "policy", "field", "measured", "claimed"],
                field_rows,
                "  ",
                str.rjust,
            )
        )
    else:
        lines.append("  none")
    return "\n".join(lines) + "\n"
