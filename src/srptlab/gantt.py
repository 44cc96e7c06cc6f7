"""Gantt rendering of schedules: machine-per-row timing diagrams.

ASCII: one cell per time unit per machine row, "J<id>" for a running job
and "." for idle, each padded to the widest job label and wrapped in bars,
with an integer time axis underneath whose ticks line up with the cells.
SVG: one rect per execution segment at a fixed pixels-per-unit scale.
Both renderers are byte-deterministic for a given schedule. Both write
encoded bytes into one byte buffer, one machine row (ASCII) or one segment
(SVG) at a time, so peak memory is about the size of the chart. Their output
grows with the machine rows and the makespan, not with the segment count, so
render_gantt refuses a chart of more than MAX_CELLS machine x time cells, or
an SVG axis longer than SVG_MAX_UNITS, before drawing it.
"""

from __future__ import annotations

import io
from typing import Callable

from .model import Schedule, Segment, _refuse_invalid

SVG_UNIT = 24  # horizontal pixels per time unit
SVG_ROW = 26  # machine row height
SVG_GAP = 6
SVG_LEFT = 48  # label gutter
SVG_TOP = 12
# Size limits: both charts draw one row per machine across the makespan, and
# the SVG axis two elements per time unit. S5 at n = 96 needs 45,984 cells and
# 479 units.
MAX_CELLS = 1_000_000
SVG_MAX_UNITS = 50_000
SVG_PALETTE = (
    "#8dd3c7",
    "#ffffb3",
    "#bebada",
    "#fb8072",
    "#80b1d3",
    "#fdb462",
    "#b3de69",
    "#fccde5",
)


def render_gantt(s: Schedule, style: str = "ascii") -> bytes:
    """Render a validated schedule; an unknown style is refused first, then
    invalid schedules with their first violations, and charts over the size
    limits with their size."""
    if style not in ("ascii", "svg"):
        raise ValueError(f"unknown gantt style {style!r}; use 'ascii' or 'svg'")
    _refuse_invalid(s, "render")
    if style == "svg" and s.makespan > SVG_MAX_UNITS:
        raise ValueError(
            f"SVG Gantt chart too large: makespan {s.makespan} time units,"
            f" limit {SVG_MAX_UNITS}"
        )
    cells = s.instance.machines * s.makespan
    if cells > MAX_CELLS:
        raise ValueError(
            f"{style.upper()} Gantt chart too large: {s.instance.machines} machines"
            f" x makespan {s.makespan} = {cells} cells, limit {MAX_CELLS}"
        )
    buf = io.BytesIO()
    render = _render_ascii if style == "ascii" else _render_svg
    render(s, buf.write)
    return buf.getvalue()


def _render_ascii(s: Schedule, write: Callable[[bytes], object]) -> None:
    # Every cell, idle "." included, is padded to the widest job label, so
    # cell t starts in the column of tick t.
    width = max(len(f"J{job.id}") for job in s.instance.jobs)
    idle = ".".ljust(width)
    machines = range(1, s.instance.machines + 1)
    label_width = max(len(f"P{m}:") for m in machines) + 1
    rows: list[list[Segment]] = [[] for _ in machines]
    for seg in s.segments:
        rows[seg.machine - 1].append(seg)
    for m, segments in zip(machines, rows):
        cells = [idle] * s.makespan
        for job_id, _, start, end in segments:
            cells[start:end] = [f"J{job_id}".ljust(width)] * (end - start)
        label = f"P{m}:".ljust(label_width)
        write(f"{label}|{' '.join(cells)}|\n".encode("utf-8"))

    # Tick row under the cells when every tick number fits a cell, leaving a
    # space before the next; otherwise a flat integer listing.
    if len(str(s.makespan)) <= width:
        ticks = "".join(str(t).ljust(width + 1) for t in range(s.makespan + 1))
        write((" " * (label_width + 1) + ticks.rstrip() + "\n").encode("utf-8"))
    else:
        flat = " ".join(str(t) for t in range(s.makespan + 1))
        write(f"t: {flat}\n".encode("utf-8"))


def _render_svg(s: Schedule, write: Callable[[bytes], object]) -> None:
    m_count = s.instance.machines
    width = SVG_LEFT + s.makespan * SVG_UNIT + SVG_UNIT
    height = SVG_TOP + m_count * (SVG_ROW + SVG_GAP) + 40
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{width}" height="{height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
    )
    write(header.encode("utf-8"))
    rows = [SVG_TOP + m * (SVG_ROW + SVG_GAP) for m in range(m_count)]
    for m, y in enumerate(rows, start=1):
        write(
            f'<text x="8" y="{y + SVG_ROW - 8}" font-family="monospace"'
            f' font-size="14">P{m}</text>\n'.encode("utf-8")
        )
    # One write per segment: its rect and its label, as two lines. The parts
    # fixed by the machine row and by the job's colour are formatted once,
    # leaving the x, width and label fields per segment.
    rect_y = [f'" y="{y}" width="' for y in rows]
    label_y = [
        f'" y="{y + SVG_ROW - 8}" font-family="monospace" font-size="12"'
        ' text-anchor="middle">J'
        for y in rows
    ]
    fills = [
        f'" height="{SVG_ROW}" fill="{fill}" stroke="black"/>\n<text x="'
        for fill in SVG_PALETTE
    ]
    colours = len(SVG_PALETTE)
    for job_id, machine, start, end in s.segments:
        x = SVG_LEFT + start * SVG_UNIT
        w = (end - start) * SVG_UNIT
        write(
            f'<rect x="{x}{rect_y[machine - 1]}{w}{fills[(job_id - 1) % colours]}'
            f"{x + w // 2}{label_y[machine - 1]}{job_id}</text>\n".encode("utf-8")
        )
    axis_y = SVG_TOP + m_count * (SVG_ROW + SVG_GAP) + 8
    write(
        f'<line x1="{SVG_LEFT}" y1="{axis_y}" x2="{SVG_LEFT + s.makespan * SVG_UNIT}"'
        f' y2="{axis_y}" stroke="black"/>\n'.encode("utf-8")
    )
    for t in range(s.makespan + 1):
        x = SVG_LEFT + t * SVG_UNIT
        write(
            f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 5}" stroke="black"/>\n'
            f'<text x="{x}" y="{axis_y + 18}" font-family="monospace" font-size="10"'
            f' text-anchor="middle">{t}</text>\n'.encode("utf-8")
        )
    write(b"</svg>\n")
