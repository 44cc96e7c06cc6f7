import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import families, instances
from srptlab import (
    ClassId,
    ClassSpec,
    Instance,
    Job,
    Migration,
    PolicyConfig,
    Schedule,
    Segment,
    generate,
    simulate_srpt,
    validate_schedule,
)
from srptlab import gantt
from srptlab.files import schedule_to_csv
from srptlab.gantt import render_gantt

GOLDEN = Path(__file__).parent / "golden" / "gantt_s1_n2_m2_sticky.txt"
SVG_GOLDEN = Path(__file__).parent / "golden" / "gantt_s5_n8_reassign.svg"


def _reference_ascii(s: Schedule) -> bytes:
    """Reference ASCII chart: one (machine, t) -> label cell per occupied
    time unit, read back row by row."""
    width = max(len(f"J{job.id}") for job in s.instance.jobs)
    grid = {}
    for job_id, machine, start, end in s.segments:
        for t in range(start, end):
            grid[(machine, t)] = f"J{job_id}".ljust(width)
    machines = range(1, s.instance.machines + 1)
    label_width = max(len(f"P{m}:") for m in machines) + 1
    lines = []
    for m in machines:
        cells = [grid.get((m, t), ".".ljust(width)) for t in range(s.makespan)]
        lines.append(f"P{m}:".ljust(label_width) + "|" + " ".join(cells) + "|")
    if len(str(s.makespan)) <= width:
        ticks = "".join(str(t).ljust(width + 1) for t in range(s.makespan + 1))
        lines.append(" " * (label_width + 1) + ticks.rstrip())
    else:
        lines.append("t: " + " ".join(str(t) for t in range(s.makespan + 1)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _peak_render_bytes(schedule: Schedule, style: str) -> tuple[int, int]:
    """Peak traced allocation of one render of an already validated schedule,
    and the chart's length."""
    assert validate_schedule(schedule) == []
    tracemalloc.start()
    try:
        chart = render_gantt(schedule, style)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(chart)


def _hand_trace_schedule() -> Schedule:
    # J1 on P1 over [0,2), J2 on P2 over [1,3): the S1 n=2 m=2 trace.
    inst = generate(ClassSpec(ClassId.S1, n=2, m=2))
    s = Schedule.from_segments(inst, [Segment(1, 1, 0, 2), Segment(2, 2, 1, 3)])
    assert validate_schedule(s) == []
    return s


class TestAscii:
    def test_golden_bytes(self):
        assert render_gantt(_hand_trace_schedule(), "ascii") == GOLDEN.read_bytes()

    def test_golden_rows(self):
        text = render_gantt(_hand_trace_schedule(), "ascii").decode()
        lines = text.splitlines()
        assert lines[0] == "P1: |J1 J1 . |"
        assert lines[1] == "P2: |.  J2 J2|"
        assert lines[2].split() == ["0", "1", "2", "3"]

    def test_sticky_simulation_reproduces_the_golden(self):
        inst = generate(ClassSpec(ClassId.S1, n=2, m=2))
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=Migration.STICKY))
        assert render_gantt(schedule, "ascii") == GOLDEN.read_bytes()

    def test_idle_machine_row_is_all_dots(self):
        inst = Instance(jobs=(Job(1, 0, 7),), machines=2)
        schedule, _ = simulate_srpt(inst)
        lines = render_gantt(schedule, "ascii").decode().splitlines()
        assert lines[1] == "P2: |.  .  .  .  .  .  . |"

    def test_rendering_is_deterministic(self):
        schedule, _ = simulate_srpt(generate(ClassSpec(ClassId.S4, n=3)))
        assert render_gantt(schedule, "ascii") == render_gantt(schedule, "ascii")

    def test_ticks_wider_than_a_cell_fall_back_to_flat_axis(self):
        # A "J1" cell is 2 columns wide, so tick 99 fits it and tick 100
        # would run into the next.
        schedule, _ = simulate_srpt(Instance(jobs=(Job(1, 0, 100),), machines=1))
        text = render_gantt(schedule, "ascii").decode()
        assert text.splitlines()[-1].startswith("t: 0 1 2 ")
        schedule, _ = simulate_srpt(Instance(jobs=(Job(1, 0, 99),), machines=1))
        text = render_gantt(schedule, "ascii").decode()
        assert text.splitlines()[-1].split()[-2:] == ["98", "99"]

    @pytest.mark.parametrize("migration", list(Migration))
    def test_every_cell_starts_in_its_tick_column(self, migration):
        # Mixed label widths (J9 next to J10) and idle cells included.
        for spec in families(range(1, 17)):
            cfg = PolicyConfig(migration=migration)
            schedule, _ = simulate_srpt(generate(spec), cfg)
            label = {}
            for job_id, machine, start, end in schedule.segments:
                for t in range(start, end):
                    label[(machine, t)] = f"J{job_id}"
            *rows, axis = render_gantt(schedule, "ascii").decode().splitlines()
            ticks = {int(m.group()): m.start() for m in re.finditer(r"\d+", axis)}
            assert sorted(ticks) == list(range(schedule.makespan + 1)), spec
            assert len({len(row) for row in rows}) == 1, spec
            for machine, row in enumerate(rows, 1):
                for t in range(schedule.makespan):
                    col = ticks[t]
                    assert row[col - 1] in "| ", (spec, machine, t)
                    cell = re.match(r"[^ |]+", row[col:]).group()
                    assert cell == label.get((machine, t), "."), (spec, machine, t)

    @settings(max_examples=150, deadline=None)
    @given(
        inst=st.one_of(
            # Up to 12 jobs mixes J9 with J10; long jobs on few machines give
            # makespans past 99, where the axis falls back to a flat listing.
            instances(max_n=12, max_m=4, max_processing=40, max_arrival=12),
            st.sampled_from(list(families((1, 2, 3, 5, 8, 13, 40)))).map(generate),
        ),
        migration=st.sampled_from(list(Migration)),
    )
    def test_rows_match_the_cell_dict_reference(self, inst, migration):
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=migration))
        assert render_gantt(schedule, "ascii") == _reference_ascii(schedule)

    def test_chart_at_the_cell_limit_peaks_near_its_size(self):
        # S5 n=440 sticky: 440 machines x makespan 2199 = 967,560 cells, a
        # 4.85 MB chart.
        inst = generate(ClassSpec(ClassId.S5, n=440))
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=Migration.STICKY))
        assert inst.machines * schedule.makespan <= gantt.MAX_CELLS
        peak, size = _peak_render_bytes(schedule, "ascii")
        assert peak <= 2 * size, (peak, size)


class TestSvg:
    def test_svg_shape(self):
        schedule = _hand_trace_schedule()
        svg = render_gantt(schedule, "svg").decode()
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count('font-size="12"') == len(schedule.segments)  # one label per rect
        # axis ticks at 0..makespan
        for t in range(schedule.makespan + 1):
            assert f">{t}</text>" in svg

    def test_svg_fixed_unit_scale(self):
        svg = render_gantt(_hand_trace_schedule(), "svg").decode()
        # J1 runs [0,2): x = 48 + 0*24, width = 2*24 at row one
        assert '<rect x="48" y="12" width="48" height="26"' in svg

    def test_golden_bytes(self):
        inst = generate(ClassSpec(ClassId.S5, n=8))
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=Migration.REASSIGN_ALL))
        assert render_gantt(schedule, "svg") == SVG_GOLDEN.read_bytes()

    def test_svg_deterministic(self):
        schedule, _ = simulate_srpt(generate(ClassSpec(ClassId.S4, n=3)))
        assert render_gantt(schedule, "svg") == render_gantt(schedule, "svg")

    def test_s5_reassign_chart_peaks_near_its_size(self):
        # S5 n=96 reassign-all: 13,872 segments, a 2.50 MB chart.
        inst = generate(ClassSpec(ClassId.S5, n=96))
        schedule, _ = simulate_srpt(inst, PolicyConfig(migration=Migration.REASSIGN_ALL))
        peak, size = _peak_render_bytes(schedule, "svg")
        assert peak <= 1.5 * size, (peak, size)


class TestRejection:
    def test_invalid_schedule_rejected_with_violations(self):
        inst = Instance(jobs=(Job(1, 0, 2),), machines=1)
        broken = Schedule.from_segments(inst, [Segment(1, 1, 0, 1)])
        with pytest.raises(ValueError) as err:
            render_gantt(broken, "ascii")
        assert "job 1 received 1 of 2 units" in str(err.value)

    @pytest.mark.parametrize("count, tail", [(5, ""), (7, " (and 2 more)")])
    @pytest.mark.parametrize(
        "refuse, action",
        [(lambda s: render_gantt(s, "svg"), "render"), (schedule_to_csv, "dump")],
        ids=["render", "dump"],
    )
    def test_refusal_names_at_most_five_violations(self, count, tail, refuse, action):
        # Job i runs i + 1 of its i units on machine i: one breach per job.
        jobs = range(1, count + 1)
        inst = Instance(jobs=tuple(Job(i, 0, i) for i in jobs), machines=count)
        broken = Schedule.from_segments(inst, [Segment(i, i, 0, i + 1) for i in jobs])
        named = "; ".join(f"job {i} received {i + 1} of {i} units" for i in range(1, 6))
        with pytest.raises(ValueError) as err:
            refuse(broken)
        assert str(err.value) == f"cannot {action} an invalid schedule: {named}{tail}"

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            render_gantt(_hand_trace_schedule(), "png")

    def test_unknown_style_refused_before_the_schedule_is_validated(self):
        inst = Instance(jobs=(Job(1, 0, 2),), machines=1)
        broken = Schedule.from_segments(inst, [Segment(1, 1, 0, 1)])
        with pytest.raises(ValueError) as err:
            render_gantt(broken, "png")
        assert str(err.value) == "unknown gantt style 'png'; use 'ascii' or 'svg'"


def _long_job_schedule() -> Schedule:
    inst = Instance(jobs=(Job(1, 0, 10**12),), machines=1)
    return Schedule.from_segments(inst, [Segment(1, 1, 0, 10**12)])


class TestSizeLimits:
    def test_long_ascii_chart_refused_with_its_size(self):
        with pytest.raises(ValueError) as err:
            render_gantt(_long_job_schedule(), "ascii")
        assert (
            f"1 machines x makespan {10**12} = {10**12} cells,"
            f" limit {gantt.MAX_CELLS}"
        ) in str(err.value)

    def test_long_svg_chart_refused_with_its_size(self):
        with pytest.raises(ValueError) as err:
            render_gantt(_long_job_schedule(), "svg")
        assert (
            f"makespan {10**12} time units, limit {gantt.SVG_MAX_UNITS}"
        ) in str(err.value)

    def test_limits_cover_the_largest_rendered_family(self):
        inst = generate(ClassSpec(ClassId.S5, n=96))
        makespan = 5 * 96 - 1
        assert inst.machines * makespan <= gantt.MAX_CELLS
        assert makespan <= gantt.SVG_MAX_UNITS

    @pytest.mark.parametrize(
        "style, limit",
        [("ascii", "MAX_CELLS"), ("svg", "SVG_MAX_UNITS"), ("svg", "MAX_CELLS")],
    )
    def test_a_chart_at_the_limit_is_drawn(self, monkeypatch, style, limit):
        schedule = _hand_trace_schedule()  # 2 machines, makespan 3
        size = 6 if limit == "MAX_CELLS" else 3
        monkeypatch.setattr(gantt, limit, size)
        assert render_gantt(schedule, style)
        monkeypatch.setattr(gantt, limit, size - 1)
        with pytest.raises(ValueError, match="too large"):
            render_gantt(schedule, style)
