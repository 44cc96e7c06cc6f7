import re
from pathlib import Path

import pytest

from _strategies import families
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
from srptlab.gantt import render_gantt

GOLDEN = Path(__file__).parent / "golden" / "gantt_s1_n2_m2_sticky.txt"
SVG_GOLDEN = Path(__file__).parent / "golden" / "gantt_s5_n8_reassign.svg"


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


class TestRejection:
    def test_invalid_schedule_rejected_with_violations(self):
        inst = Instance(jobs=(Job(1, 0, 2),), machines=1)
        broken = Schedule.from_segments(inst, [Segment(1, 1, 0, 1)])
        with pytest.raises(ValueError) as err:
            render_gantt(broken, "ascii")
        assert "job 1 received 1 of 2 units" in str(err.value)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            render_gantt(_hand_trace_schedule(), "png")


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
