"""Span tracer that times srptlab's layers from outside the package.

For the length of ``Tracer.tracing()``, every public function of each srptlab
module is replaced, in every srptlab namespace that holds it (the defining
module, the modules that import it by name, and the package root), by a
wrapper that records a span: name, start, end and parent. A call between two
functions of one module is not a layer boundary and records nothing. Spans
stay in memory until the caller writes them out; on exit every original
function is put back.

A span's self time is its duration minus the time its child spans cover.
Counts that explain the timings (epochs, segments, bytes, refusals) are read
off each call's arguments and result after its span closes, inside a
``perfbench.tracer`` span, so this bookkeeping is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from statistics import median
from time import perf_counter

from srptlab.engine import PolicyConfig

PACKAGE = "srptlab"
LAYERS = (
    "workloads",
    "engine",
    "model",
    "oracles",
    "analysis",
    "reports",
    "gantt",
    "files",
    "cli",
)
BOOKKEEPING = "perfbench.tracer"
_ORIGINAL = "__perfbench_original__"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None  # index into Tracer.spans
    end: float = 0.0
    facts: dict = field(default_factory=dict)


def moves(schedule) -> tuple[int, int]:
    """(migrations, preemptions) of a schedule.

    Between two consecutive segments of one job, a change of machine is a
    migration and a gap in time is a preemption.
    """
    migrations = preemptions = 0
    prev = None
    for seg in sorted(schedule.segments, key=attrgetter("job_id", "start")):
        if prev is not None and prev.job_id == seg.job_id:
            migrations += prev.machine != seg.machine
            preemptions += prev.end < seg.start
        prev = seg
    return migrations, preemptions


def _simulate_facts(args, kwargs, result) -> dict:
    inst = args[0] if args else kwargs["inst"]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    policy = (cfg or PolicyConfig()).migration.value
    schedule, trace = result
    migrations, preemptions = moves(schedule)
    return {
        "instance": hash((inst, policy)),
        "epochs": len(trace.epochs),
        "segments": len(schedule.segments),
        "trace_entries": sum(len(e.remaining) for e in trace.epochs),
        "migrations": migrations,
        "preemptions": preemptions,
    }


def _validate_facts(args, kwargs, result) -> dict:
    schedule = args[0] if args else kwargs["s"]
    return {"segments": len(schedule.segments), "violations": len(result)}


def _bytes_facts(args, kwargs, result) -> dict:
    return {"bytes": len(result if isinstance(result, bytes) else result.encode())}


_FACTS = {
    "engine.simulate_srpt": _simulate_facts,
    "model.validate_schedule": _validate_facts,
    "reports.emit_report": _bytes_facts,
    "gantt.render_gantt": _bytes_facts,
    "files.schedule_to_csv": _bytes_facts,
}


class Tracer:
    """Spans of one traced pass; single-threaded, so a stack gives nesting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.problems: list[str] = []  # what tracing() found not restored

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str, layer: str = "perfbench"):
        idx = self._open(name, layer)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer: str, func):
        name = f"{layer}.{func.__name__}"
        facts = _FACTS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].layer == layer:
                return func(*args, **kwargs)
            idx = self._open(name, layer)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.spans[idx].facts["raised"] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if facts is not None:
                with self.span(BOOKKEEPING):
                    self.spans[idx].facts.update(facts(args, kwargs, result))
            return result

        setattr(traced, _ORIGINAL, func)
        return traced

    @contextmanager
    def tracing(self):
        """Trace one pass under a root span; afterwards every srptlab name
        holds its original function again, or self.problems says which not."""
        self._install()
        try:
            with self.span("perfbench.pass"):
                yield
        finally:
            self.problems += self._uninstall()

    def _install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(layer, obj)
        for module in (sys.modules[PACKAGE], *modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def _uninstall(self) -> list[str]:
        """Put every original back; return what is still not restored."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        problems = [
            f"{module.__name__}.{attr} is not the original function"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        problems += [
            f"{name}.{attr} still holds a tracing wrapper"
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and hasattr(obj, _ORIGINAL)
        ]
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        return problems


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def coverage_problems(spans: list[Span], windows: list[tuple[float, float]],
                      tolerance: float = 0.10) -> list[str]:
    """Check one traced pass against the operation windows (start, end) that
    the caller timed with its own clock, outside the tracer.

    Every span directly under the pass's root span must lie inside one
    operation's window, and together those spans must cover all but
    ``tolerance`` of the operations' summed wall time: a wrapper that was
    lost, skipped or timed the wrong interval leaves the layers short. The
    part no layer covers is the operation's own code, mostly freeing the
    EngineTrace that simulate_srpt returns and the operation drops; that is
    about 6% of a pass on s5-sticky.
    """
    problems = []
    root = next((i for i, s in enumerate(spans) if s.parent is None), None)
    if root is None:
        return ["the pass recorded no root span"]
    starts = [w[0] for w in windows]
    covered = 0.0
    for i, s in enumerate(spans):
        if s.parent != root:
            continue
        k = bisect_right(starts, s.start) - 1
        if k < 0 or s.end > windows[k][1]:
            problems.append(f"span {i} ({s.name}) lies outside every operation")
        covered += s.end - s.start
    walls = sum(end - start for start, end in windows)
    if not (1 - tolerance) * walls <= covered <= walls:
        problems.append(
            f"layer spans cover {covered:.6f} s of {walls:.6f} s of operations"
            f" (at least {1 - tolerance:.0%} expected)"
        )
    return problems


# Derived metrics: scale * numerator / denominator, formed after the traced
# passes are combined so that each prints with the base it came from.
RATIOS = {
    "engine.simulate.unique_ratio": ("engine.simulate.unique", "engine.simulate.calls", 1),
    "engine.epochs_per_s": ("engine.epochs", "engine.simulate.self_s", 1),
    "engine.segments_per_epoch": ("engine.segments", "engine.epochs", 1),
    "model.validate.us_per_segment": ("model.validate.self_s", "model.validate.segments", 1e6),
    "oracles.brute.answered_ratio": ("oracles.brute.answered", "oracles.brute.calls", 1),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except those in RATIOS.

    model.validate.* counts calls made outside render_gantt; the validation
    render_gantt repeats is gantt.render.validate_s.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def parent_name(i: int) -> str | None:
        p = spans[i].parent
        return spans[p].name if p is not None else None

    def self_s(name: str) -> float:
        return sum(selfs[i] for i in by_name[name])

    def total(idxs, fact) -> int:
        return sum(spans[i].facts.get(fact, 0) for i in idxs)

    sims = by_name["engine.simulate_srpt"]
    validates = [i for i in by_name["model.validate_schedule"] if parent_name(i) != "gantt.render_gantt"]
    brutes = by_name["oracles.brute_force_opt"]
    renders = by_name["gantt.render_gantt"]

    metrics = {
        "engine.simulate.calls": len(sims),
        "engine.simulate.unique": len({spans[i].facts["instance"] for i in sims}),
        "engine.simulate.self_s": sum(selfs[i] for i in sims),
        "engine.epochs": total(sims, "epochs"),
        "engine.segments": total(sims, "segments"),
        "engine.trace_entries": total(sims, "trace_entries"),
        "engine.migrations": total(sims, "migrations"),
        "engine.preemptions": total(sims, "preemptions"),
        "model.validate.calls": len(validates),
        "model.validate.self_s": sum(selfs[i] for i in validates),
        "model.validate.segments": total(validates, "segments"),
        "model.validate.violations": total(validates, "violations"),
        "oracles.brute.calls": len(brutes),
        "oracles.brute.answered": sum("raised" not in spans[i].facts for i in brutes),
        "oracles.brute.refused": sum(
            spans[i].facts.get("raised") == "SearchCeilingError" for i in brutes
        ),
        "oracles.brute.self_s": self_s("oracles.brute_force_opt"),
        "oracles.zero_release.self_s": self_s("oracles.zero_release_opt"),
        "oracles.mcnaughton.self_s": self_s("oracles.mcnaughton"),
        "workloads.generate.self_s": self_s("workloads.generate"),
        "analysis.verify_all.self_s": self_s("analysis.verify_all"),
        "analysis.discrepancy.self_s": self_s("analysis.discrepancy_report"),
        "analysis.discrepancy.engine_s": sum(
            spans[i].end - spans[i].start
            for i in sims
            if parent_name(i) == "analysis.discrepancy_report"
        ),
        "reports.emit.self_s": self_s("reports.emit_report"),
        "reports.emit.bytes": total(by_name["reports.emit_report"], "bytes"),
        "cli.main.self_s": self_s("cli.main"),
        "gantt.render.self_s": sum(selfs[i] for i in renders),
        "gantt.render.validate_s": sum(
            spans[i].end - spans[i].start
            for i in by_name["model.validate_schedule"]
            if parent_name(i) == "gantt.render_gantt"
        ),
        "gantt.render.bytes": total(renders, "bytes"),
        "files.schedule_to_csv.self_s": self_s("files.schedule_to_csv"),
        "files.schedule_to_csv.bytes": total(by_name["files.schedule_to_csv"], "bytes"),
        "trace.bookkeeping_s": self_s(BOOKKEEPING),
    }
    return metrics


def combine(passes: list[dict[str, float]], counted: set[str]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over traced passes, counts that must repeat
    exactly, and the RATIOS formed from them."""
    out = {}
    problems = []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in counted:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = median(values)
    for name, (num, den, scale) in RATIOS.items():
        out[name] = scale * out[num] / out[den] if out[den] else 0.0
    return out, problems
