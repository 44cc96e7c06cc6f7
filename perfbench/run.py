#!/usr/bin/env python3
"""srpt-lab benchmark: time to verdict on four workloads, per-layer spans.

Run from the root of a srpt-lab checkout:

    python3 perfbench/run.py                    # every workload, untraced then traced
    python3 perfbench/run.py --workload s5-sticky --seed 3 --trace 0

With --workload, this process is the workload's single-threaded process. It
builds the inputs, then repeats timed passes for BENCHMARK.json's
run_seconds (at least one pass), the run length its bounds were measured at.
The benchmark's calling convention passes that value as --seconds, so the
option is accepted with that one value only. --trace 0 reports the
end-to-end metrics named in BENCHMARK.json: the wall and CPU seconds of a pass
(per operation the median over passes, summed), the peak RSS of the process,
and setup_s, the median over fresh interpreters of start-up, the srptlab
import and input generation. --trace 1 alternates untraced passes with passes traced by
tracer.py and reports the per-layer metrics, the tracing overhead among them.
Every pass checks every operation's output; the last line of standard output
is a JSON object with correct, attempted, failed and metrics. The exit code is
1 if any check failed. Run without --workload, it runs each workload in its
own process, untraced then traced, and writes .perfbench/report.json.

Traced spans go to .perfbench/<workload>.spans.jsonl and each run's samples
and provenance (Python version, nproc, git SHA, seed) to
.perfbench/<workload>.trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 11
COUNTED_UNITS = {"count", "ratio", "bytes"}


def load_cases():
    """Import the workloads from this checkout's src/, or exit non-zero."""
    if not (SRC / "srptlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'srptlab'} not found; run from a srpt-lab checkout")
    sys.path.insert(0, str(SRC))
    import srptlab

    if not Path(srptlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported srptlab from {srptlab.__file__}, not from {SRC}")
    import cases

    return cases.CASES


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": SPEC["run_seconds"],
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def timed_pass(case, items, tracer=None):
    """Run every operation once; return the (start, end) wall clock window
    and the CPU seconds of each, and the failed operations. Only the
    operations are timed; checks follow."""
    outputs, windows, cpus = [], [], []
    with tracer.tracing() if tracer is not None else contextlib.nullcontext():
        for item in items:
            wall, cpu = perf_counter(), process_time()
            outputs.append(_attempt(case.run, item))
            windows.append((wall, perf_counter()))
            cpus.append(process_time() - cpu)
    failures = []
    for item, (out, error) in zip(items, outputs):
        problems = [error] if error else case.check(item, out)
        if problems:
            failures.append((case.label(item), problems))
    return windows, cpus, failures


def pass_seconds(passes) -> float:
    """Seconds of one pass: the sum over its operations of each operation's
    median across passes. A burst of load on the shared host then costs one
    sample of one operation rather than a whole pass."""
    return sum(median(op) for op in zip(*passes))


def _attempt(run, item):
    try:
        return run(item), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def tail(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return f"no percentile has ten samples beyond it ({len(ordered)} samples)"
    return f"p{100 * rank / len(ordered):.0f} {ordered[rank - 1]:.4f} s ({len(ordered)} samples)"


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh interpreters that import srptlab and build the
    inputs, then exit; the first run is discarded because it writes the
    bytecode caches. No timeout: with one, waiting polls the child at up to
    50 ms intervals, which would quantise the samples."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        start = perf_counter()
        subprocess.run(cmd, check=True)
        samples.append(perf_counter() - start)
    return samples[1:]


def run_workload(args, case) -> int:
    workdir = OUT / f"work-{args.workload}"
    workdir.mkdir(exist_ok=True)
    if args.setup_probe:
        case.prepare(args.seed, workdir)
        return 0
    import tracer as tracing

    setup = measure_setup(args) if args.trace == 0 else []
    items = case.prepare(args.seed, workdir)
    plan = ["untraced"] if args.trace == 0 else ["untraced", "traced", "traced"]
    walls = {"untraced": [], "traced": []}  # per pass, per operation
    cpus, layer_passes, all_spans, failures, problems = [], [], [], [], []
    attempted = n = 0
    last = 0.0
    start = perf_counter()
    # Start another pass only if one more of the last pass's length still fits.
    while n < len(plan) or perf_counter() - start + last <= SPEC["run_seconds"]:
        if n < len(plan):
            kind = plan[n]
        else:
            kind = ("traced", "untraced")[n % 2] if args.trace else "untraced"
        tracer = tracing.Tracer() if kind == "traced" else None
        windows, op_cpus, failed = timed_pass(case, items, tracer)
        op_walls = [end - begin for begin, end in windows]
        walls[kind].append(op_walls)
        attempted += len(items)
        failures += failed
        if tracer is None:
            cpus.append(op_cpus)
        else:
            problems += tracer.problems + tracing.coverage_problems(tracer.spans, windows)
            layer_passes.append(tracing.layer_metrics(tracer.spans))
            all_spans.append(tracer.spans)
        last = sum(op_walls)
        n += 1

    if args.trace == 0:
        metrics = {
            "wall_s": pass_seconds(walls["untraced"]),
            "cpu_s": pass_seconds(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median(setup),
        }
        declared = SPEC["end_to_end"]
    else:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counted = {name for name, unit in units.items() if unit in COUNTED_UNITS}
        metrics, unsteady = tracing.combine(layer_passes, counted)
        problems += unsteady
        traced, untraced = pass_seconds(walls["traced"]), pass_seconds(walls["untraced"])
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = traced - untraced
        write_spans(args.workload, all_spans)
        declared = SPEC["per_layer"]
    if set(metrics) != {m["name"] for m in declared}:
        sys.exit(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})}"
                 " are computed or declared in BENCHMARK.json, not both")

    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    details = {
        "provenance": provenance(args),
        "pass_wall_s": {kind: [sum(p) for p in passes] for kind, passes in walls.items()},
        "setup_s": setup,
        "metrics": result["metrics"],
        "bases": {
            name: ("" if scale == 1 else f"{scale:g} x ")
            + f"{metrics[num]:.6g} {num} / {metrics[den]:.6g} {den}"
            for name, (num, den, scale) in tracing.RATIOS.items()
        } if args.trace else {},
        "attempted": attempted,
        "failures": failures[:20],
        "tracer_problems": problems[:20],
    }
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print_human(details)
    print(json.dumps(result))
    return 0 if correct else 1


def write_spans(workload: str, passes) -> None:
    with open(OUT / f"{workload}.spans.jsonl", "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "facts": s.facts}) + "\n")


def print_human(details) -> None:
    p = details["provenance"]
    print(f"== {p['workload']}  seed {p['seed']}  seconds {p['seconds']}  trace {p['trace']}"
          f"  python {p['python']}  nproc {p['nproc']}  git {p['git_sha']}")
    for kind, samples in details["pass_wall_s"].items():
        if samples:
            print(f"  {kind} pass wall: median {median(samples):.4f} s, {tail(samples)}")
    for name, metric in details["metrics"].items():
        line = f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}"
        if name in details["bases"]:
            line += f"   = {details['bases'][name]}"
        print(line)
    print(f"  op_fail_ratio {len(details['failures'])}/{details['attempted']}")
    for label, problems in details["failures"][:5]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    for problem in details["tracer_problems"]:
        print(f"  TRACER {problem}")


def run_all(args) -> int:
    """Each workload in its own process, one at a time: untraced, then traced."""
    report = {"provenance": provenance(args), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            detail = OUT / f"{workload}.trace{trace}.json"
            detail.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=120 + 4 * SPEC["run_seconds"])
            except subprocess.TimeoutExpired as exc:
                ok = False
                print(f"  {workload} trace {trace}: timed out after {exc.timeout} s")
                continue
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"  {workload} trace {trace}: exit code {proc.returncode}")
            if proc.returncode in (0, 1) and detail.is_file():
                report["workloads"].setdefault(workload, {})[f"trace{trace}"] = json.loads(detail.read_text())
    (OUT / "report.json").write_text(json.dumps(report, indent=1))
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'}; report in {OUT / 'report.json'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, choices=[SPEC["run_seconds"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    cases = load_cases()
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_workload(args, cases[args.workload])


if __name__ == "__main__":
    sys.exit(main())
