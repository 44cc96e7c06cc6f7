"""Command-line surface.

Subcommands: simulate, opt, sweep, verify-theorems, render.
Exit codes: 0 success / all PASS, 1 usage or input error or a closed output
pipe, 2 a verification run completed with at least one MISMATCH.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .analysis import MISMATCH, THEOREMS, measure, summary, verify_all
from .engine import Migration, PolicyConfig, simulate_srpt
from .files import parse_instance, schedule_from_csv, schedule_to_csv
from .gantt import render_gantt
from .model import Instance
from .oracles import DEFAULT_CEILING, brute_force_opt, mcnaughton, zero_release_opt
from .reports import discrepancy_report, emit_report, emit_sweep
from .workloads import ClassId, ClassSpec, S3Interpretation, generate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _add_family_options(sub) -> None:
    sub.add_argument(
        "--s3-interpretation",
        choices=[i.value for i in S3Interpretation],
        help="processing-time reading for class S3 (default literal-2n)",
    )
    sub.add_argument(
        "--processing-override", type=int, help="job length for the parametric class"
    )


def _add_input_options(sub) -> None:
    grp = sub.add_argument_group("input (give exactly one of --in / --class)")
    grp.add_argument("--in", dest="in_path", metavar="FILE", help="instance file")
    grp.add_argument(
        "--class",
        dest="class_id",
        choices=[c.value for c in ClassId],
        help="generate a workload family instead of reading a file",
    )
    grp.add_argument("--n", type=int, help="family size parameter")
    grp.add_argument("--m", type=int, help="machine count (family default: m = n)")
    _add_family_options(grp)
    sub.add_argument(
        "--no-enforce-constraints",
        action="store_true",
        help="accept instances violating n >= m or min processing >= m",
    )


def _family_spec(args, n: int, m: int | None) -> ClassSpec:
    return ClassSpec(
        class_id=args.class_id,
        n=n,
        m=m,
        processing_override=args.processing_override,
        s3_interpretation=args.s3_interpretation,
    )


def _load_instance(args) -> Instance:
    if bool(args.in_path) == bool(args.class_id):
        raise _UsageError("give exactly one of --in FILE or --class NAME")
    if args.in_path:
        given = [
            "--" + field.name.replace("_", "-")
            for field in fields(ClassSpec)
            if field.name != "class_id" and getattr(args, field.name) is not None
        ]
        if given:
            raise _UsageError(f"{', '.join(given)}: family flags need --class")
        inst = parse_instance(Path(args.in_path).read_text(encoding="utf-8"))
    else:
        if args.n is None:
            raise _UsageError("--class needs --n")
        inst = generate(_family_spec(args, args.n, args.m))
    violations = [] if args.no_enforce_constraints else inst.constraint_violations()
    if violations:
        raise ValueError(
            "; ".join(violations)
            + " -- pass --no-enforce-constraints to schedule it anyway"
        )
    return inst


def _check_files(outputs, inputs=()) -> None:
    """Refuse, before any work, outputs that cannot be written as files and
    any two flags, inputs included, that name one file. outputs and inputs
    are (flag or name, path) pairs; a None path is not given."""
    outputs = [(flag, Path(path)) for flag, path in outputs if path is not None]
    seen = {}
    for flag, path in [(f, Path(p)) for f, p in inputs if p is not None] + outputs:
        other = seen.setdefault(path.resolve(), flag)
        if other != flag:
            raise _UsageError(f"{other} and {flag} name the same file")
    for flag, path in outputs:
        if path.is_dir():
            raise ValueError(f"{flag} {path} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"{path}: no such directory {path.parent}")


def _deliver(outputs) -> None:
    """Write each (path, bytes) output that has a path, in order, then print
    the pieces whose path is None, in order, each as its own write."""
    for path, data in outputs:
        if path is not None:
            Path(path).write_bytes(data)
    for path, data in outputs:
        if path is None:
            sys.stdout.write(data.decode("utf-8"))


def _cmd_simulate(args) -> int:
    if args.gantt == "svg" and not args.out:
        raise _UsageError("--gantt svg needs --out PATH")
    if args.out and not args.gantt:
        raise _UsageError("--out writes a rendering; it needs --gantt ascii|svg")
    _check_files([("--dump", args.dump), ("--out", args.out)], [("--in", args.in_path)])
    inst = _load_instance(args)
    schedule, _ = simulate_srpt(inst, PolicyConfig(migration=args.policy))
    outputs = [(None, f"makespan {schedule.makespan}\n".encode("utf-8"))]
    if args.dump:
        outputs.append((args.dump, schedule_to_csv(schedule).encode("utf-8")))
    if args.gantt:
        outputs.append((args.out, render_gantt(schedule, args.gantt)))
    _deliver(outputs)
    return 0


def _cmd_opt(args) -> int:
    if args.dump and args.method == "mcnaughton":
        raise _UsageError(f"method {args.method} produces no witness schedule")
    if args.respect_releases and args.method != "brute":
        raise _UsageError(
            f"method {args.method} ignores releases; --respect-releases needs"
            " --method brute"
        )
    bounds = {
        "max_jobs": args.ceiling_jobs,
        "max_machines": args.ceiling_machines,
        "max_total_work": args.ceiling_work,
    }
    bounds = {field: v for field, v in bounds.items() if v is not None}
    if bounds and args.method != "brute":
        raise _UsageError(
            f"method {args.method} runs no search; --ceiling-* needs --method brute"
        )
    ceiling = replace(DEFAULT_CEILING, **bounds)
    _check_files([("--dump", args.dump)], [("--in", args.in_path)])
    inst = _load_instance(args)
    if args.method == "paper":
        label, result = "paper-opt", zero_release_opt(inst)
    elif args.method == "mcnaughton":
        label, result = "mcnaughton", mcnaughton(inst)
    else:
        result = brute_force_opt(inst, args.respect_releases, ceiling)
        label = (
            "brute-force-with-releases"
            if args.respect_releases
            else "brute-force-zero-release"
        )
    outputs = [(None, f"{label} makespan {result.makespan}\n".encode("utf-8"))]
    if args.dump:
        outputs.append((args.dump, schedule_to_csv(result.schedule).encode("utf-8")))
    _deliver(outputs)
    return 0


def _cmd_sweep(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise _UsageError("need 1 <= --n-min <= --n-max")
    _check_files([("--out", args.out)])
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        m = n if args.m is None else args.m
        inst = generate(_family_spec(args, n, m))
        rows.append((args.class_id, n, m, *measure(inst)))
    _deliver([(args.out, emit_sweep(rows, args.format))])
    return 0


def _cmd_verify(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise _UsageError("need 1 <= --n-min <= --n-max")
    out = Path(args.out) if args.out else None
    disc_path = out and Path(f"{out.with_suffix('')}-discrepancies.txt")
    _check_files([("--out", out), ("the discrepancy report", disc_path)])
    rows = verify_all(range(args.n_min, args.n_max + 1))
    table = emit_report(rows, args.format)
    disc = discrepancy_report(rows).encode("utf-8")
    if out:
        wrote = f"wrote {out} and {disc_path}\n".encode("utf-8")
        _deliver([(out, table), (disc_path, disc), (None, wrote)])
    else:
        _deliver([(None, table), (None, b"\n"), (None, disc)])
    for spec in THEOREMS:
        print(f"{spec.theorem_id}: {summary(rows, spec)}", file=sys.stderr)
    return 2 if any(r.verdict == MISMATCH for r in rows) else 0


def _cmd_render(args) -> int:
    if args.style == "svg" and not args.out:
        raise _UsageError("--style svg needs --out PATH")
    inputs = [("--in", args.in_path), ("--instance", args.instance)]
    _check_files([("--out", args.out)], inputs)
    instance = None
    if args.instance:
        instance = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    schedule = schedule_from_csv(
        Path(args.in_path).read_text(encoding="utf-8"), instance
    )
    _deliver([(args.out, render_gantt(schedule, args.style))])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="srpt-lab",
        description=(
            "Preemptive online SRPT scheduling lab: exact simulation on"
            " identical machines, offline optima, claim verification, and"
            " Gantt rendering."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run SRPT on an instance")
    _add_input_options(p_sim)
    p_sim.add_argument(
        "--policy",
        choices=[p.value for p in Migration],
        default=Migration.REASSIGN_ALL.value,
        help="machine placement at decision epochs (default reassign-all)",
    )
    p_sim.add_argument("--gantt", choices=["ascii", "svg"], help="render the schedule")
    p_sim.add_argument("--out", help="where to write the rendering")
    p_sim.add_argument("--dump", help="write the schedule as CSV segments")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("opt", help="compute an offline-optimum makespan")
    _add_input_options(p_opt)
    p_opt.add_argument(
        "--method",
        choices=["paper", "mcnaughton", "brute"],
        required=True,
        help="paper: indexed rounds for equal jobs (zero releases);"
        " mcnaughton: preemptive bound; brute: exhaustive small-instance search",
    )
    p_opt.add_argument(
        "--respect-releases",
        action="store_true",
        help="brute force only: keep arrival times instead of zeroing them",
    )
    for flag in ("--ceiling-jobs", "--ceiling-machines", "--ceiling-work"):
        p_opt.add_argument(
            flag,
            type=int,
            help="brute only: override this search-ceiling bound (an integer >= 1)",
        )
    p_opt.add_argument("--dump", help="write the witness schedule as CSV segments")
    p_opt.set_defaults(func=_cmd_opt)

    p_sweep = sub.add_parser(
        "sweep", help="measure one family over a range of n (no claims)"
    )
    p_sweep.add_argument(
        "--class",
        dest="class_id",
        choices=[c.value for c in ClassId],
        required=True,
    )
    p_sweep.add_argument("--n-min", type=int, default=2)
    p_sweep.add_argument("--n-max", type=int, default=16)
    p_sweep.add_argument(
        "--m", type=int, help="machine count (default: m = n at each n)"
    )
    _add_family_options(p_sweep)
    p_sweep.add_argument("--format", choices=["text", "csv"], default="text")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify-theorems",
        help="sweep every claim (T3.1..T3.5, both policies, both S3 readings)"
        " and write the verdict table plus the discrepancy report",
    )
    p_verify.add_argument("--n-min", type=int, default=2)
    p_verify.add_argument("--n-max", type=int, default=64)
    p_verify.add_argument("--format", choices=["text", "csv"], default="text")
    p_verify.add_argument(
        "--out", help="verdict table path X.ext; the report goes to X-discrepancies.txt"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", help="render a schedule dump as a Gantt chart")
    p_render.add_argument("--in", dest="in_path", required=True, metavar="SCHEDULE_FILE")
    p_render.add_argument(
        "--instance", help="instance file for strict validation (else inferred)"
    )
    p_render.add_argument("--style", choices=["ascii", "svg"], default="ascii")
    p_render.add_argument("--out")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (say, `| head`). Point stdout at devnull so the
        # flush at shutdown cannot raise again, and exit 1 without a message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
