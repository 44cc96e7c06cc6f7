"""Command-line surface.

Subcommands: simulate, opt, sweep, verify-theorems, render.
Exit codes: 0 success / all PASS, 1 usage or input error, 2 a verification
run completed with at least one MISMATCH.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import BOTH_POLICIES, competitive_ratio, verify_all
from .engine import Migration, PolicyConfig, place, select_srpt, simulate_srpt
from .files import (
    check_constraints,
    parse_instance,
    schedule_from_csv,
    schedule_to_csv,
)
from .gantt import render_gantt
from .model import Instance
from .oracles import (
    DEFAULT_CEILING,
    SearchCeiling,
    brute_force_opt,
    mcnaughton,
    zero_release_opt,
)
from .reports import discrepancy_report, emit_report, emit_sweep
from .workloads import ClassId, ClassSpec, generate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _add_input_options(sub, with_policy: bool = True) -> None:
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
    grp.add_argument(
        "--s3-interpretation",
        choices=["literal-2n", "theorem-n-plus-2"],
        help="processing-time reading for class S3 (default literal-2n)",
    )
    grp.add_argument(
        "--processing-override", type=int, help="job length for the parametric class"
    )
    sub.add_argument(
        "--no-enforce-constraints",
        action="store_true",
        help="accept instances violating n >= m or min processing >= m",
    )
    if with_policy:
        sub.add_argument(
            "--policy",
            choices=[p.value for p in Migration],
            default=Migration.REASSIGN_ALL.value,
            help="machine placement at decision epochs (default reassign-all)",
        )


def _load_instance(args) -> Instance:
    if bool(args.in_path) == bool(args.class_id):
        raise _UsageError("give exactly one of --in FILE or --class NAME")
    if args.in_path:
        parsed = parse_instance(
            Path(args.in_path).read_text(encoding="utf-8"),
            enforce_constraints=not args.no_enforce_constraints,
        )
        if isinstance(parsed, Instance):
            return parsed
        inst = generate(parsed)
    else:
        if args.n is None:
            raise _UsageError("--class needs --n")
        spec = ClassSpec(
            class_id=args.class_id,
            n=args.n,
            m=args.m,
            processing_override=args.processing_override,
            s3_interpretation=args.s3_interpretation,
        )
        inst = generate(spec)
    if not args.no_enforce_constraints:
        check_constraints(inst)
    return inst


def _write_or_print(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _cmd_simulate(args) -> int:
    inst = _load_instance(args)
    schedule, _ = simulate_srpt(inst, PolicyConfig(migration=args.policy))
    print(f"makespan {schedule.makespan}")
    if args.dump:
        Path(args.dump).write_text(schedule_to_csv(schedule), encoding="utf-8")
    if args.gantt:
        if args.gantt == "svg" and not args.out:
            raise _UsageError("--gantt svg needs --out PATH")
        _write_or_print(render_gantt(schedule, args.gantt), args.out)
    return 0


def _cmd_opt(args) -> int:
    inst = _load_instance(args)
    if args.method == "paper":
        result = zero_release_opt(inst)
    elif args.method == "mcnaughton":
        result = mcnaughton(inst)
    else:
        ceiling = SearchCeiling(
            max_jobs=args.ceiling_jobs,
            max_machines=args.ceiling_machines,
            max_total_work=args.ceiling_work,
        )
        result = brute_force_opt(inst, args.respect_releases, ceiling)
    print(f"{result.method.value} makespan {result.makespan}")
    if args.dump:
        if result.schedule is None:
            raise _UsageError(f"method {args.method} produces no witness schedule")
        Path(args.dump).write_text(schedule_to_csv(result.schedule), encoding="utf-8")
    return 0


def _cmd_sweep(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise _UsageError("need 1 <= --n-min <= --n-max")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        m = n if args.m == "n" else int(args.m)
        spec = ClassSpec(
            class_id=args.class_id,
            n=n,
            m=m,
            processing_override=args.processing_override,
            s3_interpretation=args.s3_interpretation,
        )
        inst = generate(spec)
        # McNaughton is the zero-release optimum for any shape, including
        # parametric instances where the indexed-round layout is not tight.
        w_opt = mcnaughton(inst).makespan
        log = list(select_srpt(inst))
        for policy in BOTH_POLICIES:
            schedule, _ = place(inst, log, policy)
            cr = competitive_ratio(schedule.makespan, w_opt)
            rows.append(
                (args.class_id, n, m, policy.value, schedule.makespan, w_opt, cr)
            )
    _write_or_print(emit_sweep(rows, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise _UsageError("need 1 <= --n-min <= --n-max")
    sweep = verify_all(range(args.n_min, args.n_max + 1))
    table = emit_report(sweep, args.format)
    disc = discrepancy_report(sweep).encode("utf-8")
    if args.out:
        out = Path(args.out)
        out.write_bytes(table)
        disc_path = (
            Path(args.discrepancies)
            if args.discrepancies
            else out.with_name(out.stem + "-discrepancies.txt")
        )
        disc_path.write_bytes(disc)
        print(f"wrote {out} and {disc_path}")
    else:
        sys.stdout.write(table.decode("utf-8"))
        sys.stdout.write("\n")
        sys.stdout.write(disc.decode("utf-8"))
    mismatches = len(sweep.mismatch_rows)
    for report in sweep.reports:
        print(f"{report.theorem_id}: {report.summary}", file=sys.stderr)
    return 2 if mismatches else 0


def _cmd_render(args) -> int:
    instance = None
    if args.instance:
        parsed = parse_instance(
            Path(args.instance).read_text(encoding="utf-8"), enforce_constraints=False
        )
        instance = parsed if isinstance(parsed, Instance) else generate(parsed)
    schedule = schedule_from_csv(
        Path(args.in_path).read_text(encoding="utf-8"), instance
    )
    if args.style == "svg" and not args.out:
        raise _UsageError("--style svg needs --out PATH")
    _write_or_print(render_gantt(schedule, args.style), args.out)
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
    p_sim.add_argument("--gantt", choices=["ascii", "svg"], help="render the schedule")
    p_sim.add_argument("--out", help="where to write the rendering")
    p_sim.add_argument("--dump", help="write the schedule as CSV segments")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("opt", help="compute an offline-optimum makespan")
    _add_input_options(p_opt, with_policy=False)
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
    p_opt.add_argument("--ceiling-jobs", type=int, default=DEFAULT_CEILING.max_jobs)
    p_opt.add_argument(
        "--ceiling-machines", type=int, default=DEFAULT_CEILING.max_machines
    )
    p_opt.add_argument(
        "--ceiling-work", type=int, default=DEFAULT_CEILING.max_total_work
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
        "--m",
        default="n",
        help="machine count: an integer or 'n' to track the family parameter",
    )
    p_sweep.add_argument("--s3-interpretation", choices=["literal-2n", "theorem-n-plus-2"])
    p_sweep.add_argument("--processing-override", type=int)
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
    p_verify.add_argument("--out", help="verdict table path (default: stdout)")
    p_verify.add_argument(
        "--discrepancies", help="discrepancy report path (default: beside --out)"
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
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
