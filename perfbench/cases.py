"""The benchmark's workloads: their inputs, one timed operation, its checks.

An operation calls srptlab through module attributes (``engine.simulate_srpt``
and so on), so in a traced pass it reaches the tracer's wrappers. Checks run
after the pass has stopped its clocks and use the functions bound below when
this module is imported, before any wrapper exists, so they are never traced.

Only oracle-small uses the seed; the other workloads are fixed instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

from srptlab import analysis, cli, engine, files, gantt, model, oracles, workloads
from srptlab.engine import Migration, PolicyConfig
from srptlab.model import Instance, Job
from srptlab.model import validate_schedule as check_schedule
from srptlab.oracles import DEFAULT_CEILING, SearchCeiling
from srptlab.oracles import mcnaughton as check_mcnaughton
from srptlab.workloads import ClassId, ClassSpec

from tracer import moves

# SHA-256 of out/verdicts.csv and out/discrepancies.txt at the commit that
# added this benchmark; the default verify-theorems run reproduces both.
GOLDEN_SHA256 = {
    "verdicts.csv": "7d6fde30c410fa34f48aa0d15b98b4f63d8b4bda1a502fcece0f4ab846610414",
    "verdicts-discrepancies.txt": "722870c261c38b2ea38eae992e8e41118bee23ece0efadd2d7ea28134a1a04bf",
}

# S5 results at the commit that added this benchmark, per n:
# (makespan, segment count, migration count).
PINNED_STICKY = {
    128: (639, 256, 0),
    256: (1279, 512, 0),
    384: (1919, 768, 0),
    512: (2559, 1024, 0),
}
PINNED_REASSIGN = {
    64: (319, 6176, 6048),
    96: (479, 13872, 13680),
}

# oracle-small: random instances stay inside DEFAULT_CEILING (<= 6 jobs,
# <= 4 machines, <= 24 units of work). Lengths and releases of at most 4 keep
# the batch's cost nearly the same for every seed; the exhaustive search's
# heavy cases come from the one fixed S1 instance below.
ORACLE_BATCH = 400
ORACLE_MAX_LENGTH = 4
ORACLE_MAX_RELEASE = 4
S1_SPEC = ClassSpec(ClassId.S1, n=6, m=2)
S1_CEILING = SearchCeiling(max_total_work=36)


class VerifyDefault:
    """The default verify-theorems sweep (n = 2..64) writing CSV verdicts."""

    name = "verify-default"

    def prepare(self, seed, workdir):
        return [workdir / "verdicts.csv"]

    def label(self, out):
        return "verify-theorems"

    def run(self, out):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["verify-theorems", "--format", "csv", "--out", str(out)])

    def check(self, out, code):
        problems = [] if code == 2 else [f"exit code {code}, expected 2"]
        for name, digest in GOLDEN_SHA256.items():
            path = out.with_name(name)
            if not path.is_file():
                problems.append(f"{name} was not written")
                continue
            if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                problems.append(f"{name} differs from the golden output")
            path.unlink()
        return problems


def _pinned_problems(n, schedule, violations, pinned) -> list[str]:
    got = (schedule.makespan, len(schedule.segments), moves(schedule)[0])
    problems = [f"violation: {v}" for v in violations[:3]]
    if got != pinned[n]:
        problems.append(
            f"(makespan, segments, migrations) = {got}, pinned {pinned[n]}"
        )
    return problems


class S5Sticky:
    """S5 under the sticky policy, through simulate, validate and the ratio."""

    name = "s5-sticky"

    def prepare(self, seed, workdir):
        return [ClassSpec(ClassId.S5, n=n) for n in PINNED_STICKY]

    def label(self, spec):
        return f"S5 n={spec.n}"

    def run(self, spec):
        inst = workloads.generate(spec)
        schedule, _ = engine.simulate_srpt(inst, PolicyConfig(migration=Migration.STICKY))
        violations = model.validate_schedule(schedule)
        opt = oracles.zero_release_opt(inst).makespan
        lower = oracles.mcnaughton(inst).makespan
        ratio = analysis.competitive_ratio(schedule.makespan, opt)
        return schedule, violations, opt, lower, ratio

    def check(self, spec, out):
        schedule, violations, opt, lower, ratio = out
        problems = _pinned_problems(spec.n, schedule, violations, PINNED_STICKY)
        if opt != lower:
            problems.append(f"indexed-round optimum {opt} != McNaughton {lower}")
        if ratio * opt != schedule.makespan:
            problems.append(f"ratio {ratio} does not match {schedule.makespan}/{opt}")
        return problems


class S5Reassign:
    """S5 under reassign-all, as `simulate --dump F --gantt svg` runs it."""

    name = "s5-reassign"

    def prepare(self, seed, workdir):
        return [ClassSpec(ClassId.S5, n=n) for n in PINNED_REASSIGN]

    def label(self, spec):
        return f"S5 n={spec.n}"

    def run(self, spec):
        inst = workloads.generate(spec)
        schedule, _ = engine.simulate_srpt(inst, PolicyConfig(migration=Migration.REASSIGN_ALL))
        violations = model.validate_schedule(schedule)
        dump = files.schedule_to_csv(schedule)
        svg = gantt.render_gantt(schedule, "svg")
        return schedule, violations, dump, svg

    def check(self, spec, out):
        schedule, violations, dump, svg = out
        problems = _pinned_problems(spec.n, schedule, violations, PINNED_REASSIGN)
        if dump.count("\n") != len(schedule.segments) + 1:
            problems.append("the CSV dump does not hold one row per segment")
        if svg.count(b"<rect ") != len(schedule.segments) + 1:
            problems.append("the SVG does not hold one rect per segment")
        return problems


def random_instance(rng: random.Random) -> Instance:
    n = rng.randint(1, DEFAULT_CEILING.max_jobs)
    jobs = tuple(
        Job(i, rng.randint(0, ORACLE_MAX_RELEASE), rng.randint(1, ORACLE_MAX_LENGTH))
        for i in range(1, n + 1)
    )
    return Instance(jobs, rng.randint(1, DEFAULT_CEILING.max_machines))


class OracleSmall:
    """Exhaustive optima with and without releases, then SRPT, per instance."""

    name = "oracle-small"

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        items = [(random_instance(rng), DEFAULT_CEILING) for _ in range(ORACLE_BATCH)]
        items.append((workloads.generate(S1_SPEC), S1_CEILING))
        return items

    def label(self, item):
        inst, _ = item
        return f"instance {inst!r}"

    def run(self, item):
        inst, ceiling = item
        with_releases = oracles.brute_force_opt(inst, True, ceiling)
        zero_release = oracles.brute_force_opt(inst, False, ceiling)
        schedule, _ = engine.simulate_srpt(inst)
        return with_releases, zero_release, schedule

    def check(self, item, out):
        inst, _ = item
        with_releases, zero_release, schedule = out
        problems = [
            f"{what}: {v}"
            for what, s in (
                ("release-respecting witness", with_releases.schedule),
                ("zero-release witness", zero_release.schedule),
                ("SRPT schedule", schedule),
            )
            for v in check_schedule(s)[:3]
        ]
        problems += [
            f"{what} optimum {res.makespan} != its witness's makespan {res.schedule.makespan}"
            for what, res in (("release-respecting", with_releases), ("zero-release", zero_release))
            if res.makespan != res.schedule.makespan
        ]
        lower = check_mcnaughton(inst).makespan
        if zero_release.makespan != lower:
            problems.append(f"zero-release optimum {zero_release.makespan} != McNaughton {lower}")
        if with_releases.makespan < zero_release.makespan:
            problems.append(
                f"release-respecting optimum {with_releases.makespan}"
                f" < zero-release optimum {zero_release.makespan}"
            )
        if schedule.makespan < with_releases.makespan:
            problems.append(
                f"SRPT makespan {schedule.makespan}"
                f" < release-respecting optimum {with_releases.makespan}"
            )
        return problems


CASES = {case.name: case for case in (VerifyDefault(), S5Sticky(), S5Reassign(), OracleSmall())}
