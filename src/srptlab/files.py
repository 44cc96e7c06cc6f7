"""Instance and schedule file formats.

Instances are YAML documents, either an explicit job list::

    machines: 2
    jobs:
      - {id: 1, arrival: 0, processing: 3}
      - {id: 2, arrival: 1, processing: 3}

or a class stanza::

    {class: "S1", n: 3, m: 2}

Schedule dumps are CSV with one segment per row: job,machine,start,end.
``_csv_text`` is the one CSV writer; the schedule dump and every CSV table in
reports.py go through it.
"""

from __future__ import annotations

import csv
import io

from .model import Instance, Job, Schedule, Segment
from .workloads import ClassSpec, generate


class ParseError(ValueError):
    """Malformed instance document; carries line/column when known."""


class ConstraintError(ValueError):
    """Instance breaches the model constraints (n >= m, t >= m)."""


_CLASS_KEYS = {"class", "n", "m", "s3_interpretation", "processing_override"}
_INSTANCE_KEYS = {"jobs", "machines"}
_JOB_KEYS = {"id", "arrival", "processing"}


def check_constraints(inst: Instance) -> None:
    violations = inst.constraint_violations()
    if violations:
        raise ConstraintError(
            "; ".join(violations)
            + " -- pass --no-enforce-constraints to schedule it anyway"
        )


def _require_int(value, what: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse an instance document; a class stanza is generated.

    Model constraints are not checked here: check_constraints does that.
    """
    # Imported here so that commands which read no instance file skip it.
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = (
            f" at line {mark.line + 1}, column {mark.column + 1}"
            if mark is not None
            else ""
        )
        raise ParseError(f"instance document is not valid YAML{where}: {exc.problem}")
    except yaml.YAMLError as exc:
        raise ParseError(f"instance document is not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a mapping")

    has_class = "class" in doc
    has_jobs = "jobs" in doc
    if has_class and has_jobs:
        raise ParseError("give either a class stanza or an explicit job list, not both")
    if has_class:
        return generate(_parse_class_stanza(doc))
    if has_jobs:
        return _parse_job_list(doc)
    raise ParseError("instance document needs a 'class' or a 'jobs' key")


def _parse_class_stanza(doc: dict) -> ClassSpec:
    unknown = set(doc) - _CLASS_KEYS
    if unknown:
        raise ParseError(f"unknown class stanza keys: {sorted(unknown)}")
    if "n" not in doc:
        raise ParseError("class stanza needs 'n'")
    try:
        return ClassSpec(
            class_id=doc["class"],
            n=_require_int(doc["n"], "n", 1),
            m=None if doc.get("m") is None else _require_int(doc["m"], "m", 1),
            processing_override=(
                None
                if doc.get("processing_override") is None
                else _require_int(doc["processing_override"], "processing_override", 1)
            ),
            s3_interpretation=doc.get("s3_interpretation"),
        )
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc))


def _parse_job_list(doc: dict) -> Instance:
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise ParseError(f"unknown instance keys: {sorted(unknown)}")
    if "machines" not in doc:
        raise ParseError("explicit instance needs 'machines'")
    machines = _require_int(doc["machines"], "machines", 1)
    raw_jobs = doc["jobs"]
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ParseError("'jobs' must be a non-empty list")

    with_ids = [isinstance(j, dict) and "id" in j for j in raw_jobs]
    if any(with_ids) and not all(with_ids):
        raise ParseError("either give every job an id or none (ids default to 1..n)")

    jobs = []
    seen_ids = set()
    for pos, raw in enumerate(raw_jobs, start=1):
        if not isinstance(raw, dict):
            raise ParseError(f"job #{pos} must be a mapping, got {raw!r}")
        unknown = set(raw) - _JOB_KEYS
        if unknown:
            raise ParseError(f"job #{pos}: unknown keys {sorted(unknown)}")
        for key in ("arrival", "processing"):
            if key not in raw:
                raise ParseError(f"job #{pos} needs '{key}'")
        job_id = _require_int(raw["id"], f"job #{pos} id", 1) if "id" in raw else pos
        if job_id in seen_ids:
            raise ParseError(f"duplicate job id {job_id}")
        seen_ids.add(job_id)
        try:
            jobs.append(
                Job(
                    id=job_id,
                    arrival=_require_int(raw["arrival"], f"job #{pos} arrival"),
                    processing=_require_int(raw["processing"], f"job #{pos} processing"),
                )
            )
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc))
    try:
        return Instance(jobs=tuple(jobs), machines=machines)
    except ValueError as exc:
        raise ParseError(str(exc))


SCHEDULE_COLUMNS = ("job", "machine", "start", "end")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def schedule_to_csv(s: Schedule) -> str:
    return _csv_text(SCHEDULE_COLUMNS, s.segments)


def schedule_from_csv(text: str, instance: Instance | None = None) -> Schedule:
    """Rebuild a schedule from a dump.

    Without an instance file the jobs are inferred from the segments
    (arrival = first start, processing = total units), which requires every
    job id 1..max to appear; pass the real instance for strict validation.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or tuple(rows[0]) != SCHEDULE_COLUMNS:
        raise ParseError(
            f"schedule dump must start with header {','.join(SCHEDULE_COLUMNS)}"
        )
    segments = []
    for pos, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ParseError(f"schedule row {pos} needs 4 cells, got {len(row)}")
        try:
            job, machine, start, end = (int(cell) for cell in row)
        except ValueError:
            raise ParseError(f"schedule row {pos} has non-integer cells: {row}")
        try:
            segments.append(Segment(job, machine, start, end))
        except ValueError as exc:
            raise ParseError(f"schedule row {pos}: {exc}")
    if not segments:
        raise ParseError("schedule dump has no segments")

    if instance is None:
        by_job: dict[int, list[Segment]] = {}
        for seg in segments:
            by_job.setdefault(seg.job_id, []).append(seg)
        top = max(by_job)
        missing = [i for i in range(1, top + 1) if i not in by_job]
        if missing:
            raise ParseError(
                f"cannot infer jobs {missing} (no segments); pass the instance file"
            )
        jobs = tuple(
            Job(
                id=jid,
                arrival=min(seg.start for seg in segs),
                processing=sum(seg.length for seg in segs),
            )
            for jid, segs in sorted(by_job.items())
        )
        instance = Instance(jobs=jobs, machines=max(seg.machine for seg in segments))
    return Schedule.from_segments(instance, segments)
