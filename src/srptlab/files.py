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
from dataclasses import fields

from .model import Instance, Job, Schedule, Segment, _quote, _refuse_invalid
from .workloads import ClassSpec, generate


class ParseError(ValueError):
    """Malformed instance document; carries line/column when known."""


# A document's keys are the fields of the type it builds; a class stanza
# names the class_id field "class".
_CLASS_KEYS = {f.name for f in fields(ClassSpec) if f.name != "class_id"}
_INSTANCE_KEYS = {f.name for f in fields(Instance)}
_JOB_KEYS = set(Job._fields)


def parse_instance(text: str) -> Instance:
    """Parse an instance document; a class stanza is generated.

    Only the document's shape is checked here: keys, and ids given for all
    jobs or none. Job, Instance and ClassSpec check the values, integer-ness
    included, and their ValueErrors are raised again as ParseError.
    The model constraints (n >= m, t >= m) are not checked.
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
    if not (has_class or has_jobs):
        raise ParseError("instance document needs a 'class' or a 'jobs' key")
    try:
        return generate(_parse_class_stanza(doc)) if has_class else _parse_job_list(doc)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_class_stanza(doc: dict) -> ClassSpec:
    rest = {key: value for key, value in doc.items() if key != "class"}
    unknown = set(rest) - _CLASS_KEYS
    if unknown:
        raise ParseError(f"unknown class stanza keys: {_quote(sorted(unknown, key=str))}")
    if "n" not in rest:
        raise ParseError("class stanza needs 'n'")
    return ClassSpec(class_id=doc["class"], **rest)


def _parse_job_list(doc: dict) -> Instance:
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise ParseError(f"unknown instance keys: {_quote(sorted(unknown, key=str))}")
    if "machines" not in doc:
        raise ParseError("explicit instance needs 'machines'")
    raw_jobs = doc["jobs"]
    if not isinstance(raw_jobs, list):
        raise ParseError(f"'jobs' must be a list, got {_quote(raw_jobs)}")

    with_ids = [isinstance(j, dict) and "id" in j for j in raw_jobs]
    if any(with_ids) and not all(with_ids):
        raise ParseError("either give every job an id or none (ids default to 1..n)")

    jobs = []
    for pos, raw in enumerate(raw_jobs, start=1):
        if not isinstance(raw, dict):
            raise ParseError(f"job #{pos} must be a mapping, got {_quote(raw)}")
        unknown = set(raw) - _JOB_KEYS
        if unknown:
            raise ParseError(f"job #{pos}: unknown keys {_quote(sorted(unknown, key=str))}")
        for key in ("arrival", "processing"):
            if key not in raw:
                raise ParseError(f"job #{pos} needs '{key}'")
        jobs.append(Job(raw.get("id", pos), raw["arrival"], raw["processing"]))
    return Instance(jobs=tuple(jobs), machines=doc["machines"])


SCHEDULE_COLUMNS = ("job", "machine", "start", "end")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def schedule_to_csv(s: Schedule) -> str:
    """Dump a validated schedule; an invalid one is refused with its first
    violations, as render_gantt refuses it."""
    _refuse_invalid(s, "dump")
    return _csv_text(SCHEDULE_COLUMNS, s.segments)


def schedule_from_csv(text: str, instance: Instance | None = None) -> Schedule:
    """Rebuild a schedule from a dump.

    Without an instance file the jobs are inferred from the segments
    (arrival = first start, processing = total units), which requires every
    job id 1..max to appear; pass the real instance for strict validation.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ParseError(f"schedule dump is not valid CSV: {exc}") from None
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
            raise ParseError(f"schedule row {pos} has non-integer cells: {_quote(row)}")
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
        jobs = tuple(
            Job(
                id=jid,
                arrival=min(seg.start for seg in segs),
                processing=sum(seg.length for seg in segs),
            )
            for jid, segs in sorted(by_job.items())
        )
        # The ids are unique and sorted, so they run 1..n unless the last is
        # not n; the message names the first gap, not every id.
        if jobs[-1].id != len(jobs):
            gap = next(i for i, job in enumerate(jobs, start=1) if job.id != i)
            raise ParseError(
                f"cannot infer job {gap} (no segments); pass the instance file"
            )
        instance = Instance(jobs, max(seg.machine for seg in segments))
    return Schedule.from_segments(instance, segments)
