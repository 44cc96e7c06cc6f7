import pytest
import yaml
from hypothesis import given, settings

from _strategies import instances
from srptlab import ClassSpec, Instance, Job, Schedule, Segment, generate, simulate_srpt
from srptlab.cli import main
from srptlab.files import ParseError, parse_instance, schedule_from_csv, schedule_to_csv


def serialize_instance(inst: Instance) -> str:
    """Deterministic YAML for an explicit instance; parse round-trips."""
    doc = {
        "machines": inst.machines,
        "jobs": [
            {"id": j.id, "arrival": j.arrival, "processing": j.processing}
            for j in inst.jobs
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


class TestParseClassStanza:
    def test_s2_stanza(self):
        inst = parse_instance('{class: "S2", n: 3}')
        assert inst == generate(ClassSpec("S2", n=3))
        assert inst.machines == 3
        assert all(j.processing == 4 for j in inst.jobs)
        assert [j.arrival for j in inst.jobs] == [0, 1, 2]

    def test_stanza_with_overrides(self):
        inst = parse_instance(
            '{class: "S3", n: 4, m: 3, s3_interpretation: "theorem-n-plus-2"}'
        )
        assert inst == generate(
            ClassSpec("S3", n=4, m=3, s3_interpretation="theorem-n-plus-2")
        )
        assert inst.machines == 3
        assert all(j.processing == 6 for j in inst.jobs)

    def test_stanza_needs_n(self):
        with pytest.raises(ParseError):
            parse_instance('{class: "S2"}')

    def test_unknown_stanza_key(self):
        with pytest.raises(ParseError):
            parse_instance('{class: "S2", n: 3, speed: 2}')

    def test_stanza_keys_are_the_spec_fields(self):
        inst = parse_instance('{class: parametric, n: 3, m: 2, processing_override: 4}')
        assert inst == generate(ClassSpec("parametric", n=3, m=2, processing_override=4))
        # "class" is the stanza's name for class_id; the field name itself
        # is not a stanza key.
        with pytest.raises(ParseError, match="unknown class stanza keys: \\['class_id'\\]"):
            parse_instance('{class: S2, class_id: S3, n: 3}')

    def test_bad_class_name(self):
        with pytest.raises(ParseError):
            parse_instance('{class: "S9", n: 3}')


class TestParseJobList:
    def test_single_job(self):
        inst = parse_instance("{jobs: [{arrival: 0, processing: 5}], machines: 1}")
        assert isinstance(inst, Instance)
        assert inst.jobs == (Job(1, 0, 5),)

    def test_ids_default_in_listed_order(self):
        inst = parse_instance(
            "machines: 2\n"
            "jobs:\n"
            "  - {arrival: 0, processing: 2}\n"
            "  - {arrival: 1, processing: 2}\n"
        )
        assert [j.id for j in inst.jobs] == [1, 2]

    def test_explicit_ids(self):
        inst = parse_instance(
            "machines: 2\n"
            "jobs:\n"
            "  - {id: 2, arrival: 1, processing: 2}\n"
            "  - {id: 1, arrival: 0, processing: 2}\n"
        )
        assert {job.id: job for job in inst.jobs}[1].arrival == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                "machines: 2\n"
                "jobs:\n"
                "  - {id: 1, arrival: 0, processing: 2}\n"
                "  - {id: 1, arrival: 1, processing: 2}\n"
            )

    def test_mixed_id_presence_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                "machines: 2\n"
                "jobs:\n"
                "  - {id: 1, arrival: 0, processing: 2}\n"
                "  - {arrival: 1, processing: 2}\n"
            )

    def test_negative_arrival_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_instance("{jobs: [{arrival: -1, processing: 5}], machines: 1}")
        assert "arrival" in str(err.value)

    def test_malformed_yaml_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_instance("jobs: [{arrival: 0, processing: 5}\nmachines: 1")
        assert "line" in str(err.value)

    def test_both_stanza_and_jobs_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{class: "S1", n: 2, jobs: [], machines: 1}')

    def test_neither_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("machines: 3")


class TestConstraintEnforcement:
    TOO_FEW_JOBS = (
        "{jobs: [{arrival: 0, processing: 1}, {arrival: 0, processing: 1}],"
        " machines: 3}"
    )

    @staticmethod
    def simulate(tmp_path, capsys, doc):
        path = tmp_path / "inst.yaml"
        path.write_text(doc)
        code = main(["simulate", "--in", str(path)])
        return code, capsys.readouterr()

    def test_enforced_by_default(self, tmp_path, capsys):
        # Parsing never checks the model constraints; the command line does,
        # unless --no-enforce-constraints is given.
        inst = parse_instance(self.TOO_FEW_JOBS)
        assert inst.machines == 3
        code, (out, err) = self.simulate(tmp_path, capsys, self.TOO_FEW_JOBS)
        assert code == 1
        assert out == ""
        assert "n >= m" in err
        assert "--no-enforce-constraints" in err

    def test_short_jobs_flagged(self, tmp_path, capsys):
        code, (out, err) = self.simulate(
            tmp_path,
            capsys,
            "{jobs: [{arrival: 0, processing: 1}, {arrival: 0, processing: 9}],"
            " machines: 2}",
        )
        assert code == 1
        assert out == ""
        assert "t >= m" in err


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        text = (
            "machines: 2\n"
            "jobs:\n"
            "  - {arrival: 0, processing: 3}\n"
            "  - {arrival: 1, processing: 3}\n"
        )
        inst = parse_instance(text)
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    @given(inst=instances())
    @settings(max_examples=80)
    def test_round_trip_on_arbitrary_instances(self, inst):
        assert parse_instance(serialize_instance(inst)) == inst


class TestScheduleDump:
    def test_round_trip(self):
        inst = parse_instance("{jobs: [{arrival: 0, processing: 4}], machines: 2}")
        schedule, _ = simulate_srpt(inst)
        text = schedule_to_csv(schedule)
        assert text.splitlines()[0] == "job,machine,start,end"
        back = schedule_from_csv(text, inst)
        assert back == schedule

    def test_invalid_schedule_is_refused(self):
        inst = Instance((Job(1, 0, 2),), machines=1)
        broken = Schedule.from_segments(inst, [Segment(1, 1, 0, 3)])
        with pytest.raises(ValueError, match="cannot dump an invalid schedule: job 1"):
            schedule_to_csv(broken)

    def test_inferred_instance(self):
        text = "job,machine,start,end\n1,1,0,2\n2,2,1,3\n"
        schedule = schedule_from_csv(text)
        assert schedule.instance.machines == 2
        assert {job.id: job for job in schedule.instance.jobs}[2] == Job(2, 1, 2)
        assert schedule.makespan == 3

    def test_missing_job_segments_cannot_infer(self):
        text = "job,machine,start,end\n2,1,0,2\n"
        with pytest.raises(ParseError):
            schedule_from_csv(text)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            schedule_from_csv("a,b\n1,2\n")

    def test_non_integer_cells(self):
        with pytest.raises(ParseError):
            schedule_from_csv("job,machine,start,end\n1,1,zero,2\n")
