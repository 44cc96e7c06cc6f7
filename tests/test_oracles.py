import gc
import itertools

import pytest
from hypothesis import given, settings

from _strategies import instances
from srptlab import (
    ClassId,
    ClassSpec,
    Instance,
    Job,
    S3Interpretation,
    SearchCeiling,
    SearchCeilingError,
    UnsupportedInstanceError,
    brute_force_opt,
    generate,
    mcnaughton,
    simulate_srpt,
    validate_schedule,
    zero_release_opt,
)


def _inst(processings, releases=None, machines=1):
    releases = releases or [0] * len(processings)
    jobs = tuple(
        Job(id=i + 1, arrival=releases[i], processing=processings[i])
        for i in range(len(processings))
    )
    return Instance(jobs=jobs, machines=machines)


def _reference_optimum(inst):
    """Release-respecting optimum by plain unit-step search: every reachable
    per-job remaining vector, one time layer at a time, with any subset of
    at most m released jobs (idling included) run in each step. No grouping
    of interchangeable jobs and no pruning, so it shares no shortcut with
    brute_force_opt."""
    jobs = inst.jobs
    done = (0,) * len(jobs)
    layer = {tuple(job.processing for job in jobs)}
    t = 0
    while done not in layer:
        successors = set()
        for remaining in layer:
            ready = [
                i for i, job in enumerate(jobs) if job.arrival <= t and remaining[i]
            ]
            for k in range(min(inst.machines, len(ready)) + 1):
                for run in itertools.combinations(ready, k):
                    successors.add(
                        tuple(left - (i in run) for i, left in enumerate(remaining))
                    )
        layer = successors
        t += 1
    return t


class TestZeroReleaseOpt:
    def test_two_equal_jobs_two_machines(self):
        result = zero_release_opt(_inst([2, 2], machines=2))
        assert result.makespan == 2
        assert result.schedule.makespan == result.makespan
        assert validate_schedule(result.schedule) == []

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_n_equal_jobs_on_n_machines(self, n):
        inst = generate(ClassSpec(ClassId.S1, n=n, m=n))
        assert zero_release_opt(inst).makespan == n

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_s4_two_rounds(self, n):
        inst = generate(ClassSpec(ClassId.S4, n=n))
        assert zero_release_opt(inst).makespan == 2 * n

    def test_partial_last_round(self):
        result = zero_release_opt(_inst([2, 2, 2], machines=2))
        assert result.makespan == 4  # ceil(3/2) * 2
        assert mcnaughton(_inst([2, 2, 2], machines=2)).makespan == 3

    def test_round_layout_is_index_order(self):
        result = zero_release_opt(_inst([2, 2, 2], machines=2))
        segs = {(s.job_id): (s.machine, s.start, s.end) for s in result.schedule.segments}
        assert segs == {1: (1, 0, 2), 2: (2, 0, 2), 3: (1, 2, 4)}

    def test_witness_ignores_releases_by_zeroing_them(self):
        inst = _inst([2, 2], releases=[0, 5], machines=2)
        result = zero_release_opt(inst)
        assert result.makespan == 2
        assert validate_schedule(result.schedule) == []
        assert all(j.arrival == 0 for j in result.schedule.instance.jobs)

    def test_unequal_processing_rejected_with_pointer(self):
        with pytest.raises(UnsupportedInstanceError) as err:
            zero_release_opt(_inst([2, 3], machines=2))
        assert "mcnaughton" in str(err.value)
        assert "brute_force_opt" in str(err.value)


class TestMcnaughton:
    def test_s1_n4_m2(self):
        inst = generate(ClassSpec(ClassId.S1, n=4, m=2))
        assert mcnaughton(inst).makespan == 8

    def test_single_job_bound(self):
        assert mcnaughton(_inst([7], machines=3)).makespan == 7

    def test_longest_job_dominates(self):
        assert mcnaughton(_inst([3, 1, 1], machines=2)).makespan == 3

    def test_no_witness_schedule(self):
        assert mcnaughton(_inst([3], machines=1)).schedule is None


class TestBruteForce:
    def test_perfectly_parallel(self):
        result = brute_force_opt(_inst([2, 2], machines=2), respect_releases=False)
        assert result.makespan == 2

    def test_release_pushes_makespan(self):
        result = brute_force_opt(
            _inst([2, 2], releases=[0, 1], machines=2), respect_releases=True
        )
        assert result.makespan == 3

    def test_serial_sum_on_one_machine(self):
        assert brute_force_opt(_inst([3, 3]), respect_releases=False).makespan == 6

    def test_s1_n3_m2_with_releases(self):
        # Independent oracle value: releases 0,1,2 of three 3-unit jobs on
        # two machines admit a 5-unit schedule (capacity bound 1 + 2*4 = 9).
        inst = generate(ClassSpec(ClassId.S1, n=3, m=2))
        result = brute_force_opt(inst, respect_releases=True)
        assert result.makespan == 5
        srpt, _ = simulate_srpt(inst)
        assert srpt.makespan >= result.makespan

    def test_s1_n4_m2_with_releases_matches_srpt(self):
        # The first idle unit on machine 2 is unavoidable, so 16 units of
        # work cannot finish before 9; SRPT attains exactly that.
        inst = generate(ClassSpec(ClassId.S1, n=4, m=2))
        result = brute_force_opt(inst, respect_releases=True)
        assert result.makespan == 9
        srpt, _ = simulate_srpt(inst)
        assert srpt.makespan == result.makespan

    def test_witness_is_valid_and_matches_makespan(self):
        inst = _inst([3, 2, 2], releases=[0, 1, 3], machines=2)
        result = brute_force_opt(inst, respect_releases=True)
        assert validate_schedule(result.schedule) == []
        assert result.schedule.makespan == result.makespan

    def test_search_leaves_no_garbage_cycle(self):
        # The failed-state memo must be freed on return, not at the next GC.
        inst = generate(ClassSpec(ClassId.S1, n=4, m=2))
        brute_force_opt(inst, True)
        gc.collect()
        gc.disable()
        try:
            brute_force_opt(inst, True)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ceiling_refusal_states_limits(self):
        big = _inst([5] * 7, machines=2)
        with pytest.raises(SearchCeilingError) as err:
            brute_force_opt(big, respect_releases=False)
        msg = str(err.value)
        assert "jobs <= 6" in msg
        assert "machines <= 4" in msg
        assert "total work <= 30" in msg

    @pytest.mark.parametrize("field", ["max_jobs", "max_machines", "max_total_work"])
    @pytest.mark.parametrize(
        "value, problem",
        [
            ("6", "must be an integer, got '6'"),
            (None, "must be an integer, got None"),
            (True, "must be an integer, got True"),
            (2.5, "must be an integer, got 2.5"),
            (0, "must be >= 1, got 0"),
        ],
        ids=["str", "none", "bool", "float", "zero"],
    )
    def test_ceiling_bounds_are_integers_of_at_least_one(self, field, value, problem):
        with pytest.raises(ValueError) as err:
            SearchCeiling(**{field: value})
        assert str(err.value) == f"search ceiling {field} {problem}"

    def test_ceiling_is_configurable(self):
        big = _inst([5] * 7, machines=2)
        loose = SearchCeiling(max_jobs=10, max_machines=4, max_total_work=40)
        assert brute_force_opt(big, respect_releases=False, ceiling=loose).makespan == 18

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_s1_m2_even_n_optimum_is_srpt_makespan(self, n):
        # The capacity prune cuts short the search of every target below
        # n^2/2 + 1, which is what makes n = 12 (144 units) take milliseconds.
        inst = generate(ClassSpec(ClassId.S1, n=n, m=2))
        loose = SearchCeiling(max_jobs=n, max_machines=2, max_total_work=n * n)
        result = brute_force_opt(inst, respect_releases=True, ceiling=loose)
        assert result.makespan == n * n // 2 + 1
        srpt, _ = simulate_srpt(inst)
        assert srpt.makespan == result.makespan
        assert validate_schedule(result.schedule) == []

    def test_s1_n6_m2_zero_release_optimum_is_mcnaughton(self):
        inst = generate(ClassSpec(ClassId.S1, n=6, m=2))
        loose = SearchCeiling(max_total_work=36)
        assert brute_force_opt(inst, respect_releases=False, ceiling=loose).makespan == 18
        assert mcnaughton(inst).makespan == 18

    @pytest.mark.parametrize("n", [2, 3])
    def test_s3_literal_zero_release_optimum_is_2n(self, n):
        inst = generate(
            ClassSpec(ClassId.S3, n=n, s3_interpretation=S3Interpretation.LITERAL_2N)
        )
        result = brute_force_opt(inst, respect_releases=False)
        assert result.makespan == 2 * n
        assert mcnaughton(inst).makespan == 2 * n


class TestOracleAgreement:
    def test_exhaustive_zero_release_equals_mcnaughton(self):
        # Every processing-time multiset with n <= 4, values 1..4, m <= 3.
        for n in range(1, 5):
            for times in itertools.combinations_with_replacement(range(1, 5), n):
                for m in range(1, 4):
                    inst = _inst(list(times), machines=m)
                    brute = brute_force_opt(inst, respect_releases=False)
                    assert brute.makespan == mcnaughton(inst).makespan, (times, m)

    @given(inst=instances())
    @settings(max_examples=60, deadline=None)
    def test_zero_release_matches_mcnaughton(self, inst):
        brute = brute_force_opt(inst, respect_releases=False)
        assert brute.makespan == mcnaughton(inst).makespan

    @given(inst=instances())
    @settings(max_examples=60, deadline=None)
    def test_releases_never_shrink_the_optimum(self, inst):
        with_rel = brute_force_opt(inst, respect_releases=True)
        without = brute_force_opt(inst, respect_releases=False)
        assert with_rel.makespan >= without.makespan
        assert validate_schedule(with_rel.schedule) == []
        assert validate_schedule(without.schedule) == []

    @given(inst=instances(max_n=4, max_processing=3))
    @settings(max_examples=80, deadline=None)
    def test_release_respecting_optimum_matches_plain_unit_step_search(self, inst):
        # An unsound prune would raise the optimum; this catches it even
        # where SRPT's makespan would hide it.
        assert brute_force_opt(inst, True).makespan == _reference_optimum(inst)

    @given(inst=instances())
    @settings(max_examples=60, deadline=None)
    def test_srpt_dominates_release_respecting_optimum(self, inst):
        srpt, _ = simulate_srpt(inst)
        best = brute_force_opt(inst, respect_releases=True)
        assert srpt.makespan >= best.makespan

    @given(inst=instances(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_mcnaughton_never_exceeds_indexed_rounds(self, inst):
        lengths = {j.processing for j in inst.jobs}
        if len(lengths) != 1:
            return
        assert mcnaughton(inst).makespan <= zero_release_opt(inst).makespan
