"""Shared hypothesis strategies for small scheduling instances, every
workload family at given sizes, and an adapter from the engine's snapshot
log to its decision-loop items."""

from hypothesis import strategies as st

from srptlab import ClassId, ClassSpec, Instance, Job, S3Interpretation


@st.composite
def instances(draw, max_n=5, max_m=3, max_processing=4, max_arrival=4):
    """Small arbitrary instances, sized to fit the exhaustive-search ceiling."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    jobs = tuple(
        Job(
            id=i,
            arrival=draw(st.integers(0, max_arrival)),
            processing=draw(st.integers(1, max_processing)),
        )
        for i in range(1, n + 1)
    )
    return Instance(jobs=jobs, machines=m)


def families(ns):
    """Every family, S1 on 2 and on n machines and S3 under both readings,
    at each n."""
    for n in ns:
        yield ClassSpec(ClassId.S1, n, m=2)
        yield ClassSpec(ClassId.S1, n, m=n)
        yield ClassSpec(ClassId.S2, n)
        for reading in S3Interpretation:
            yield ClassSpec(ClassId.S3, n, s3_interpretation=reading)
        yield ClassSpec(ClassId.S4, n)
        yield ClassSpec(ClassId.S5, n)
        yield ClassSpec(ClassId.PARAMETRIC, n)


def loop_items(log):
    """Turn select_srpt's Epoch log into the (time, running, waiting, stopped,
    started) items engine.place consumes: running as (time + remaining, id)
    pairs, waiting as the sorted (remaining, id) pairs of the other snapshot
    jobs (a sorted list is a heap), and stopped/started as the set
    differences of consecutive running sets, with started in running order.
    An independent route to place's input."""
    before = ()
    for epoch in log:
        left = dict(epoch.remaining)
        running = [(epoch.time + left[job_id], job_id) for job_id in epoch.running]
        waiting = sorted(
            (work, job_id)
            for job_id, work in epoch.remaining
            if job_id not in epoch.running
        )
        stopped = sorted(set(before) - set(epoch.running))
        started = [job_id for job_id in epoch.running if job_id not in before]
        yield epoch.time, running, waiting, stopped, started
        before = epoch.running
