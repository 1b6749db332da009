"""Service end-to-end: lifecycle, dedup/coalescing, close(), the
sweep front-end. Worker pools are real spawned processes, so tests
share small pools and lean on the synthetic ``sleep:`` experiment."""

import threading

import pytest

from repro.svc.jobs import JobCancelled, JobSpec, JobState
from repro.svc.service import Service, sweep_specs


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------

def test_submit_running_done_lifecycle():
    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="sleep:0.3"))
        assert job.state in (JobState.PENDING, JobState.RUNNING)
        payload = job.result(timeout=30)
        assert job.state is JobState.DONE
        # it ran on a worker once, dispatched between admit and finish
        assert job.worker is not None
        assert job.attempts == 1
        assert (job.ts["admitted"] <= job.ts["dispatched"]
                <= job.ts["finished"])
        assert payload["rendered"] == "== sleep: 0.3s =="
        assert payload["all_ok"] is True
        assert job.result_digest  # content hash of the result


def test_start_wait_ready_polls_the_pool_from_one_thread():
    """start(wait_ready=True) must not read the pool's pipes while the
    control loop reads them too: two readers on one pipe can hang."""
    svc = Service(workers=1, store=None)
    gate = threading.Lock()
    overlaps = set()   # threads that found another one inside poll
    poll = svc.pool.poll

    def exclusive_poll(timeout=0.05):
        if not gate.acquire(blocking=False):
            overlaps.add(threading.current_thread().name)
            return []
        try:
            return poll(timeout)
        finally:
            gate.release()

    svc.pool.poll = exclusive_poll
    try:
        svc.start(wait_ready=True)
        payload = svc.submit(JobSpec(experiment="sleep:0.05")).result(
            timeout=60)
        assert payload["all_ok"] is True
    finally:
        svc.close()
    assert not overlaps


def test_real_experiment_through_the_service():
    from repro.harness import run_experiment

    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="tab01", profile="ci"))
        payload = job.result(timeout=120)
    report = run_experiment("tab01", "ci")
    assert payload["rendered"] == report.render()
    assert payload["all_ok"] == report.all_ok


def test_unknown_experiment_rejected_at_submit():
    with Service(workers=1) as svc:
        with pytest.raises(ValueError, match="unknown experiment"):
            svc.submit(JobSpec(experiment="fig99"))
        with pytest.raises(ValueError, match="bad sleep"):
            svc.submit(JobSpec(experiment="sleep:soon"))


# ----------------------------------------------------------------------
# dedup: store hits and in-flight coalescing
# ----------------------------------------------------------------------

def test_sequential_identical_submits_hit_the_store():
    with Service(workers=1) as svc:
        first = svc.submit(JobSpec(experiment="sleep:0.1"))
        first.result(timeout=30)
        second = svc.submit(JobSpec(experiment="sleep:0.1"))
        assert second.from_store
        assert second.result(0) == first.result(0)
        stats = svc.store.stats
        assert stats.misses == 1   # exactly one simulation
        assert stats.hits == 1
        assert stats.stores == 1


def test_concurrent_identical_submits_coalesce_to_one_simulation():
    """N identical concurrent submits -> 1 simulation, N results."""
    spec = JobSpec(experiment="sleep:0.4")
    with Service(workers=2) as svc:
        jobs, errors = [], []

        def submit():
            try:
                jobs.append(svc.submit(spec))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(jobs) == 5
        primary = jobs[0]
        assert all(job is primary for job in jobs)  # one shared Job
        payloads = [job.result(timeout=30) for job in jobs]
        assert all(p == payloads[0] for p in payloads)

        assert svc.store.stats.misses == 1   # one simulation ran
        assert primary.followers == 4
        metrics = svc.metrics()
        assert metrics["submitted"] == 5
        assert metrics["coalesced"] == 4     # four submits joined it
        assert metrics["completed"] == 1


def test_dedup_disabled_without_a_store():
    with Service(workers=1, store=None) as svc:
        first = svc.submit(JobSpec(experiment="sleep:0.05"))
        first.result(timeout=30)
        second = svc.submit(JobSpec(experiment="sleep:0.05"))
        assert second is not first
        assert not second.from_store
        second.result(timeout=30)
        assert svc.metrics()["completed"] == 2


# ----------------------------------------------------------------------
# close
# ----------------------------------------------------------------------

def test_close_cancels_queued_jobs():
    """Sleep-free (the service never starts): close() ends every queued
    job CANCELLED, wakes its waiters and leaves nothing to dispatch."""
    svc = Service(workers=1)
    jobs = [svc.submit(JobSpec(experiment=f"sleep:{seconds}"))
            for seconds in (1, 2, 3)]
    svc.close()
    for job in jobs:
        assert job.state is JobState.CANCELLED
        with pytest.raises(JobCancelled):
            job.result(timeout=0)
    assert svc.queue.pop() is None
    assert svc.metrics()["cancelled"] == 3


# ----------------------------------------------------------------------
# sweep front-end
# ----------------------------------------------------------------------

def test_sweep_specs_cartesian_product_and_repeat():
    specs = sweep_specs("fig04", "ci",
                        grid={"widx_skew": [1.2, 1.4],
                              "seed": [7, 11]}, repeat=2)
    assert len(specs) == 8
    assert len({s.digest() for s in specs}) == 4  # repeats dedup
    overrides = {s.profile_overrides for s in specs}
    assert (("seed", 7), ("widx_skew", 1.2)) in overrides


def test_sweep_specs_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown profile field"):
        sweep_specs("fig04", grid={"no_such_knob": [1]})


@pytest.mark.parametrize("repeat", [0, -2])
def test_sweep_specs_rejects_repeat_below_one(repeat):
    with pytest.raises(ValueError, match="repeat must be >= 1"):
        sweep_specs("fig04", repeat=repeat)


def test_sweep_runs_distinct_points_through_the_service():
    specs = sweep_specs("sleep:0.05", grid={}, repeat=3)
    assert len(specs) == 3
    with Service(workers=1) as svc:
        jobs = [svc.submit(s) for s in specs]
        for job in jobs:
            job.result(timeout=30)
        assert svc.store.stats.misses == 1  # all three deduped
