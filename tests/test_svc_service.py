"""Service end-to-end: lifecycle, dedup/coalescing, admission, cancel,
the sweep front-end. Worker pools are real spawned processes, so tests
share small pools and lean on the synthetic ``sleep:`` experiment."""

import threading
import time

import pytest

from repro.svc.jobs import AdmissionBusy, JobCancelled, JobSpec, JobState
from repro.svc.service import Service, sweep_specs


def _wait_state(job, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state is not state:
        if time.monotonic() > deadline:
            raise TimeoutError(f"job never reached {state}: {job!r}")
        time.sleep(0.01)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------

def test_submit_running_done_lifecycle():
    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="sleep:0.3"))
        assert job.state in (JobState.PENDING, JobState.RUNNING)
        _wait_state(job, JobState.RUNNING)
        payload = job.result(timeout=30)
        assert job.state is JobState.DONE
        assert payload["rendered"] == "== sleep: 0.3s =="
        assert payload["all_ok"] is True
        assert job.result_digest  # content hash of the result
        assert job.attempts == 1


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

        stats = svc.store.stats
        assert stats.misses == 1       # one simulation ran
        assert stats.coalesced == 4    # four submits joined it
        assert primary.followers == 4
        metrics = svc.metrics()
        assert metrics["submitted"] == 5
        assert metrics["coalesced"] == 4
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
# bounded admission
# ----------------------------------------------------------------------

def test_backpressure_returns_retry_after():
    with Service(workers=1, max_pending=1) as svc:
        running = svc.submit(JobSpec(experiment="sleep:1"))
        _wait_state(running, JobState.RUNNING)  # popped; queue is empty
        queued = svc.submit(JobSpec(experiment="sleep:1.1"))
        with pytest.raises(AdmissionBusy) as excinfo:
            svc.submit(JobSpec(experiment="sleep:1.2"))
        assert excinfo.value.retry_after > 0
        assert svc.metrics()["rejected"] == 1
        # identical concurrent work still coalesces past a full queue
        again = svc.submit(JobSpec(experiment="sleep:1.1"))
        assert again is queued


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------

def test_cancel_pending_job():
    with Service(workers=1) as svc:
        blocker = svc.submit(JobSpec(experiment="sleep:1"))
        _wait_state(blocker, JobState.RUNNING)
        pending = svc.submit(JobSpec(experiment="sleep:2"))
        assert svc.cancel(pending)
        with pytest.raises(JobCancelled):
            pending.result(timeout=5)
        assert not svc.cancel(pending)  # already finished


def test_pending_count_drops_cancelled_jobs():
    """Sleep-free (the service never starts): a cancelled job leaves the
    pending count at once, not again when pop() skips its entry, and
    close() leaves nothing pending."""
    svc = Service(workers=1)
    job = svc.submit(JobSpec(experiment="sleep:1"))
    assert svc.cancel(job)
    assert svc.queue.pop() is None  # the cancelled entry is skipped
    assert svc.metrics()["pending"] == 0
    svc.telemetry_snapshot()          # syncs the queue_depth gauge
    assert svc.registry.value("queue_depth") == 0
    svc.close()

    svc = Service(workers=1)
    for seconds in (1, 2, 3):
        svc.submit(JobSpec(experiment=f"sleep:{seconds}"))
    svc.close()
    assert svc.metrics()["pending"] == 0


def test_cancel_running_job_kills_the_worker():
    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="sleep:30"))
        _wait_state(job, JobState.RUNNING)
        assert svc.cancel(job)
        with pytest.raises(JobCancelled):
            job.result(timeout=5)
        # the slot respawned and keeps serving
        after = svc.submit(JobSpec(experiment="sleep:0.05"))
        after.result(timeout=60)
        assert svc.pool.restarts == 1
        # nothing was stored for the cancelled digest
        assert not svc.store.contains(job.digest)


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


def test_sweep_runs_distinct_points_through_the_service():
    specs = sweep_specs("sleep:0.05", grid={}, repeat=3)
    assert len(specs) == 3
    with Service(workers=1) as svc:
        jobs = [svc.submit(s) for s in specs]
        for job in jobs:
            job.result(timeout=30)
        assert svc.store.stats.misses == 1  # all three deduped
