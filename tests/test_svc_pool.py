"""Worker pool: crash detection/replacement and deterministic
crash-retry with byte-identical results."""

import pytest

from repro.svc.jobs import JobSpec
from repro.svc.pool import CRASH_ONCE_ENV, WorkerPool
from repro.svc.service import Service


# ----------------------------------------------------------------------
# bare pool mechanics
# ----------------------------------------------------------------------

def test_pool_boots_and_reports_health():
    pool = WorkerPool(workers=2)
    pool.start()
    try:
        pool.wait_ready(timeout=60)
        assert len(pool.idle_workers()) == 2
    finally:
        pool.stop()
    assert pool.idle_workers() == []


# ----------------------------------------------------------------------
# crash mid-job: retry on a fresh worker, byte-identical result
# ----------------------------------------------------------------------

def test_worker_crash_mid_job_retries_with_identical_result(
        tmp_path, monkeypatch):
    marker = tmp_path / "crash-once"
    spec = JobSpec(experiment="tab01", profile="ci")

    # reference run, no fault injection
    monkeypatch.delenv(CRASH_ONCE_ENV, raising=False)
    with Service(workers=1) as svc:
        reference = svc.submit(spec)
        ref_payload = reference.result(timeout=120)
        ref_digest = reference.result_digest

    # faulted run: the first worker to pick the job up dies mid-job
    monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
    with Service(workers=1) as svc:
        job = svc.submit(spec)
        payload = job.result(timeout=120)
        assert marker.exists()              # the crash really happened
        assert job.attempts == 2            # dispatched, died, retried
        assert svc.pool.restarts == 1       # the slot was replaced
        assert svc.metrics()["retries"] == 1
        # the store recorded exactly one complete result, never a
        # partial one from the crashed attempt
        assert svc.store.stats.stores == 1
        stored = svc.store.get(job.digest)
        assert stored["rendered"] == payload["rendered"]

    # byte-identical to the undisturbed run
    assert payload["rendered"] == ref_payload["rendered"]
    assert payload["all_ok"] == ref_payload["all_ok"]
    assert job.result_digest == ref_digest


def test_repeated_crashes_fail_the_job(tmp_path, monkeypatch):
    """A job whose every attempt dies ends FAILED, not retried forever."""
    from repro.svc.jobs import JobFailed

    # a marker path that can never exist: the worker crashes every time
    marker = tmp_path / "no-such-dir" / "crash-always"
    monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="sleep:0.1"))
        with pytest.raises(JobFailed, match="died"):
            job.result(timeout=120)
        assert job.attempts == Service.MAX_ATTEMPTS + 1
        assert svc.store.stats.stores == 0
