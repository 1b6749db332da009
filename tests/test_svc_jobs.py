"""Job model: digests, state machine, FIFO queue with retries first."""

import pytest

from repro.svc.jobs import (
    Job,
    JobCancelled,
    JobFailed,
    JobQueue,
    JobSpec,
    JobState,
)


# ----------------------------------------------------------------------
# spec digests
# ----------------------------------------------------------------------

def test_scheduling_hints_do_not_change_the_digest():
    base = JobSpec(experiment="fig04", profile="ci")
    hinted = JobSpec(experiment="fig04", profile="ci", tag="nightly",
                     checkpoint_every=500, checkpoint_dir="resume")
    assert base.digest() == hinted.digest()


def test_result_determining_fields_change_the_digest():
    base = JobSpec(experiment="fig04", profile="ci")
    assert base.digest() != JobSpec(experiment="fig07",
                                    profile="ci").digest()
    assert base.digest() != JobSpec(experiment="fig04",
                                    profile="quick").digest()
    assert base.digest() != JobSpec(
        experiment="fig04", profile="ci",
        profile_overrides=(("widx_skew", 1.2),)).digest()


def test_override_container_spelling_is_normalized():
    a = JobSpec(experiment="fig04",
                profile_overrides=[("widx_skew", 1.2)])  # list of pairs
    b = JobSpec(experiment="fig04",
                profile_overrides=(("widx_skew", 1.2),))
    assert a == b and a.digest() == b.digest()


def test_synthetic_detection():
    assert JobSpec(experiment="sleep:0.5").is_synthetic
    assert JobSpec(experiment="ckpt:widx").is_synthetic
    assert not JobSpec(experiment="fig04").is_synthetic


# ----------------------------------------------------------------------
# job results
# ----------------------------------------------------------------------

def _finish(job, state):
    job.state = state
    job._done.set()


def test_result_raises_by_terminal_state():
    ok = Job(JobSpec(experiment="sleep:0"))
    ok.result_payload = {"rendered": "r", "all_ok": True}
    _finish(ok, JobState.DONE)
    assert ok.result()["rendered"] == "r"

    failed = Job(JobSpec(experiment="sleep:0"))
    failed.error = "boom"
    _finish(failed, JobState.FAILED)
    with pytest.raises(JobFailed, match="boom"):
        failed.result()

    cancelled = Job(JobSpec(experiment="sleep:0"))
    _finish(cancelled, JobState.CANCELLED)
    with pytest.raises(JobCancelled):
        cancelled.result()


def test_result_timeout():
    job = Job(JobSpec(experiment="sleep:0"))
    with pytest.raises(TimeoutError):
        job.result(timeout=0.01)


# ----------------------------------------------------------------------
# queue
# ----------------------------------------------------------------------

def test_fifo_order():
    q = JobQueue()
    jobs = [Job(JobSpec(experiment=f"sleep:{i}")) for i in range(3)]
    for job in jobs:
        q.submit(job)
    assert [q.pop() for _ in jobs] == jobs   # submission order
    assert q.pop() is None


def test_pop_skips_cancelled_entries():
    q = JobQueue()
    doomed = Job(JobSpec(experiment="sleep:0"))
    kept = Job(JobSpec(experiment="sleep:1"))
    q.submit(doomed)
    q.submit(kept)
    doomed.state = JobState.CANCELLED
    assert q.pop() is kept
    assert q.pop() is None


def test_requeue_front_goes_ahead_of_every_pending_job():
    q = JobQueue()
    fresh = [Job(JobSpec(experiment=f"sleep:{i}")) for i in range(2)]
    for job in fresh:
        q.submit(job)
    retries = [Job(JobSpec(experiment=f"sleep:{i}")) for i in (8, 9)]
    for job in retries:
        q.requeue_front(job)
    # retries first, in the order they were requeued, then fresh work
    assert [q.pop() for _ in range(4)] == retries + fresh
