"""Job model: digests, state machine, priority queue, bounded admission."""

import pytest

from repro.svc.jobs import (
    AdmissionBusy,
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
    hinted = JobSpec(experiment="fig04", profile="ci", priority=9,
                     stream_interval=100, tag="nightly")
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

def test_priority_order_with_fifo_ties():
    q = JobQueue()
    low = Job(JobSpec(experiment="sleep:0", priority=0))
    first_high = Job(JobSpec(experiment="sleep:1", priority=5))
    second_high = Job(JobSpec(experiment="sleep:2", priority=5))
    for job in (low, first_high, second_high):
        q.submit(job)
    assert q.pop() is first_high     # priority wins
    assert q.pop() is second_high    # ties pop in submission order
    assert q.pop() is low
    assert q.pop() is None


def test_bounded_admission_raises_with_retry_hint():
    q = JobQueue(max_pending=2)
    q.submit(Job(JobSpec(experiment="sleep:0")))
    q.submit(Job(JobSpec(experiment="sleep:1")))
    with pytest.raises(AdmissionBusy) as excinfo:
        q.submit(Job(JobSpec(experiment="sleep:2")), workers=2)
    assert excinfo.value.retry_after > 0
    assert excinfo.value.pending == 2


def test_pop_skips_cancelled_entries():
    q = JobQueue()
    doomed = Job(JobSpec(experiment="sleep:0"))
    kept = Job(JobSpec(experiment="sleep:1"))
    q.submit(doomed)
    q.submit(kept)
    doomed.state = JobState.CANCELLED
    assert q.pending == 1
    assert q.pop() is kept
    assert q.pending == 0


def test_requeue_front_beats_every_priority():
    q = JobQueue()
    urgent = Job(JobSpec(experiment="sleep:0", priority=100))
    q.submit(urgent)
    retried = Job(JobSpec(experiment="sleep:1", priority=0))
    q.requeue_front(retried)
    assert q.pop() is retried


def test_retry_after_tracks_observed_durations():
    q = JobQueue(max_pending=1)
    for _ in range(20):
        q.note_duration(10.0)  # long jobs observed
    q.submit(Job(JobSpec(experiment="sleep:0")))
    with pytest.raises(AdmissionBusy) as excinfo:
        q.submit(Job(JobSpec(experiment="sleep:1")), workers=1)
    assert excinfo.value.retry_after > 5.0
