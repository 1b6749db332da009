"""Job model for the simulation service (``repro.svc.jobs``).

A :class:`JobSpec` is a declarative, picklable request — which
experiment, which profile (plus optional field overrides), what to
capture, how often to checkpoint. Its :meth:`~JobSpec.digest` is
the canonical content address (config + workload + code version, see
:mod:`repro.svc.store`) that drives result-store hits and in-flight
coalescing.

:class:`Job` is the coordinator-side execution record: state machine
(``PENDING → RUNNING → DONE | FAILED | CANCELLED``), attempt counter
(crash retries), result payload, and a ``threading.Event`` so any
number of client threads can wait on one job — including the followers
of a coalesced submit, who share the Job object outright.

:class:`JobQueue` is a FIFO queue with **bounded admission**: past
``max_pending`` it refuses the submit with :class:`AdmissionBusy`
carrying a ``retry_after`` estimate, instead of queueing unboundedly —
backpressure is the client's problem to pace, not the coordinator's
problem to buffer.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs.capture import CaptureSpec
from .store import code_version, digest_of

__all__ = ["JobState", "JobSpec", "Job", "JobQueue", "AdmissionBusy",
           "JobFailed", "JobCancelled"]


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: synthetic experiments the worker executes besides the harness ids:
#: ``sleep:<seconds>`` (deterministic no-op, for backpressure/cancel
#: tests and pacing probes) and ``ckpt:<dsa>`` (one checkpointable DSA
#: run — optionally forked from ``JobSpec.snapshot`` and preempted every
#: ``checkpoint_every`` cycles)
SYNTHETIC_PREFIXES = ("sleep:", "ckpt:")


@dataclass(frozen=True)
class JobSpec:
    """One declarative simulation request (picklable, content-addressed).

    Fields that change the *result* (experiment, profile, overrides,
    capture, snapshot content, fork overrides) are folded into the
    digest; the tag, the snapshot path and the checkpoint hints are
    not — two submits differing only in those are the same simulation.
    """

    experiment: str                       # harness id, "sleep:S", "ckpt:D"
    profile: str = "ci"
    # (field, value) pairs applied over the named profile via
    # dataclasses.replace — the sweep front-end's parameter grid
    profile_overrides: Tuple[Tuple[str, Any], ...] = ()
    capture: Optional[CaptureSpec] = None
    tag: str = ""                         # free-form label, not hashed
    # warm-start provenance (``ckpt:<dsa>`` jobs): the snapshot *path*
    # is a location hint and stays out of the digest; its content
    # digest and the fork overrides determine the result and are
    # folded in — a forked run must never alias a straight run.
    snapshot: Optional[str] = None        # snapshot file path (hint)
    snapshot_digest: Optional[str] = None  # payload sha256 (hashed)
    fork_overrides: Tuple[Tuple[str, Any], ...] = ()  # hashed
    # preemption hints (scheduling policy, not result-affecting): the
    # worker persists a resume checkpoint every N simulated cycles so
    # a crash loses at most one interval
    checkpoint_every: int = 0             # 0 = never preempt
    checkpoint_dir: Optional[str] = None  # where resume files live

    def __post_init__(self) -> None:
        # normalize the common "list of pairs" spelling so equal specs
        # digest equally regardless of caller container choice
        object.__setattr__(self, "profile_overrides",
                           tuple((str(k), v)
                                 for k, v in self.profile_overrides))
        object.__setattr__(self, "fork_overrides",
                           tuple((str(k), v)
                                 for k, v in self.fork_overrides))

    def canonical(self) -> Dict[str, Any]:
        """The digest pre-image: everything that determines the result."""
        return {
            "experiment": self.experiment,
            "profile": self.profile,
            "profile_overrides": sorted(
                [k, v] for k, v in self.profile_overrides),
            "capture": asdict(self.capture) if self.capture else None,
            # snapshot provenance: a forked run's identity includes the
            # snapshot it warmed from (by content, not path) and the
            # overrides applied at fork time — never alias straight runs
            "snapshot": self.snapshot_digest,
            "fork_overrides": sorted(
                [k, v] for k, v in self.fork_overrides),
            "code": code_version(),
        }

    def digest(self) -> str:
        return digest_of(self.canonical())

    @property
    def is_synthetic(self) -> bool:
        return self.experiment.startswith(SYNTHETIC_PREFIXES)


class JobFailed(RuntimeError):
    """Raised by :meth:`Job.result` when the job ended FAILED."""


class JobCancelled(RuntimeError):
    """Raised by :meth:`Job.result` when the job ended CANCELLED."""


class AdmissionBusy(RuntimeError):
    """Queue full: come back in ``retry_after`` seconds.

    Bounded admission — the service sheds load at submit time with a
    pacing hint instead of letting the backlog grow without limit.
    """

    def __init__(self, retry_after: float, pending: int) -> None:
        super().__init__(f"queue full ({pending} pending); "
                         f"retry in {retry_after:.1f}s")
        self.retry_after = retry_after
        self.pending = pending


_job_ids = itertools.count(1)


class Job:
    """Coordinator-side record of one admitted request."""

    def __init__(self, spec: JobSpec, digest: Optional[str] = None) -> None:
        self.id = next(_job_ids)
        self.spec = spec
        self.digest = digest if digest is not None else spec.digest()
        self.state = JobState.PENDING
        self.attempts = 0            # dispatches (crash retries bump it)
        self.followers = 0           # coalesced identical submits
        self.worker: Optional[int] = None
        self.worker_history: List[int] = []   # every worker it ran on
        self.retry_log: List[dict] = []       # one entry per crash retry
        self.result_payload: Optional[dict] = None
        self.result_digest: Optional[str] = None
        self.error: Optional[str] = None
        self.from_store = False      # resolved by a store hit, no dispatch
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished_at: Optional[float] = None
        # the last ``checkpoint`` progress payload of a ``ckpt:`` job:
        # where a crash-retried attempt resumes from
        self.last_progress: Optional[dict] = None
        # monotonic host timestamps stamped at lifecycle transitions
        # (submitted/admitted/dispatched/...), assembled into the
        # telemetry JobSpan's exact wall-clock latency split
        self.ts: Dict[str, float] = {"submitted": time.monotonic()}
        self.store_write_s = 0.0     # coordinator's store.put duration
        self._done = threading.Event()

    def stamp(self, transition: str) -> float:
        """Record a monotonic timestamp for one lifecycle transition."""
        now = time.monotonic()
        self.ts[transition] = now
        return now

    # ------------------------------------------------------------------
    # waiting / results
    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> dict:
        """The result payload; raises on failure/cancellation/timeout."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} still {self.state.value}")
        if self.state is JobState.DONE:
            assert self.result_payload is not None
            return self.result_payload
        if self.state is JobState.CANCELLED:
            raise JobCancelled(f"job {self.id} was cancelled")
        raise JobFailed(f"job {self.id} failed: {self.error}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Job(id={self.id}, {self.spec.experiment!r}, "
                f"{self.state.value}, digest={self.digest[:12]})")


class JobQueue:
    """FIFO queue with bounded admission and lazy cancellation.

    Jobs pop in submission order. Cancelled jobs stay queued and are
    skipped on pop. ``requeue_front`` re-admits a crash-retried job
    ahead of every pending job (retries among themselves stay FIFO),
    so a retry never starves behind fresh work.
    """

    def __init__(self, max_pending: int = 64) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self._retries: Deque[Job] = deque()
        self._fresh: Deque[Job] = deque()
        self._lock = threading.Lock()
        # EWMA of recent job durations, feeding the retry_after estimate
        self._avg_duration = 1.0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, job: Job, workers: int = 1) -> None:
        """Admit ``job`` or raise :class:`AdmissionBusy`."""
        with self._lock:
            pending = self._count_pending()
            if pending >= self.max_pending:
                retry_after = max(
                    0.1, pending * self._avg_duration / max(1, workers))
                raise AdmissionBusy(retry_after, pending)
            self._fresh.append(job)

    def requeue_front(self, job: Job) -> None:
        """Re-admit a crash-retried job ahead of every pending job (no
        bound: it was already admitted once)."""
        with self._lock:
            self._retries.append(job)

    def _count_pending(self) -> int:
        # caller holds the lock; a cancelled job's entry stays queued
        # until pop() skips it, but frees its admission slot now
        return sum(1 for lane in (self._retries, self._fresh)
                   for job in lane if job.state is JobState.PENDING)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Job]:
        """The next pending job (retries first), skipping cancelled
        entries."""
        with self._lock:
            for lane in (self._retries, self._fresh):
                while lane:
                    job = lane.popleft()
                    if job.state is JobState.PENDING:
                        return job
            return None

    def note_duration(self, seconds: float) -> None:
        """Feed a finished job's duration into the retry_after EWMA."""
        with self._lock:
            self._avg_duration = 0.7 * self._avg_duration + 0.3 * seconds

    @property
    def pending(self) -> int:
        """Admitted jobs still waiting (cancelled entries excluded)."""
        with self._lock:
            return self._count_pending()
