"""The simulation service coordinator (``repro.svc.service``).

:class:`Service` glues the three subsystems together around one control
loop:

* the **job queue** (:mod:`repro.svc.jobs`) — FIFO order, with
  crash-retried jobs ahead of fresh work;
* the **warm worker pool** (:mod:`repro.svc.pool`) — long-lived
  processes with crash detection and automatic replacement;
* the **content-addressed result store** (:mod:`repro.svc.store`) —
  a finished result per request digest, written once by this
  coordinator *after* a worker returns a complete payload (never
  partially, never from the event path).

Deduplication is end-to-end: a submit whose digest is already stored
resolves immediately (store hit); one whose digest is currently pending
or running **coalesces** onto the in-flight job — the same
:class:`~repro.svc.jobs.Job` object is returned, every waiter gets the
one result, and ``metrics()["coalesced"]`` counts the joins, with or
without a store. N identical submissions, sequential or concurrent,
execute exactly one simulation.

The control loop is a single daemon thread: it drains pool messages
(checkpoint progress → the job's resume point, results → store +
waiters, deaths → retry-on-fresh-worker) and dispatches pending jobs
to idle workers. Client threads only touch the queue/maps under one
lock, so ``submit`` is cheap and a store hit never waits on a running
simulation.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .jobs import Job, JobQueue, JobSpec, JobState
from .pool import WorkerHandle, WorkerPool
from .store import ResultStore, digest_of
from .telemetry import LEDGER_ENV, JobSpan, RunLedger

__all__ = ["Service", "sweep_specs", "validate_spec"]

#: the job counts :meth:`Service.metrics` reports, in its key order
_JOB_COUNTS = ("submitted", "admitted", "store_hits", "coalesced",
               "completed", "failed", "cancelled", "retries")


def sweep_specs(experiment: str, profile: str = "ci",
                grid: Optional[Mapping[str, Sequence[Any]]] = None,
                repeat: int = 1, **spec_kwargs) -> List[JobSpec]:
    """Fan a parameter grid into :class:`JobSpec`s.

    The cartesian product of ``grid`` becomes one spec per point. For a
    ``ckpt:<dsa>`` experiment the grid names fork-safe config fields
    (``dram.*`` for DRAM timing) and each point becomes the spec's
    ``fork_overrides``; a field that is not fork-safe raises
    :class:`~repro.sim.checkpoint.ForkOverrideError`. Otherwise it names
    :class:`~repro.harness.profiles.Profile` fields and each point
    becomes ``profile_overrides``. ``repeat`` (>= 1) duplicates the
    whole list — with deduplication on, repeats cost nothing and are
    how the CI smoke proves the one-simulation property.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    grid = dict(grid or {})
    if experiment.startswith("ckpt:"):
        from ..sim.checkpoint import check_fork_overrides

        check_fork_overrides(grid)
        overrides_field = "fork_overrides"
    else:
        from ..harness.profiles import Profile

        valid = set(Profile.__dataclass_fields__)
        unknown = sorted(set(grid) - valid)
        if unknown:
            raise ValueError(f"unknown profile field(s) {unknown}; "
                             f"have {sorted(valid)}")
        overrides_field = "profile_overrides"
    points: List[tuple] = [()]
    for key in sorted(grid):
        values = list(grid[key])
        if not values:
            raise ValueError(f"empty value list for grid field {key!r}")
        points = [(*p, (key, v)) for p in points for v in values]
    specs = [JobSpec(experiment=experiment, profile=profile,
                     **{overrides_field: p}, **spec_kwargs)
             for p in points]
    return [s for _ in range(repeat) for s in specs]


def validate_spec(spec: JobSpec) -> None:
    """Raise unless ``spec`` names a job a worker can run.

    The one set of submit-time rules: :meth:`Service.submit` applies
    them, and the ``sweep`` CLI applies them to every spec before it
    writes a warmup snapshot or builds a service. Raises
    :class:`ValueError`, or
    :class:`~repro.sim.checkpoint.ForkOverrideError` for a
    geometry-changing fork override.
    """
    if spec.is_synthetic:
        if spec.experiment.startswith("sleep:"):
            try:
                seconds = float(spec.experiment.split(":", 1)[1])
            except ValueError:
                seconds = math.nan
            if not (math.isfinite(seconds) and seconds >= 0):
                raise ValueError(f"bad sleep spec {spec.experiment!r} "
                                 "(want finite seconds >= 0)")
        elif spec.experiment.startswith("ckpt:"):
            from ..harness.sweep import SWEEP_DSAS
            from ..sim.checkpoint import check_fork_overrides

            dsa = spec.experiment.split(":", 1)[1]
            if dsa not in SWEEP_DSAS:
                raise ValueError(f"unknown ckpt dsa {dsa!r}; "
                                 f"have {SWEEP_DSAS}")
            # reject geometry-changing fork overrides at submit time
            # (the worker would too, but a clear error beats a
            # FAILED job with a traceback payload)
            check_fork_overrides(key for key, _ in spec.fork_overrides)
            if spec.checkpoint_every > 0 and not spec.checkpoint_dir:
                raise ValueError(
                    "checkpoint_every > 0 needs a checkpoint_dir "
                    "(where resume files persist across workers)")
        return
    from ..harness import EXPERIMENTS

    if spec.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {spec.experiment!r}; have "
            f"{sorted(EXPERIMENTS)} or sleep:<seconds> / ckpt:<dsa>")


class Service:
    """An in-process simulation service: queue + warm pool + store.

    ::

        with Service(workers=2, store="results/") as svc:
            job = svc.submit(JobSpec(experiment="fig04", profile="ci"))
            print(job.result()["rendered"])

    ``store`` may be a :class:`ResultStore`, a directory path, None
    (deduplication disabled — every job simulates), or the default
    ``"memory"`` (process-local store). The service counts its jobs
    (:meth:`metrics`); what a job's simulation did is in its rendered
    report, through the job's capture. The run ledger is armed by its
    path (``ledger``, default: ``$REPRO_SVC_LEDGER``).
    """

    #: crash retries a job gets; the next worker death fails it
    MAX_ATTEMPTS = 2

    def __init__(self, workers: int = 2,
                 store: Union[ResultStore, str, os.PathLike, None] = "memory",
                 ledger: Union[str, os.PathLike, None] = "env",
                 ) -> None:
        if store == "memory":
            self.store: Optional[ResultStore] = ResultStore()
        elif store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self._counts = dict.fromkeys(_JOB_COUNTS, 0)
        if ledger == "env":
            ledger = os.environ.get(LEDGER_ENV) or None
        self.ledger: Optional[RunLedger] = (
            RunLedger(ledger) if ledger else None)
        self.queue = JobQueue()
        self.pool = WorkerPool(workers=workers)
        self.jobs: Dict[int, Job] = {}
        self._inflight: Dict[str, Job] = {}   # digest -> pending/running job
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _count(self, key: str) -> None:
        """Bump one job count (caller holds the lock, so :meth:`metrics`
        reads the eight counts consistently)."""
        self._counts[key] += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_ready: bool = False) -> "Service":
        """Start the pool and the control loop. ``wait_ready`` blocks
        until every worker has booted, before the loop starts: only one
        thread may poll the pool's pipes, and once the loop runs it is
        that thread (a later ``start`` does not wait)."""
        if self._thread is None:
            self.pool.start()
            if wait_ready:
                self.pool.wait_ready()
            self._thread = threading.Thread(
                target=self._loop, name="repro-svc-loop", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the service: every unfinished job ends CANCELLED (its
        waiters wake with :class:`~repro.svc.jobs.JobCancelled`) and the
        workers are torn down, so wait on the jobs first."""
        with self._lock:
            for job in self.jobs.values():
                if not job.state.finished:
                    self._finish(job, JobState.CANCELLED)
                    self._count("cancelled")
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self.pool.stop()
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admit one request; returns its :class:`Job` immediately.

        Order of resolution: coalesce onto an identical in-flight job,
        else resolve from the result store, else admit to the queue.
        Checking in-flight *before* the store keeps the store's miss
        counter equal to the number of simulations actually executed.
        Raises what :func:`validate_spec` raises.
        """
        validate_spec(spec)
        digest = spec.digest()
        with self._lock:
            self._count("submitted")
            primary = self._inflight.get(digest)
            if primary is not None and not primary.state.finished:
                primary.followers += 1
                self._count("coalesced")
                return primary
            if self.store is not None:
                record = self.store.get(digest)
                if record is not None:
                    job = Job(spec, digest)
                    job.from_store = True
                    job.result_payload = record
                    job.result_digest = record.get("result_digest")
                    job.stamp("admitted")
                    self.jobs[job.id] = job
                    self._finish(job, JobState.DONE)
                    self._count("store_hits")
                    self._count("completed")
                    return job
            job = Job(spec, digest)
            self.queue.submit(job)
            self._count("admitted")
            job.stamp("admitted")
            self.jobs[job.id] = job
            self._inflight[digest] = job
            return job

    def metrics(self) -> Dict[str, Any]:
        """The eight job counts, ``worker_restarts`` and ``store`` (the
        result store's stats, None without a store)."""
        with self._lock:
            out: Dict[str, Any] = dict(self._counts)
        out["worker_restarts"] = self.pool.restarts
        out["store"] = (self.store.stats.as_dict()
                        if self.store is not None else None)
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            for kind, handle, job_id, payload in self.pool.poll(0.05):
                if kind == "progress":
                    self._on_progress(job_id, payload)
                elif kind == "result":
                    self._on_result(job_id, payload)
                elif kind == "died":
                    self._on_death(handle, job_id)
            self._dispatch_pending()

    def _dispatch_pending(self) -> None:
        with self._lock:
            for handle in self.pool.idle_workers():
                job = self.queue.pop()
                if job is None:
                    return
                job.state = JobState.RUNNING
                job.worker = handle.id
                job.worker_history.append(handle.id)
                job.attempts += 1
                job.stamp("dispatched")
                self.pool.dispatch(handle, job.id, job.spec)

    def _on_progress(self, job_id: Optional[int], payload: dict) -> None:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is not None:
                job.last_progress = payload

    def _on_result(self, job_id: Optional[int], payload: dict) -> None:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.state is not JobState.RUNNING:
                return  # cancelled by close(): drop the payload
            job.ts["sim_exec"] = float(payload.get("duration_s") or 0.0)
            if payload.get("ok"):
                record = self._record(job, payload)
                if self.store is not None:
                    write_started = time.monotonic()
                    self.store.put(job.digest, record)
                    job.store_write_s = time.monotonic() - write_started
                job.result_payload = record
                job.result_digest = record["result_digest"]
                self._finish(job, JobState.DONE)
                self._count("completed")
            else:
                job.error = payload.get("error", "worker error")
                self._finish(job, JobState.FAILED)
                self._count("failed")

    @staticmethod
    def _record(job: Job, payload: dict) -> dict:
        """The store record: deterministic result + advisory metadata.

        The result digest covers only the simulation-determined fields
        (rendered report + expectation verdict) so a crash-retried job
        digests identically to an undisturbed run — wall-clock metadata
        stays outside the hash.
        """
        result_digest = digest_of({"rendered": payload["rendered"],
                                   "all_ok": payload["all_ok"]})
        return {
            "spec": job.spec.canonical(),
            "rendered": payload["rendered"],
            "all_ok": payload["all_ok"],
            "result_digest": result_digest,
            "metadata": {
                "duration_s": payload.get("duration_s"),
                "worker_id": payload.get("worker_id"),
                "worker_jobs_before": payload.get("worker_jobs_before"),
                "capture_paths": payload.get("capture_paths"),
                "attempts": job.attempts,
                "checkpoints": payload.get("checkpoints", 0),
                "resumed_from": payload.get("resumed_from", 0),
            },
        }

    def _on_death(self, handle: WorkerHandle, job_id: Optional[int]) -> None:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.state is not JobState.RUNNING:
                return  # idle crash or cancelled job: slot already respawned
            if job.attempts > self.MAX_ATTEMPTS:
                job.error = (f"worker died {job.attempts} times "
                             f"(exitcode of last: "
                             f"{handle.process.exitcode})")
                self._finish(job, JobState.FAILED)
                self._count("failed")
                return
            # retry on a fresh worker, ahead of every pending job;
            # nothing was stored, so a retried job cannot leave a
            # partial result behind
            job.state = JobState.PENDING
            job.worker = None
            progress = job.last_progress or {}
            job.retry_log.append({
                "worker": handle.id,
                "exitcode": handle.process.exitcode,
                "lost_s": round(time.monotonic()
                                - job.ts.get("dispatched",
                                             time.monotonic()), 6),
                # for ckpt: jobs — the cycle the dead attempt had last
                # persisted, i.e. where the retry will resume from
                # (None = no checkpoint survived, resume from zero)
                "checkpoint_cycle": (progress.get("cycle")
                                     if progress.get("kind") == "checkpoint"
                                     else None),
            })
            self.queue.requeue_front(job)
            self._count("retries")

    def _finish(self, job: Job, state: JobState) -> None:
        """Transition to a terminal state (caller holds the lock).

        This is where the job's lifecycle span closes: the ``finished``
        stamp lands and the ledger line is appended — coordinator-side
        work, never on the simulation event path.
        """
        job.state = state
        job.stamp("finished")
        self._inflight.pop(job.digest, None)
        if self.ledger is not None:
            self.ledger.record(self._ledger_entry(job, self.job_span(job)))
        job._done.set()

    @staticmethod
    def job_span(job: Job) -> JobSpan:
        """Assemble the wall-clock lifecycle span for ``job``."""
        span = JobSpan(job.id, job.digest, job.spec.experiment)
        span.state = job.state.value
        span.from_store = job.from_store
        span.submitted = job.ts.get("submitted")
        span.admitted = job.ts.get("admitted")
        span.dispatched = job.ts.get("dispatched")
        span.finished = job.ts.get("finished")
        span.sim_exec = float(job.ts.get("sim_exec", 0.0))
        span.store_write = job.store_write_s
        metadata = ((job.result_payload or {}).get("metadata") or {})
        span.checkpoints = int(metadata.get("checkpoints") or 0)
        span.resumed_from = int(metadata.get("resumed_from") or 0)
        cycles = [entry.get("checkpoint_cycle")
                  for entry in job.retry_log
                  if entry.get("checkpoint_cycle") is not None]
        span.preempted_at = cycles[-1] if cycles else None
        return span

    def _ledger_entry(self, job: Job, span: JobSpan) -> dict:
        metadata = ((job.result_payload or {}).get("metadata") or {})
        timings = {k: round(v, 6) for k, v in span.split().items()}
        timings["end_to_end"] = round(span.end_to_end, 6)
        return {
            "kind": "job",
            "job": job.id,
            "digest": job.digest,
            "experiment": job.spec.experiment,
            "profile": job.spec.profile,
            "tag": job.spec.tag,
            "state": job.state.value,
            "ok": job.state is JobState.DONE,
            "result_digest": job.result_digest,
            "worker": job.worker,
            "worker_history": list(job.worker_history),
            "attempts": job.attempts,
            "retries": list(job.retry_log),
            "followers": job.followers,
            "from_store": job.from_store,
            "wall_submitted": round(job.created, 6),
            "timings": timings,
            "capture": metadata.get("capture_paths"),
            "checkpoints": span.checkpoints,
            "resumed_from": span.resumed_from,
            "preempted_at": span.preempted_at,
            "error": job.error,
        }
