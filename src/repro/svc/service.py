"""The simulation service coordinator (``repro.svc.service``).

:class:`Service` glues the three subsystems together around one control
loop:

* the **job queue** (:mod:`repro.svc.jobs`) — FIFO order, bounded
  admission with a ``retry_after`` hint, cancellation;
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
one result, and the store's ``coalesced`` counter proves no second
simulation ran. N identical submissions, sequential or concurrent,
execute exactly one simulation.

The control loop is a single daemon thread: it drains pool messages
(checkpoint progress → the job's resume point, results → store +
waiters, deaths → retry-on-fresh-worker) and dispatches pending jobs
to idle workers. Client threads only touch the queue/maps under one
lock, so ``submit`` is cheap and a store hit never waits on a running
simulation.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .jobs import (
    AdmissionBusy,
    Job,
    JobQueue,
    JobSpec,
    JobState,
)
from .pool import WorkerHandle, WorkerPool
from .store import ResultStore, digest_of
from .telemetry import LEDGER_ENV, JobSpan, MetricsRegistry, RunLedger

__all__ = ["Service", "sweep_specs"]

#: ``metrics()`` job-count key -> the registry counter family behind it
_COUNTER_FAMILIES = {
    "submitted": "jobs_submitted_total",
    "admitted": "jobs_admitted_total",
    "rejected": "jobs_rejected_total",
    "store_hits": "jobs_from_store_total",
    "coalesced": "jobs_coalesced_total",
    "completed": "jobs_completed_total",
    "failed": "jobs_failed_total",
    "cancelled": "jobs_cancelled_total",
    "retries": "jobs_retried_total",
}


def sweep_specs(experiment: str, profile: str = "ci",
                grid: Optional[Mapping[str, Sequence[Any]]] = None,
                repeat: int = 1, **spec_kwargs) -> List[JobSpec]:
    """Fan a parameter grid into :class:`JobSpec`s.

    ``grid`` maps :class:`~repro.harness.profiles.Profile` field names
    to value lists; the cartesian product becomes one spec per point
    (``profile_overrides``). ``repeat`` duplicates the whole list —
    with deduplication on, repeats cost nothing and are how the CI
    smoke proves the one-simulation property.
    """
    from ..harness.profiles import Profile

    grid = dict(grid or {})
    valid = set(Profile.__dataclass_fields__)
    unknown = sorted(set(grid) - valid)
    if unknown:
        raise ValueError(f"unknown profile field(s) {unknown}; "
                         f"have {sorted(valid)}")
    keys = sorted(grid)
    points: List[tuple] = [()]
    for key in keys:
        values = list(grid[key])
        if not values:
            raise ValueError(f"empty value list for grid field {key!r}")
        points = [(*p, (key, v)) for p in points for v in values]
    specs = [JobSpec(experiment=experiment, profile=profile,
                     profile_overrides=p, **spec_kwargs)
             for p in points]
    return [s for _ in range(max(1, repeat)) for s in specs]


class Service:
    """An in-process simulation service: queue + warm pool + store.

    ::

        with Service(workers=2, store="results/") as svc:
            job = svc.submit(JobSpec(experiment="fig04", profile="ci"))
            print(job.result()["rendered"])

    ``store`` may be a :class:`ResultStore`, a directory path, None
    (deduplication disabled — every job simulates), or the default
    ``"memory"`` (process-local store). Every count the service keeps
    lives in :attr:`registry`, which is always on; the run ledger is
    armed by its path (``ledger``, default: ``$REPRO_SVC_LEDGER``).
    """

    #: crash retries a job gets; the next worker death fails it
    MAX_ATTEMPTS = 2

    def __init__(self, workers: int = 2,
                 store: Union[ResultStore, str, os.PathLike, None] = "memory",
                 max_pending: int = 64,
                 ledger: Union[str, os.PathLike, None] = "env",
                 ) -> None:
        if store == "memory":
            self.store: Optional[ResultStore] = ResultStore()
        elif store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self.registry = MetricsRegistry()
        self._declare_metrics(self.registry)
        if ledger == "env":
            ledger = os.environ.get(LEDGER_ENV) or None
        self.ledger: Optional[RunLedger] = (
            RunLedger(ledger) if ledger else None)
        self.queue = JobQueue(max_pending=max_pending)
        self.pool = WorkerPool(workers=workers, registry=self.registry)
        self.jobs: Dict[int, Job] = {}
        self._inflight: Dict[str, Job] = {}   # digest -> pending/running job
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def _declare_metrics(reg: MetricsRegistry) -> None:
        """Pre-register every family so a scrape sees zeros, not gaps
        (``worker_restarts_total 0`` renders before any crash)."""
        reg.counter("jobs_submitted_total", "Submits accepted or resolved.")
        reg.counter("jobs_admitted_total", "Jobs admitted to the queue.")
        reg.counter("jobs_rejected_total",
                    "Submits refused by bounded admission.")
        reg.counter("jobs_from_store_total",
                    "Submits resolved by a result-store hit.")
        reg.counter("jobs_coalesced_total",
                    "Submits coalesced onto an in-flight identical job.")
        reg.counter("jobs_completed_total", "Jobs finished DONE.")
        reg.counter("jobs_failed_total", "Jobs finished FAILED.")
        reg.counter("jobs_cancelled_total", "Jobs cancelled.")
        reg.counter("jobs_retried_total",
                    "Crash retries re-queued on a fresh worker.")
        reg.counter("worker_restarts_total",
                    "Worker slots respawned after a death or kill.")
        reg.counter("watchdog_warnings_total",
                    "In-sim pathology warnings reported by workers.")
        reg.counter("ledger_entries_total", "Run-ledger lines written.")
        reg.counter("store_hits_total", "Result-store lookup hits.")
        reg.counter("store_misses_total", "Result-store lookup misses.")
        reg.counter("store_writes_total", "Result-store records written.")
        reg.counter("store_coalesced_total",
                    "In-flight coalesces recorded by the store.")
        reg.counter("store_invalidated_total",
                    "Stale/foreign on-disk store entries rejected.")
        reg.gauge("queue_depth", "Jobs pending in the admission queue.")
        reg.gauge("jobs_running", "Jobs currently executing on workers.")
        reg.gauge("workers_total", "Worker slots in the pool.")
        reg.gauge("workers_busy", "Workers currently running a job.")
        reg.summary("job_latency_seconds",
                    "End-to-end wall latency of executed jobs.")
        reg.summary("job_queue_wait_seconds",
                    "Admission-to-dispatch wait of executed jobs.")
        reg.summary("job_dispatch_seconds",
                    "Pool-boundary overhead of executed jobs.")
        reg.summary("job_sim_exec_seconds",
                    "Worker-measured execution time of executed jobs.")
        reg.summary("job_store_write_seconds",
                    "Result-store write time of executed jobs.")
        # cache-contents health from lens-armed jobs (--misses captures),
        # labelled per simulated cache; folded in from worker snapshots
        reg.gauge("sim_cache_hit_rate",
                  "Hit rate of a simulated cache, from the last "
                  "lens-armed job that observed it.")
        reg.gauge("sim_cache_conflict_share",
                  "Share of that cache's misses classified conflict.")
        reg.counter("sim_cache_misses_total",
                    "Simulated cache misses observed by lens-armed jobs.")

    def _count(self, key: str) -> None:
        """Bump one job-count family (caller holds the lock, so
        :meth:`metrics` reads the nine counts consistently)."""
        self.registry.inc(_COUNTER_FAMILIES[key])

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
        """Stop the service: pending jobs are cancelled, running workers
        are torn down (wait for results first — see :meth:`drain`)."""
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
        else resolve from the result store, else admit to the queue
        (raising :class:`AdmissionBusy` past the bound). Checking
        in-flight *before* the store keeps the store's miss counter
        equal to the number of simulations actually executed.
        """
        self._validate(spec)
        digest = spec.digest()
        with self._lock:
            self._count("submitted")
            primary = self._inflight.get(digest)
            if primary is not None and not primary.state.finished:
                primary.followers += 1
                self._count("coalesced")
                if self.store is not None:
                    self.store.note_coalesced()
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
            try:
                self.queue.submit(job, workers=self.pool.size)
            except AdmissionBusy:
                self._count("rejected")
                raise
            self._count("admitted")
            job.stamp("admitted")
            self.jobs[job.id] = job
            self._inflight[digest] = job
            return job

    def cancel(self, job: Job) -> bool:
        """Cancel a pending or running job; True if it was cancelled.

        A running job's worker is terminated and its slot respawned —
        cancellation is immediate, not cooperative. Coalesced followers
        share the Job, so cancelling cancels every waiter.
        """
        with self._lock:
            if job.state.finished:
                return False
            if job.state is JobState.RUNNING and job.worker is not None:
                handle = self.pool.find(job.worker)
                if handle is not None:
                    self.pool.kill(handle)
            self._finish(job, JobState.CANCELLED)
            self._count("cancelled")
            return True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every submitted job to finish; True if all did."""
        deadline = (time.monotonic() + timeout) if timeout else None
        with self._lock:
            snapshot = list(self.jobs.values())
        for job in snapshot:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            if not job.wait(remaining):
                return False
        return True

    def metrics(self) -> Dict[str, Any]:
        """Counters + queue depth + store stats + per-worker health."""
        with self._lock:
            running = sum(1 for j in self.jobs.values()
                          if j.state is JobState.RUNNING)
            out: Dict[str, Any] = {
                key: self.registry.value(family)
                for key, family in _COUNTER_FAMILIES.items()}
        out["pending"] = self.queue.pending
        out["running"] = running
        out["worker_restarts"] = self.pool.restarts
        out["store"] = (self.store.stats.as_dict()
                        if self.store is not None else None)
        out["workers"] = self.pool.health()
        out["watchdog"] = self.registry.by_label("watchdog_warnings_total",
                                                 "kind")
        return out

    def telemetry_snapshot(self) -> dict:
        """The registry snapshot with scrape-time state folded in.

        Instantaneous gauges (queue depth, busy workers) and the store's
        own counters are synced here — pinned, not incremented, so a
        snapshot is idempotent and never double-counts.
        """
        reg = self.registry
        with self._lock:
            running = sum(1 for j in self.jobs.values()
                          if j.state is JobState.RUNNING)
        reg.set("queue_depth", self.queue.pending)
        reg.set("jobs_running", running)
        health = self.pool.health()
        reg.set("workers_total", len(health))
        reg.set("workers_busy",
                sum(1 for w in health if w.get("state") == "busy"))
        if self.store is not None:
            stats = self.store.stats
            reg.set("store_hits_total", stats.hits)
            reg.set("store_misses_total", stats.misses)
            reg.set("store_writes_total", stats.stores)
            reg.set("store_coalesced_total", stats.coalesced)
            reg.set("store_invalidated_total", stats.invalidated)
        return reg.snapshot()

    def prometheus(self) -> str:
        """The current registry state as Prometheus text exposition."""
        from .telemetry import render_prometheus

        return render_prometheus(self.telemetry_snapshot())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(self, spec: JobSpec) -> None:
        if spec.is_synthetic:
            if spec.experiment.startswith("sleep:"):
                try:
                    float(spec.experiment.split(":", 1)[1])
                except ValueError:
                    raise ValueError(f"bad sleep spec {spec.experiment!r}")
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
                job.started = time.time()
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
                return  # cancelled while completing: drop the payload
            duration = payload.get("duration_s")
            if duration is not None:
                self.queue.note_duration(duration)
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
        stamp lands, the wall-clock split feeds the registry summaries,
        and the ledger line is appended — all coordinator-side work,
        never on the simulation event path.
        """
        job.state = state
        job.finished_at = time.time()
        job.stamp("finished")
        self._inflight.pop(job.digest, None)
        span = self.job_span(job)
        if state is JobState.DONE and not job.from_store:
            reg = self.registry
            reg.observe("job_latency_seconds", span.end_to_end,
                        experiment=job.spec.experiment)
            reg.observe("job_queue_wait_seconds", span.queue_wait)
            reg.observe("job_dispatch_seconds", max(0.0, span.dispatch))
            reg.observe("job_sim_exec_seconds", span.sim_exec)
            reg.observe("job_store_write_seconds", span.store_write)
        if self.ledger is not None:
            self.ledger.record(self._ledger_entry(job, span))
            self.registry.inc("ledger_entries_total")
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
