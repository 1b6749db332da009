"""Persistent warm worker pool (``repro.svc.pool``).

Workers are **long-lived processes**: each one imports the simulator
stack once, then executes job after job, so per-process costs — the
interpreter boot, the harness imports and the microcode build —
amortize across the pool's lifetime instead of being paid per job.

The pool owns process lifecycle only; scheduling policy lives in
:class:`repro.svc.service.Service`:

* **spawned, not forked** — workers use the ``spawn`` start method so
  a worker is a faithful model of a fresh service process (and so
  forking a multi-threaded coordinator can never deadlock a child);
* **crash detection** — each worker's pipe and process sentinel are
  polled together; an EOF or a dead sentinel surfaces exactly one
  ``died`` message and the slot is respawned automatically (the service
  retries the in-flight job on the replacement);
* **metrics** — a job is observed only through its own
  :class:`~repro.obs.capture.CaptureSpec`, exactly as a harness run is;
  without one the worker arms no obs bus. Each job returns a
  :class:`~repro.svc.telemetry.MetricsRegistry` snapshot of the counts
  its capture observed (watchdog warnings, simulated cache misses),
  which :meth:`WorkerPool.poll` adds into the pool's registry;
* **progress** — the only message a worker sends mid-job is a
  ``ckpt:<dsa>`` job's ``checkpoint`` payload (the cycle it persisted);
  everything else a job reports arrives once, in its result.

Fault injection for tests: when ``REPRO_SVC_CRASH_ONCE`` names a path
and that file does not exist yet, the next worker to pick up a job
creates the file and dies with ``os._exit`` *mid-job* — deterministic
crash-retry coverage with no timing races. ``REPRO_SVC_CRASH_AFTER_CKPT``
is the checkpoint-aware variant: the worker dies right after persisting
its first resume checkpoint of a ``ckpt:<dsa>`` job, so the retry path
must resume from that checkpoint rather than from cycle zero.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import traceback
from contextlib import contextmanager
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Tuple

from .jobs import JobSpec
from .telemetry import MetricsRegistry

__all__ = ["WorkerPool", "WorkerHandle", "CRASH_ONCE_ENV",
           "CRASH_AFTER_CKPT_ENV"]

CRASH_ONCE_ENV = "REPRO_SVC_CRASH_ONCE"
CRASH_AFTER_CKPT_ENV = "REPRO_SVC_CRASH_AFTER_CKPT"

#: multiprocessing start method of every worker
START_METHOD = "spawn"

#: (kind, worker, job_id, payload) — what :meth:`WorkerPool.poll` yields
PoolMessage = Tuple[str, "WorkerHandle", Optional[int], dict]


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

def _resolve_profile(spec: JobSpec) -> str:
    """The profile name to run under, materializing sweep overrides."""
    if not spec.profile_overrides:
        return spec.profile
    from ..harness.profiles import derive_profile, ensure_profile

    return ensure_profile(derive_profile(spec.profile,
                                         dict(spec.profile_overrides)))


def _execute_ckpt(spec: JobSpec, send_progress) -> Tuple[str, bool, dict]:
    """Run one ``ckpt:<dsa>`` job, the preemptible DSA-run experiment.

    Three entry paths, in priority order: an existing *resume
    checkpoint* (this job ran before and was preempted or its worker
    crashed — continue from the persisted cycle, overrides already
    baked into the state), the spec's *warm snapshot* (fork it, apply
    the fork overrides), or a fresh build. A restored model that is not
    the DSA's X-Cache model (a snapshot of another DSA) fails the job.
    With ``checkpoint_every > 0`` and a ``checkpoint_dir``, the
    simulation is chunked and a resume checkpoint persisted between
    chunks, so a crash loses at most one interval. The checkpoints
    themselves never perturb the simulation: a preempted+resumed run
    renders byte-identically to an undisturbed one.

    The report is two lines: a header naming where the run started — a
    fork's snapshot (model class, cycle, digest prefix) or a fresh
    build's profile — and ``<overrides>: cycles=… hits=… misses=…
    dram=… checks=ok|FAIL``, the overrides ``(base)`` when there are
    none.
    """
    from ..harness.sweep import SWEEP_DSAS, SWEEP_MODEL_CLASSES, build_model
    from ..sim import checkpoint as ck

    dsa = spec.experiment.split(":", 1)[1]
    if dsa not in SWEEP_DSAS:
        raise ValueError(f"unknown ckpt dsa {dsa!r}; have {SWEEP_DSAS}")
    overrides = dict(spec.fork_overrides)
    resume_path = None
    if spec.checkpoint_every > 0 and spec.checkpoint_dir:
        resume_path = os.path.join(spec.checkpoint_dir,
                                   f"resume_{spec.digest()}.ckpt")
    resumed_from = 0
    source = None  # the header of the snapshot a fork warmed from
    if resume_path and os.path.exists(resume_path):
        model, header = ck.load_model(resume_path)
        resumed_from = header["cycle"]
        if spec.snapshot:
            source = ck.read_header(spec.snapshot)
    elif spec.snapshot:
        model, source = ck.load_model(spec.snapshot,
                                      overrides=overrides or None)
    else:
        model = build_model(dsa, spec.profile,
                            config_overrides=overrides or None)
        model.start()
    if type(model).__name__ != SWEEP_MODEL_CLASSES[dsa]:
        raise ValueError(f"a ckpt:{dsa} job restored a "
                         f"{type(model).__name__}, not a "
                         f"{SWEEP_MODEL_CLASSES[dsa]}")
    sim = model.system.sim
    max_c = getattr(model, "_max_cycles", None)
    every = spec.checkpoint_every
    checkpoints = 0
    while (every > 0 and resume_path is not None and sim.pending
           and (max_c is None or sim.now < max_c)):
        target = sim.now + every
        if max_c is not None:
            target = min(target, max_c)
        sim.run(until=target)
        if not sim.pending or (max_c is not None and sim.now >= max_c):
            break
        ck.save_model(resume_path, model)
        checkpoints += 1
        send_progress({"kind": "checkpoint", "cycle": sim.now,
                       "count": checkpoints})
        marker = os.environ.get(CRASH_AFTER_CKPT_ENV)
        if marker and not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write(f"pid {os.getpid()} cycle {sim.now}\n")
            os._exit(13)
    result = ck.finish_model(model)
    if resume_path and os.path.exists(resume_path):
        os.remove(resume_path)
    provenance = (f"{source['model_class']} @cycle {source['cycle']} "
                  f"(snapshot {source['payload_sha256'][:12]})"
                  if source else f"profile={spec.profile}")
    label = ",".join(f"{k}={v}"
                     for k, v in sorted(overrides.items())) or "(base)"
    rendered = "\n".join([
        f"== ckpt:{dsa} {provenance} ==",
        f"  {label}: cycles={result.cycles} hits={result.hits} "
        f"misses={result.misses} dram={result.dram_accesses} "
        f"checks={'ok' if result.checks_passed else 'FAIL'}",
    ])
    return rendered, result.checks_passed, {
        "checkpoints": checkpoints,
        "resumed_from": resumed_from,
    }


def _execute_spec(spec: JobSpec, send_progress, jobs_before: int,
                  job_id: Optional[int] = None) -> dict:
    """Run one job in this worker; returns the result payload.

    ``payload["metrics"]`` is the job's own registry snapshot of the
    counts its capture observed (watchdog warnings, lens-armed cache
    misses), which the pool merges.
    ``send_progress`` carries a ``ckpt:`` job's ``checkpoint`` payloads
    to the coordinator, which reads the last one if the worker dies.
    """
    from ..core.messages import reset_ids

    started = time.perf_counter()
    registry = MetricsRegistry()
    capture_paths: Optional[Dict[str, str]] = None
    ckpt_extras: dict = {}

    if spec.experiment.startswith("sleep:"):
        seconds = float(spec.experiment.split(":", 1)[1])
        time.sleep(seconds)
        rendered, all_ok = f"== sleep: {seconds:g}s ==", True
    elif spec.experiment.startswith("ckpt:"):
        reset_ids()
        rendered, all_ok, ckpt_extras = _execute_ckpt(spec, send_progress)
    else:
        from ..harness.parallel import execute_one

        # scope capture outputs (per job first when job_scoped, then
        # per experiment) so the paths recorded here are the files the
        # run writes — how ``explain --ledger --job N`` finds this
        # job's event file
        capture = spec.capture
        if capture is not None and capture.active:
            if capture.job_scoped and job_id is not None:
                capture = capture.for_job(job_id)
            capture = capture.for_experiment(spec.experiment)
            capture_paths = capture.output_paths() or None
        rendered, all_ok = execute_one(
            spec.experiment, _resolve_profile(spec), capture,
            metrics=registry)

    return {
        "ok": True,
        "rendered": rendered,
        "all_ok": all_ok,
        "duration_s": time.perf_counter() - started,
        "worker_jobs_before": jobs_before,
        "metrics": registry.snapshot(),
        "capture_paths": capture_paths,
        "checkpoints": ckpt_extras.get("checkpoints", 0),
        "resumed_from": ckpt_extras.get("resumed_from", 0),
    }


def _worker_main(conn, worker_id: int) -> None:
    """Worker process entry: loop jobs off the pipe until told to stop."""
    # the heavy imports happen once here — this is the warmth the pool
    # amortizes (a fresh-process-per-job service pays them every job)
    from .. import harness  # noqa: F401  (pre-warm the experiment stack)

    conn.send(("ready", None, {"pid": os.getpid()}))
    jobs_done = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, job_id, spec = message

        def send_progress(payload: dict, _job_id=job_id) -> None:
            try:
                conn.send(("progress", _job_id, payload))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass  # coordinator gone; the job result will fail too

        crash_marker = os.environ.get(CRASH_ONCE_ENV)
        if crash_marker and not os.path.exists(crash_marker):
            # deterministic mid-job crash for the retry tests
            with open(crash_marker, "w") as fh:
                fh.write(f"worker {worker_id} pid {os.getpid()}\n")
            os._exit(13)

        try:
            payload = _execute_spec(spec, send_progress, jobs_done,
                                    job_id=job_id)
        except BaseException:
            payload = {"ok": False, "error": traceback.format_exc()}
        payload["worker_id"] = worker_id
        jobs_done += 1
        try:
            conn.send(("result", job_id, payload))
        except (BrokenPipeError, OSError):  # pragma: no cover
            return


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------

_spawn_env_lock = threading.Lock()


@contextmanager
def _spawn_env():
    """Make sure spawned children can ``import repro``.

    The spawn start method re-imports the package in the child, which
    only works if the package's parent directory is importable there.
    A relative ``PYTHONPATH=src`` (the tier-1 invocation) survives
    because children inherit the cwd, but an absolute entry keeps
    worktree/tox layouts working too.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    with _spawn_env_lock:
        previous = os.environ.get("PYTHONPATH")
        parts = [src] + ([previous] if previous else [])
        os.environ["PYTHONPATH"] = os.pathsep.join(parts)
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = previous


class WorkerHandle:
    """One pool slot: a live worker process and its pipe."""

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.ready = False
        self.dead = False
        self.job_id: Optional[int] = None

    @property
    def idle(self) -> bool:
        return self.ready and not self.dead and self.job_id is None


class WorkerPool:
    """N long-lived worker processes with crash detection + replacement."""

    def __init__(self, workers: int = 2,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.size = workers
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._slots: List[WorkerHandle] = []
        self._ids = itertools.count(1)
        # the owning Service shares its registry; a standalone pool
        # keeps its own. Worker results and restarts are counted here.
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self._started = False

    @property
    def restarts(self) -> int:
        """Worker slots respawned after a death."""
        return int(self.registry.value("worker_restarts_total"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._slots = [self._spawn() for _ in range(self.size)]

    def _spawn(self) -> WorkerHandle:
        worker_id = next(self._ids)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id),
            daemon=True, name=f"repro-svc-worker-{worker_id}")
        with _spawn_env():
            process.start()
        child_conn.close()  # child's end lives in the child now
        return WorkerHandle(worker_id, process, parent_conn)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every current worker has booted (benchmarks use
        this to measure steady-state throughput, not spawn cost)."""
        deadline = time.monotonic() + timeout
        while any(not h.ready and not h.dead for h in self._slots):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("worker pool failed to become ready")
            self.poll(min(remaining, 0.1))

    def stop(self) -> None:
        for handle in self._slots:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._slots:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            handle.conn.close()
        self._slots = []
        self._started = False

    # ------------------------------------------------------------------
    # dispatch / messaging
    # ------------------------------------------------------------------
    def idle_workers(self) -> List[WorkerHandle]:
        return [h for h in self._slots if h.idle]

    def dispatch(self, handle: WorkerHandle, job_id: int,
                 spec: JobSpec) -> None:
        assert handle.idle, f"dispatch to non-idle worker {handle.id}"
        handle.job_id = job_id
        handle.conn.send(("job", job_id, spec))

    def poll(self, timeout: float = 0.05) -> List[PoolMessage]:
        """Drain worker messages; detect deaths and respawn those slots.

        Every dead worker yields exactly one ``("died", handle, job_id,
        ...)`` message (job_id = what it was running, if anything); its
        slot is already respawned by the time the caller sees it.
        """
        live = [h for h in self._slots if not h.dead]
        waitables = {h.conn: h for h in live}
        sentinels = {h.process.sentinel: h for h in live}
        ready = mp_connection.wait(
            list(waitables) + list(sentinels), timeout)
        messages: List[PoolMessage] = []
        suspects: List[WorkerHandle] = []
        for obj in ready:
            handle = waitables.get(obj)
            if handle is None:
                suspects.append(sentinels[obj])
                continue
            try:
                while handle.conn.poll():
                    kind, job_id, payload = handle.conn.recv()
                    if kind == "ready":
                        handle.ready = True
                    elif kind == "result":
                        self.registry.merge(payload.get("metrics") or {})
                        handle.job_id = None
                    messages.append((kind, handle, job_id, payload))
            except (EOFError, OSError):
                suspects.append(handle)
        for handle in suspects:
            if handle.dead:
                continue
            handle.dead = True
            handle.conn.close()
            handle.process.join(0.1)
            messages.append(("died", handle, handle.job_id,
                             {"exitcode": handle.process.exitcode}))
            self._replace(handle)
        return messages

    def _replace(self, handle: WorkerHandle) -> None:
        self.registry.inc("worker_restarts_total")
        self._slots[self._slots.index(handle)] = self._spawn()
