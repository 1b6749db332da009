"""Host-time observability for the service plane (``repro.svc.telemetry``).

The simulated machine has deep observability (the ``repro.obs`` event
bus, profiler, span trees, critical-path SLO gates) — all measured in
*simulated cycles*. The service that actually runs jobs lives in host
wall-clock time, and this module is its observability plane. It
keeps no counters of its own: the service's job counts are plain
integers behind :meth:`Service.metrics
<repro.svc.service.Service.metrics>`, and what a job's simulation did
reaches the caller only through the job's capture, in its rendered
report.

* :class:`JobSpan` — the per-job lifecycle span: monotonic host
  timestamps stamped at every transition (submitted → admitted →
  dispatched → running → stored/failed/retried) assembled into an exact
  wall-clock latency split ``{queue_wait, dispatch, sim_exec,
  store_write}`` that tiles ``[admitted, finished)`` by construction —
  the service-plane mirror of :mod:`repro.obs.critpath`, in seconds
  instead of cycles.
* :class:`RunLedger` — an append-only JSONL audit log of every job:
  spec digest, timings, result digest, worker id, and the retry chain.
  Written by the coordinator *outside* the event path (the same
  Checkpointer-vs-EventProcessor discipline the result store follows),
  replayable by ``python -m repro.svc history`` and drillable by
  ``python -m repro.obs.explain --ledger L.jsonl --job N`` straight
  into the job's *simulated* critical path via its recorded capture.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .store import canonical_json

__all__ = [
    "JobSpan",
    "RunLedger",
    "LEDGER_ENV",
]

#: environment default for the service run ledger path ("" = off)
LEDGER_ENV = "REPRO_SVC_LEDGER"


# ----------------------------------------------------------------------
# per-job lifecycle spans
# ----------------------------------------------------------------------

class JobSpan:
    """Wall-clock lifecycle span of one service job.

    Monotonic timestamps are stamped by the coordinator at each
    transition; the split tiles ``[admitted, finished)`` *exactly*:

    * ``queue_wait``   — admitted → (last) dispatch to a worker;
    * ``sim_exec``     — the worker-measured execution time
      (``duration_s``, a ``perf_counter`` duration on the worker);
    * ``store_write``  — the coordinator's result-store write;
    * ``dispatch``     — everything else crossing the pool boundary:
      the dispatch pipe send, the worker picking the job up, the result
      pipe transfer and coordinator poll latency. Computed as the
      residual, so the four buckets always sum to ``end_to_end``. A
      crash-retried job's lost attempt lands here too (the simulation
      time that produced no result is service overhead, not exec).

    Preemption annotations (``ckpt:`` jobs) ride alongside the split
    without changing it: ``checkpoints`` (resume checkpoints persisted),
    ``resumed_from`` (the simulated cycle the final attempt resumed at;
    0 = started from scratch) and ``preempted_at`` (the last checkpoint
    cycle a dead attempt had persisted, ``None`` if never preempted).
    The tiling invariant is untouched — a preempted job's lost attempt
    still lands in the ``dispatch`` residual.
    """

    __slots__ = ("job_id", "digest", "experiment", "state", "submitted",
                 "admitted", "dispatched", "finished", "sim_exec",
                 "store_write", "from_store", "checkpoints",
                 "resumed_from", "preempted_at")

    def __init__(self, job_id: int, digest: str, experiment: str) -> None:
        self.job_id = job_id
        self.digest = digest
        self.experiment = experiment
        self.state = "pending"
        self.submitted: Optional[float] = None
        self.admitted: Optional[float] = None
        self.dispatched: Optional[float] = None
        self.finished: Optional[float] = None
        self.sim_exec: float = 0.0
        self.store_write: float = 0.0
        self.from_store = False
        self.checkpoints = 0
        self.resumed_from = 0
        self.preempted_at: Optional[int] = None

    @property
    def end_to_end(self) -> float:
        if self.admitted is None or self.finished is None:
            return 0.0
        return self.finished - self.admitted

    @property
    def queue_wait(self) -> float:
        if self.admitted is None or self.dispatched is None:
            return 0.0
        return self.dispatched - self.admitted

    @property
    def dispatch(self) -> float:
        return (self.end_to_end - self.queue_wait - self.sim_exec
                - self.store_write)

    def split(self) -> Dict[str, float]:
        """The exact latency split; sums to :attr:`end_to_end`."""
        return {"queue_wait": self.queue_wait, "dispatch": self.dispatch,
                "sim_exec": self.sim_exec, "store_write": self.store_write}


# ----------------------------------------------------------------------
# run ledger
# ----------------------------------------------------------------------

class RunLedger:
    """Append-only JSONL audit log of finished jobs.

    One canonical-JSON line per terminal job state, flushed per entry so
    a crashed coordinator loses at most the in-flight line. Writing
    happens from the coordinator loop (or a client thread resolving a
    store hit) — never from a worker, never from a simulation event
    handler — per the Checkpointer-vs-EventProcessor discipline.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.written = 0

    def record(self, entry: Mapping[str, Any]) -> None:
        line = canonical_json(dict(entry))
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    # -- replay --------------------------------------------------------
    @staticmethod
    def read(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
        """Parse a ledger file back into entry dicts (bad lines — e.g.
        a torn final write — are skipped, not fatal)."""
        entries: List[Dict[str, Any]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    entries.append(record)
        return entries

    @staticmethod
    def find_job(path: Union[str, os.PathLike],
                 job_id: int) -> Optional[Dict[str, Any]]:
        """The last ledger entry for ``job_id`` (last wins: a resubmit
        after service restart may reuse ids)."""
        found = None
        for entry in RunLedger.read(path):
            if entry.get("job") == job_id:
                found = entry
        return found


def format_history(entries: Sequence[Mapping[str, Any]]) -> str:
    """Render ledger entries as the ``svc history`` table."""
    lines = [f"{'job':>5} {'state':<9} {'experiment':<12} "
             f"{'e2e_s':>8} {'queue_s':>8} {'exec_s':>8} "
             f"{'attempts':>8} {'workers':<10} digest"]
    for e in entries:
        timings = e.get("timings") or {}
        workers = ",".join(str(w) for w in e.get("worker_history", ()))
        lines.append(
            f"{e.get('job', '?'):>5} {e.get('state', '?'):<9} "
            f"{e.get('experiment', '?'):<12} "
            f"{timings.get('end_to_end', 0):>8.3f} "
            f"{timings.get('queue_wait', 0):>8.3f} "
            f"{timings.get('sim_exec', 0):>8.3f} "
            f"{e.get('attempts', 0):>8} {workers or '-':<10} "
            f"{str(e.get('digest', ''))[:12]}")
    return "\n".join(lines)

