"""Host-time observability for the service plane (``repro.svc.telemetry``).

The simulated machine has deep observability (the ``repro.obs`` event
bus, profiler, span trees, critical-path SLO gates) — all measured in
*simulated cycles*. The service that actually runs jobs lives in host
wall-clock time, and this module is its observability plane:

* :class:`MetricsRegistry` — the one place the service keeps its
  numbers: a lock-cheap counter/gauge/summary registry covering job
  outcomes, queue depth, admission rejects, worker restarts, store
  hit/miss/coalesced, watchdog warnings, simulated cache health, and
  per-experiment job latency percentiles (p50/p95/p99 from the same
  :class:`~repro.sim.stats.Histogram` that backs the simulated-cycle
  percentiles). Always on. Snapshots are JSON-able, each worker's
  per-job snapshot folds into the service registry through one
  :meth:`~MetricsRegistry.merge`, and they render as Prometheus text
  exposition.
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
* :class:`MetricsHTTPServer` — the registry over a stdlib
  ``http.server`` endpoint (``GET /metrics``, Prometheus text format),
  armed with ``python -m repro.svc serve --metrics-port``.
* :func:`render_top` — the frame renderer behind ``python -m repro.svc
  top``, a live ANSI terminal view over the remote metrics snapshot.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim.stats import Histogram
from .store import canonical_json

__all__ = [
    "MetricsRegistry",
    "JobSpan",
    "RunLedger",
    "MetricsHTTPServer",
    "render_prometheus",
    "render_top",
    "QUANTILES",
    "LEDGER_ENV",
]

#: environment default for the service run ledger path ("" = off)
LEDGER_ENV = "REPRO_SVC_LEDGER"

#: quantiles exposed for every summary metric
QUANTILES = (0.5, 0.95, 0.99)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _quantize_us(value_us: int) -> int:
    """Round a microsecond value to 2 significant digits.

    Bounds the summary bucket count (≤ ~90 buckets per decade) so a
    service that runs for days cannot grow a histogram without limit,
    while keeping quantiles within 1% of exact.
    """
    if value_us <= 0:
        return 0
    scale = 10 ** max(0, int(math.floor(math.log10(value_us))) - 1)
    return (value_us // scale) * scale


def _histogram_from_wire(series: Iterable[Mapping]) -> Histogram:
    """One microsecond :class:`Histogram` holding every wire-form
    (``{"count", "sum_us", "buckets"}``) summary series given."""
    hist = Histogram("summary_us")
    for value in series:
        for bucket, weight in value.get("buckets", ()):
            hist.add(int(bucket), int(weight))
    return hist


class MetricsRegistry:
    """Counters, gauges, and latency summaries for the service plane.

    One lock, taken per service-rate operation (job transitions, store
    lookups, scrapes) — never per simulated event, so the registry costs
    nothing on the simulation hot path. Metric families are declared
    with :meth:`counter` / :meth:`gauge` / :meth:`summary` (idempotent;
    declaring a counter or gauge pre-registers its zero-valued series so
    exposition includes the metric before its first update) and bumped
    with :meth:`inc` / :meth:`set` / :meth:`observe`, which create an
    undeclared family on first use without that zero. A summary series
    is a :class:`~repro.sim.stats.Histogram` of quantized microseconds.
    Label sets are canonicalized, so a worker's :meth:`snapshot` folds
    into the service registry losslessly via :meth:`merge`.
    """

    def __init__(self, namespace: str = "repro_svc") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        # name -> {"type", "help", "series": {label_items: value|Histogram}}
        self._families: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str = "") -> dict:
        """The family ``name`` (created as ``kind`` if new; caller holds
        the lock)."""
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {
                "type": kind, "help": help_text, "series": {}}
        elif family["type"] != kind:
            raise ValueError(
                f"metric {name!r} already declared as {family['type']}")
        return family

    def _declare(self, name: str, kind: str,
                 help_text: str) -> "MetricsRegistry":
        with self._lock:
            family = self._family(name, kind, help_text)
            if kind != "summary":
                family["series"].setdefault((), 0)
        return self

    def counter(self, name: str, help_text: str = "") -> "MetricsRegistry":
        return self._declare(name, "counter", help_text)

    def gauge(self, name: str, help_text: str = "") -> "MetricsRegistry":
        return self._declare(name, "gauge", help_text)

    def summary(self, name: str, help_text: str = "") -> "MetricsRegistry":
        return self._declare(name, "summary", help_text)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: Union[int, float] = 1,
            **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._family(name, "counter")["series"]
            series[key] = series.get(key, 0) + amount

    def set(self, name: str, value: Union[int, float],
            **labels: Any) -> None:
        """Set a gauge — or pin a counter to an externally maintained
        monotonic total (how store stats sync into the scrape)."""
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name) or self._family(name, "gauge")
            family["series"][key] = value

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._family(name, "summary")["series"]
            hist = series.get(key)
            if hist is None:
                hist = series[key] = Histogram(name)
            hist.add(_quantize_us(int(round(seconds * 1e6))))

    def merge(self, snapshot: Mapping[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and summaries add; a gauge series takes the incoming
        value (a worker's reading is newer than ours). Folding the
        parts of one update sequence, in order, into an empty registry
        renders exactly what one registry fed the whole sequence does.
        """
        with self._lock:
            for name, incoming in snapshot.items():
                family = self._family(name, incoming["type"],
                                      incoming.get("help", ""))
                series = family["series"]
                for key, value in incoming["series"]:
                    items = tuple((str(k), str(v)) for k, v in key)
                    if family["type"] == "summary":
                        series.setdefault(items, Histogram(name)).merge(
                            _histogram_from_wire([value]))
                    elif family["type"] == "gauge":
                        series[items] = value
                    else:
                        series[items] = series.get(items, 0) + value

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def value(self, name: str, default: Union[int, float] = 0,
              **labels: Any) -> Union[int, float]:
        with self._lock:
            family = self._families.get(name)
            if family is None or family["type"] == "summary":
                return default
            return family["series"].get(_label_key(labels), default)

    def by_label(self, name: str, label: str) -> Dict[str, Union[int, float]]:
        """A counter or gauge family's series keyed by one label's value
        (series without that label are left out)."""
        with self._lock:
            family = self._families.get(name)
            series = family["series"] if family is not None else {}
            return {dict(key)[label]: value
                    for key, value in sorted(series.items())
                    if label in dict(key)}

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able copy of every family (the wire/merge format)."""
        with self._lock:
            out: Dict[str, dict] = {}
            for name in sorted(self._families):
                family = self._families[name]
                series = []
                for key in sorted(family["series"]):
                    value = family["series"][key]
                    if isinstance(value, Histogram):
                        value = {"count": value.count, "sum_us": value.total,
                                 "buckets": value.items()}
                    series.append([list(map(list, key)), value])
                out[name] = {"type": family["type"],
                             "help": family["help"], "series": series}
            return out

    def render(self) -> str:
        return render_prometheus(self.snapshot(), namespace=self.namespace)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")

def _escape_label(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_labels(items: Iterable[Sequence[str]]) -> str:
    parts = [f'{k}="{_escape_label(str(v))}"' for k, v in items]
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: Mapping[str, dict],
                      namespace: str = "repro_svc") -> str:
    """Render a registry snapshot as Prometheus text format (0.0.4).

    Deterministic: families alphabetical, series by sorted label items,
    summaries expose the :data:`QUANTILES` plus ``_sum``/``_count``.
    """
    lines: List[str] = []
    prefix = f"{namespace}_" if namespace else ""
    for name in sorted(snapshot):
        family = snapshot[name]
        full = f"{prefix}{name}"
        if family.get("help"):
            lines.append(f"# HELP {full} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {full} {family.get('type', 'counter')}")
        for key, value in family.get("series", ()):
            if family.get("type") == "summary":
                hist = _histogram_from_wire([value])
                for q in QUANTILES:
                    labels = _format_labels(
                        list(key) + [("quantile", f"{q:g}")])
                    lines.append(
                        f"{full}{labels} "
                        f"{_format_value(hist.percentile(q) / 1e6)}")
                tail = _format_labels(key)
                lines.append(f"{full}_sum{tail} "
                             f"{_format_value(hist.total / 1e6)}")
                lines.append(f"{full}_count{tail} {hist.count}")
            else:
                lines.append(
                    f"{full}{_format_labels(key)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


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


def format_history(entries: Sequence[Mapping[str, Any]],
                   limit: int = 0) -> str:
    """Render ledger entries as the ``svc history`` table."""
    if limit:
        entries = list(entries)[-limit:]
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


# ----------------------------------------------------------------------
# Prometheus HTTP endpoint
# ----------------------------------------------------------------------

class MetricsHTTPServer:
    """Serve ``GET /metrics`` from a render callable (stdlib only).

    ``provider`` returns the exposition text per scrape (the service
    refreshes its gauges inside it), so the endpoint is always current
    without any background sampling thread.
    """

    def __init__(self, provider: Callable[[], str],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        # imported here, not at module level: every service worker
        # imports this module for its registry and never serves HTTP
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                try:
                    body = outer.provider().encode("utf-8")
                except Exception as exc:  # pragma: no cover - defensive
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-scrape logs
                pass

        self.provider = provider
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "MetricsHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-svc-metrics", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None


# ----------------------------------------------------------------------
# `svc top` frame rendering
# ----------------------------------------------------------------------

_CLEAR = "\x1b[H\x1b[2J"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"

_WORKER_GLYPH = {"idle": ".", "busy": "#", "booting": "~", "dead": "x"}


def _snapshot_value(snapshot: Mapping[str, dict], name: str,
                    default: Union[int, float] = 0) -> Union[int, float]:
    family = snapshot.get(name)
    if not family:
        return default
    total: Union[int, float] = 0
    seen = False
    for _key, value in family.get("series", ()):
        if isinstance(value, (int, float)):
            total += value
            seen = True
    return total if seen else default


def _snapshot_summary(snapshot: Mapping[str, dict],
                      name: str) -> Histogram:
    family = snapshot.get(name) or {}
    return _histogram_from_wire(value for _key, value
                                in family.get("series", ()))


def render_top(metrics: Mapping[str, Any],
               previous: Optional[Mapping[str, Any]] = None,
               dt: float = 0.0, address: str = "",
               color: bool = True, clear: bool = True) -> str:
    """Render one ``svc top`` frame from a ``Service.metrics()`` dict.

    ``previous``/``dt`` (the prior poll and the seconds between) turn
    the monotonic counters into rates: jobs/s completed and events
    streamed since the last frame. Pure function — the CLI loop owns
    polling and timing, tests feed it fabricated snapshots.
    """
    bold, dim, reset = (_BOLD, _DIM, _RESET) if color else ("", "", "")
    snap = metrics.get("telemetry") or {}
    prev_snap = (previous or {}).get("telemetry") or {}

    completed = metrics.get("completed", 0)
    rate = 0.0
    if previous is not None and dt > 0:
        rate = max(0.0, (completed - previous.get("completed", 0)) / dt)

    store = metrics.get("store") or {}
    hits = store.get("hits", 0)
    lookups = hits + store.get("misses", 0)
    hit_rate = (100.0 * hits / lookups) if lookups else 0.0

    latency = _snapshot_summary(snap, "job_latency_seconds")
    queue_wait = _snapshot_summary(snap, "job_queue_wait_seconds")

    workers = metrics.get("workers") or []
    strip = "".join(_WORKER_GLYPH.get(w.get("state"), "?")
                    for w in workers)
    busy = sum(1 for w in workers if w.get("state") == "busy")

    lines = []
    if clear:
        lines.append(_CLEAR.rstrip("\n"))
    title = "repro.svc top"
    if address:
        title += f" — {address}"
    lines.append(f"{bold}{title}{reset}")
    lines.append(
        f"jobs      submitted={metrics.get('submitted', 0)} "
        f"completed={completed} failed={metrics.get('failed', 0)} "
        f"cancelled={metrics.get('cancelled', 0)} "
        f"rejected={metrics.get('rejected', 0)} "
        f"retries={metrics.get('retries', 0)}")
    lines.append(
        f"queue     depth={metrics.get('pending', 0)} "
        f"running={metrics.get('running', 0)} "
        f"throughput={rate:.2f} jobs/s")
    lines.append(
        f"latency   p50={latency.percentile(0.5) / 1e6:.3f}s "
        f"p95={latency.percentile(0.95) / 1e6:.3f}s "
        f"p99={latency.percentile(0.99) / 1e6:.3f}s "
        f"(n={latency.count}) | "
        f"queue-wait p99={queue_wait.percentile(0.99) / 1e6:.3f}s")
    lines.append(
        f"store     hit-rate={hit_rate:.1f}% hits={hits} "
        f"misses={store.get('misses', 0)} "
        f"coalesced={metrics.get('coalesced', 0)} "
        f"stores={store.get('stores', 0)}")
    restarts = metrics.get("worker_restarts", 0)
    dropped = int(_snapshot_value(snap, "stream_dropped_total"))
    lines.append(
        f"workers   [{strip}] busy={busy}/{len(workers)} "
        f"restarts={restarts} stream-drops={dropped}")
    watchdog = metrics.get("watchdog") or {}
    if watchdog:
        kinds = " ".join(f"{k}={v}" for k, v in sorted(watchdog.items()))
        lines.append(f"watchdog  {kinds}")
    for w in workers:
        lines.append(
            f"{dim}  worker {w.get('worker')}: {w.get('state'):<8} "
            f"pid={w.get('pid')} jobs={w.get('jobs_done', 0)} "
            f"warnings={w.get('warnings', 0)} "
            f"job={w.get('job') if w.get('job') is not None else '-'}"
            f"{reset}")
    del prev_snap  # rates beyond completed/s not needed yet
    return "\n".join(lines) + "\n"
