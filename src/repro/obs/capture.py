"""Harness-level capture: observe every system an experiment builds.

``python -m repro.harness fig07 --events t.jsonl --perfetto t.json
--metrics-summary`` needs to attach processors to systems constructed
deep inside experiment drivers. The drivers don't take a bus argument —
instead :class:`~repro.core.xcache.XCacheSystem` checks the *current
capture* at construction (one module-global lookup, ``None`` on every
un-observed run) and self-registers.

:class:`CaptureSpec` is the picklable request (paths + flags) a service
job carries to its worker process — for ``--parallel`` and ``repro.svc
sweep`` alike, and the only way a service job is observed;
:class:`Capture` is the live per-process state (open files, per-system
processors, the capture-wide views).
Output paths are namespaced per experiment (``t.jsonl`` →
``t.fig07.jsonl``) so a multi-experiment or ``--parallel`` run never has
two writers on one file.

Beyond raw export, a capture can arm the cycle-attribution profiler
(``prof_path`` → folded stacks + a per-DSA breakdown appended to the
report), time-series sampling over 1000-cycle windows
(``timeseries_path`` → CSV with one ``run`` column per observed
system), per-request span assembly and critical-path blame
(``spans``/``spans_path``/``explain_top`` → the why-slow table in the
report, the K slowest requests drilled down, and the SLO-gate summary
JSON), and the pathology watchdog (``watchdog`` → livelock /
MSHR-saturation / starvation warnings in the report).

A view whose fold is a plain sum is one object per capture, fed by
every system: the JSONL stream, the Perfetto exporter, the metrics
processor and the cycle profile. The profile and the span blame share
one :class:`~repro.obs.spans.SpanAssembler` per system. The critical
path aggregator (its top-K keeps the earliest of equal latencies, so
the order systems merge in picks the drill-downs), the cache lens,
the watchdog and the time series stay per system.

A capture is also how a trace is replayed: ``python -m
repro.obs.explain`` arms one bus per ``run`` of a JSONL trace with
:meth:`Capture.attach` and publishes the trace's records to it, so the
replay's report and SLO summary are the live capture's.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import IO, Dict, Iterator, List, Optional

from .cachelens import CacheLensProcessor, merge_summaries, why_miss_report
from .critpath import CritPathAggregator
from .export import JsonlExporter, PerfettoExporter
from .processors import MetricsProcessor
from .prof import CycleProfile, write_folded
from .spans import SpanAssembler
from .timeseries import TimeSeriesProcessor, write_csv, write_heatmap_csv
from .watchdog import WatchdogProcessor

__all__ = ["CaptureSpec", "Capture", "capture_scope", "current_capture",
           "use_capture"]


def _with_exp_id(path: str, exp_id: str) -> str:
    p = pathlib.Path(path)
    return str(p.with_name(f"{p.stem}.{exp_id}{p.suffix or ''}"))


def _scoped(spec: "CaptureSpec", tag: str, **changes) -> "CaptureSpec":
    """``spec`` with every output path suffixed by ``tag``."""

    def scoped(path: Optional[str]) -> Optional[str]:
        return _with_exp_id(path, tag) if path else None

    return replace(
        spec,
        events_path=scoped(spec.events_path),
        perfetto_path=scoped(spec.perfetto_path),
        prof_path=scoped(spec.prof_path),
        timeseries_path=scoped(spec.timeseries_path),
        spans_path=scoped(spec.spans_path),
        heatmap_path=scoped(spec.heatmap_path),
        **changes,
    )


@dataclass(frozen=True)
class CaptureSpec:
    """What to capture (picklable; crosses process boundaries)."""

    events_path: Optional[str] = None
    perfetto_path: Optional[str] = None
    metrics: bool = False
    prof_path: Optional[str] = None
    timeseries_path: Optional[str] = None
    spans: bool = False                   # span assembly, report-only
    spans_path: Optional[str] = None      # SLO summary JSON (implies spans)
    explain_top: int = 0                  # drill down K slowest (implies spans)
    watchdog: bool = False                # pathology warnings in the report
    misses: bool = False                  # miss taxonomy + why-miss table
    heatmap_path: Optional[str] = None    # per-set heatmap CSV (implies misses)
    job_scoped: bool = False              # service applies for_job() paths
    exp_id: Optional[str] = None          # set by for_experiment()

    @property
    def wants_spans(self) -> bool:
        return bool(self.spans or self.spans_path or self.explain_top)

    @property
    def wants_misses(self) -> bool:
        return bool(self.misses or self.heatmap_path)

    @property
    def active(self) -> bool:
        return bool(self.events_path or self.perfetto_path or self.metrics
                    or self.prof_path or self.timeseries_path
                    or self.wants_spans or self.watchdog
                    or self.wants_misses)

    def for_experiment(self, exp_id: str) -> "CaptureSpec":
        """Namespace the output paths for one experiment run.

        Idempotent: a spec already scoped (``exp_id`` set) is returned
        unchanged, so accidentally scoping twice cannot produce
        double-suffixed paths (``t.fig04.fig04.jsonl``).
        """
        if self.exp_id is not None:
            return self
        return _scoped(self, exp_id, exp_id=exp_id)

    def for_job(self, job_id: int) -> "CaptureSpec":
        """Namespace the output paths for one service job.

        Applied worker-side *before* :meth:`for_experiment`, so a
        service sweep that captures gets per-job files (``t.jsonl`` →
        ``t.job3.jsonl`` → ``t.job3.fig04.jsonl``) the run ledger can
        point ``repro.obs.explain`` at. Job scoping leaves ``exp_id``
        unset, so experiment scoping still applies afterwards.

        Only specs with ``job_scoped=True`` get this treatment (the
        ``repro.svc`` CLI sets it); the parallel harness rides the same
        pool but keeps its documented per-experiment-only paths
        (``p.jsonl`` → ``p.fig04.jsonl``).
        """
        return _scoped(self, f"job{job_id}")

    def output_paths(self) -> Dict[str, str]:
        """The non-None output paths by kind (what the run ledger
        records so ``explain --ledger`` can find a job's events)."""
        paths = {
            "events": self.events_path,
            "perfetto": self.perfetto_path,
            "prof": self.prof_path,
            "timeseries": self.timeseries_path,
            "spans": self.spans_path,
            "heatmap": self.heatmap_path,
        }
        return {k: v for k, v in paths.items() if v}


class Capture:
    """Live capture state for one experiment in one process."""

    def __init__(self, spec: CaptureSpec) -> None:
        self.spec = spec
        self.systems_observed = 0
        self._events_stream: Optional[IO[str]] = None
        self._perfetto: Optional[PerfettoExporter] = None
        # the capture-wide views, fed by every system (None: not armed)
        self.metrics: Optional[MetricsProcessor] = (
            MetricsProcessor() if spec.metrics else None)
        self.profile: Optional[CycleProfile] = (
            CycleProfile() if spec.prof_path else None)
        self._timeseries: List[TimeSeriesProcessor] = []
        self._critpaths: List[CritPathAggregator] = []
        self._watchdogs: List[WatchdogProcessor] = []
        self._lenses: List[CacheLensProcessor] = []
        self._closed = False
        self.summary_text: Optional[str] = None
        if spec.perfetto_path:
            self._perfetto = PerfettoExporter(spec.perfetto_path)

    # ------------------------------------------------------------------
    # system registration
    # ------------------------------------------------------------------
    def attach(self, bus) -> None:
        """Arm one system's bus with this capture's processors.

        Each call is one system, ``run`` n of the JSONL stream:
        :class:`~repro.core.xcache.XCacheSystem` passes its bus when it
        is built inside the capture, and ``repro.obs.explain`` passes
        one bus per ``run`` of the trace it replays.
        """
        run = self.systems_observed
        self.systems_observed += 1
        if self.spec.events_path:
            if self._events_stream is None:
                self._events_stream = open(self.spec.events_path, "w")
            bus.attach(JsonlExporter(self._events_stream,
                                     extra={"run": run}))
        if self._perfetto is not None:
            self._perfetto.new_run()
            bus.attach(self._perfetto)
        if self.metrics is not None:
            bus.attach(self.metrics)
        if self.spec.timeseries_path:
            self._timeseries.append(bus.attach(TimeSeriesProcessor()))
        if self.spec.wants_spans or self.profile is not None:
            sink = None
            if self.spec.wants_spans:
                agg = CritPathAggregator(top_k=max(self.spec.explain_top, 1))
                self._critpaths.append(agg)
                sink = agg.add
            bus.attach(SpanAssembler(
                sink=sink,
                walk_sink=(self.profile.add if self.profile is not None
                           else None)))
        if self.spec.watchdog:
            self._watchdogs.append(bus.attach(WatchdogProcessor()))
        if self.spec.wants_misses:
            self._lenses.append(bus.attach(CacheLensProcessor()))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def merged_critpath(self) -> CritPathAggregator:
        merged = CritPathAggregator(top_k=max(self.spec.explain_top, 1))
        for agg in self._critpaths:
            merged.merge(agg)
        return merged

    def merged_cachelens(self) -> Dict[str, Dict[str, object]]:
        """Per-cache why-miss summary folded across observed systems
        (counter sums — order-independent under ``--parallel``)."""
        return merge_summaries(lens.summary() for lens in self._lenses)

    @property
    def watchdog_warnings(self) -> List:
        return [w for dog in self._watchdogs for w in dog.warnings]

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finish(self) -> Optional[str]:
        """Close outputs; returns the report text (if any was asked)."""
        if self._closed:
            return self.summary_text
        self._closed = True
        if self._perfetto is not None:
            self._perfetto.close()
        if self._events_stream is not None:
            self._events_stream.close()
            self._events_stream = None
        pieces: List[str] = []
        if self.metrics is not None:
            pieces.append(self.metrics.summary())
        if self.profile is not None:
            write_folded(self.spec.prof_path, self.profile)
            pieces.append(self.profile.summary())
        if self.spec.timeseries_path:
            write_csv(self.spec.timeseries_path,
                      [(i, proc) for i, proc in enumerate(self._timeseries)])
        lens_summary = (self.merged_cachelens()
                        if self.spec.wants_misses else None)
        if self.spec.wants_spans:
            from .explain import explain_report, slo_summary

            merged = self.merged_critpath()
            if self.spec.spans_path:
                doc = slo_summary(merged, self.spec.exp_id or "run",
                                  lens=lens_summary)
                with open(self.spec.spans_path, "w",
                          encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            pieces.append(explain_report(merged, top=self.spec.explain_top))
        if lens_summary is not None:
            if self.spec.heatmap_path:
                write_heatmap_csv(
                    self.spec.heatmap_path,
                    [(i, lens.heat_rows())
                     for i, lens in enumerate(self._lenses)])
            pieces.append(why_miss_report(lens_summary))
        if self._watchdogs:
            warnings = self.watchdog_warnings
            lines = ["-- watchdog (repro.obs.watchdog) --",
                     f"warnings={len(warnings)}"]
            lines.extend(
                f"  [{w.kind}] @{w.cycle} {w.component}: {w.detail}"
                for w in warnings)
            pieces.append("\n".join(lines))
        if pieces:
            self.summary_text = "\n".join(pieces)
        return self.summary_text


_current: Optional[Capture] = None


def current_capture() -> Optional[Capture]:
    """The capture systems should self-register with (None = off)."""
    return _current


@contextmanager
def use_capture(capture: Capture) -> Iterator[Capture]:
    """Install an already-built :class:`Capture` for the enclosed run.

    Unlike :func:`capture_scope` this does not finish the capture on
    exit: the caller owns ``capture.finish()``, so it can time the
    finish or read the capture's state around it.
    """
    global _current
    previous = _current
    _current = capture
    try:
        yield capture
    finally:
        _current = previous


@contextmanager
def capture_scope(spec: Optional[CaptureSpec]) -> Iterator[Optional[Capture]]:
    """Install ``spec`` as the current capture for the enclosed run."""
    if spec is None or not spec.active:
        yield None
        return
    capture = Capture(spec)
    try:
        with use_capture(capture):
            yield capture
    finally:
        capture.finish()
