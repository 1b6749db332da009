"""`repro.obs` — the observability plane.

A zero-cost-when-off telemetry subsystem: typed events
(:mod:`repro.obs.events`), a per-type-subscription bus
(:mod:`repro.obs.bus`), processors that fold the stream into metrics
(:mod:`repro.obs.processors`), and exporters for JSONL and
Perfetto/Chrome-trace output (:mod:`repro.obs.export`). On top of the
stream sit the cycle-attribution profiler (:mod:`repro.obs.prof`),
per-request span trees (:mod:`repro.obs.spans`) with critical-path
why-slow analysis (:mod:`repro.obs.critpath`, CLI ``python -m
repro.obs.explain``), windowed time-series sampling
(:mod:`repro.obs.timeseries`), the pathology watchdog
(:mod:`repro.obs.watchdog`), and a benchmark regression + SLO gate
(``python -m repro.obs.regress``). :mod:`repro.obs.capture` wires it
into the experiment harness (``--events`` / ``--perfetto`` /
``--metrics-summary`` / ``--prof`` / ``--timeseries`` / ``--spans`` /
``--explain-top`` / ``--watchdog`` / ``--misses``), and ``python -m
repro.obs.explain`` replays a recorded JSONL trace through the same
capture, so a replay reports exactly what the live run did.

Quick start — ``system.observe(processor)`` is the one way to watch a
single system::

    from repro.obs import MetricsProcessor

    system = XCacheSystem(config, program)
    metrics = system.observe(MetricsProcessor())
    ...issue requests...
    system.run()
    print(metrics.summary())
"""

from .events import (
    ACTION_CATEGORIES,
    ALL_EVENT_TYPES,
    EVENT_TYPES,
    DRAMComplete,
    DRAMIssue,
    Event,
    Evict,
    Fill,
    Hit,
    Merge,
    Miss,
    QueueStall,
    Reclaim,
    RequestArrive,
    RunEnd,
    RunStart,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
    event_fields,
    event_from_json,
)
from .bus import EventBus
from .processors import (
    EventProcessor,
    MetricsProcessor,
    NullProcessor,
    TypedEventProcessor,
    summarize_metrics,
)
from .export import JsonlExporter, PerfettoExporter, event_to_dict
from .prof import CycleProfile, apportion, write_folded
from .spans import (
    EpisodeRef,
    RequestSpan,
    SpanAssembler,
    WalkPhase,
    WalkSpan,
)
from .critpath import (
    BLAME_BUCKETS,
    CritPathAggregator,
    blame_request,
    verify_request,
)
from .timeseries import TimeSeriesProcessor, write_csv
from .watchdog import ObsWarning, WatchdogProcessor
from .capture import Capture, CaptureSpec, capture_scope, current_capture

__all__ = [
    # events
    "Event", "RunStart", "RunEnd", "RequestArrive", "Hit", "Miss", "Merge",
    "WalkerDispatch", "WalkerWake", "WalkerYield", "WalkerRetire",
    "DRAMIssue", "DRAMComplete", "Fill", "Evict", "Reclaim", "QueueStall",
    "EVENT_TYPES", "ALL_EVENT_TYPES", "ACTION_CATEGORIES", "event_fields",
    "event_from_json",
    # bus
    "EventBus",
    # processors
    "EventProcessor", "TypedEventProcessor", "MetricsProcessor",
    "NullProcessor", "summarize_metrics",
    # spans / critical path
    "SpanAssembler", "RequestSpan", "WalkSpan", "WalkPhase", "EpisodeRef",
    "CritPathAggregator", "BLAME_BUCKETS", "blame_request", "verify_request",
    # profiler / time-series / watchdog
    "CycleProfile", "apportion", "write_folded",
    "TimeSeriesProcessor", "write_csv",
    "WatchdogProcessor", "ObsWarning",
    # export
    "JsonlExporter", "PerfettoExporter", "event_to_dict",
    # capture
    "Capture", "CaptureSpec", "capture_scope", "current_capture",
]
