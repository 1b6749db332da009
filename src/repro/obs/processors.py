"""The metrics processor and its report.

A processor is any object with ``on_<event>`` methods (see
:mod:`repro.obs.bus`); :meth:`~repro.obs.bus.EventBus.attach` binds
them. :class:`MetricsProcessor` folds the stream into the existing
:class:`~repro.sim.stats.StatGroup` containers (counters plus
load-to-use / miss-latency / DRAM-latency histograms with
p50/p95/p99); its books are plain sums, so one processor can take the
events of many systems.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.stats import StatGroup

__all__ = ["MetricsProcessor", "summarize_metrics"]


class MetricsProcessor:
    """Folds the event stream into counters and latency histograms.

    The containers are the same :class:`~repro.sim.stats.StatGroup`
    machinery every component already uses. Every count and histogram
    bucket is a plain sum, so one processor attached to many buses
    reports their total — that is how ``--metrics-summary`` covers an
    experiment that builds many systems.
    """

    def __init__(self, group: Optional[StatGroup] = None) -> None:
        self.stats = group if group is not None else StatGroup("obs")
        counter = self.stats.counter
        self._n_requests = counter("requests")
        self._n_nowalk_misses = counter("nowalk_misses")
        self._n_hits = counter("hits")
        self._n_store_hits = counter("store_hits")
        self._n_misses = counter("misses")
        self._n_merges = counter("merges")
        self._n_walks_completed = counter("walks_completed")
        self._n_fills = counter("fills")
        self._n_dram_reads = counter("dram_reads")
        self._n_dram_writes = counter("dram_writes")
        self._n_evictions = counter("evictions")
        self._n_stalls = counter("stalls")
        self._load_to_use = self.stats.histogram("load_to_use")
        self._miss_latency = self.stats.histogram("miss_latency")
        self._dram_latency = self.stats.histogram("dram_latency")

    # -- handlers ------------------------------------------------------
    def on_request_arrive(self, ev) -> None:
        self._n_requests.value += 1

    def on_hit(self, ev) -> None:
        if not ev.status:
            # nowalk miss: answered negatively without a walk
            self._n_nowalk_misses.value += 1
            return
        if ev.store:
            self._n_store_hits.value += 1
        else:
            self._n_hits.value += 1
        self._load_to_use.add(ev.load_to_use)

    def on_miss(self, ev) -> None:
        self._n_misses.value += 1

    def on_merge(self, ev) -> None:
        self._n_merges.value += 1

    def on_walker_retire(self, ev) -> None:
        self._n_walks_completed.value += 1
        self._miss_latency.add(ev.lifetime)

    def on_fill(self, ev) -> None:
        self._n_fills.value += 1

    def on_dram_issue(self, ev) -> None:
        if ev.is_write:
            self._n_dram_writes.value += 1
        else:
            self._n_dram_reads.value += 1
        self._dram_latency.add(ev.complete_at - ev.cycle)

    def on_evict(self, ev) -> None:
        self._n_evictions.value += 1

    def on_queue_stall(self, ev) -> None:
        self._n_stalls.value += 1

    # -- reporting -----------------------------------------------------
    def hit_rate(self) -> float:
        return _hit_rate(self.stats)

    def summary(self) -> str:
        return summarize_metrics(self.stats)


def _hit_rate(stats: StatGroup) -> float:
    hits = stats.get("hits") + stats.get("store_hits")
    total = hits + stats.get("misses")
    return hits / total if total else 0.0


def _hist_line(label: str, hist) -> str:
    if not hist.count:
        return f"{label}: (no samples)"
    return (f"{label}: mean={hist.mean:.1f} "
            f"p50={hist.percentile(0.50)} "
            f"p95={hist.percentile(0.95)} "
            f"p99={hist.percentile(0.99)} (n={hist.count})")


def summarize_metrics(stats: StatGroup) -> str:
    """Render one metrics StatGroup (possibly merged) as report text."""
    hits = stats.get("hits") + stats.get("store_hits")
    lines = [
        "-- metrics summary (repro.obs) --",
        (f"requests={stats.get('requests')} hits={hits} "
         f"misses={stats.get('misses')} merges={stats.get('merges')} "
         f"hit-rate={_hit_rate(stats):.4f}"),
        _hist_line("load-to-use", stats.histogram("load_to_use")),
        _hist_line("miss-latency", stats.histogram("miss_latency")),
        (f"dram: reads={stats.get('dram_reads')} "
         f"writes={stats.get('dram_writes')} fills={stats.get('fills')}; "
         + _hist_line("latency", stats.histogram("dram_latency"))),
    ]
    extras = []
    if stats.get("evictions"):
        extras.append(f"evictions={stats.get('evictions')}")
    if stats.get("stalls"):
        extras.append(f"stalls={stats.get('stalls')}")
    if extras:
        lines.append(" ".join(extras))
    return "\n".join(lines)
