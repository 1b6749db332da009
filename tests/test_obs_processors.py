"""Tests for obs processors: typed handlers and metrics."""

import pytest

from repro.obs import (
    ALL_EVENT_TYPES,
    EventBus,
    Hit,
    Merge,
    MetricsProcessor,
    Miss,
    WalkerRetire,
    summarize_metrics,
)
from repro.sim.stats import Histogram, StatGroup


def _hit(cycle=1, **kw):
    kw.setdefault("tag", (1,))
    return Hit(cycle=cycle, component="ctl", **kw)


# ----------------------------------------------------------------------
# a processor is its on_<event> methods
# ----------------------------------------------------------------------
class _HitsOnly:
    def __init__(self):
        self.hits = []
        self.retires = []

    def on_hit(self, ev):
        self.hits.append(ev)

    def on_walker_retire(self, ev):
        self.retires.append(ev)


def test_typed_processor_subscribes_only_handled_types():
    bus = EventBus()
    bus.attach(_HitsOnly())
    assert {cls for cls in ALL_EVENT_TYPES if bus.wants(cls)} == {
        Hit, WalkerRetire}


def test_typed_processor_dispatches_by_class():
    bus = EventBus()
    p = bus.attach(_HitsOnly())
    bus.publish(_hit())
    bus.publish(Miss(cycle=2, component="ctl", tag=(1,), op="MetaLoad"))
    bus.publish(WalkerRetire(cycle=9, component="ctl", tag=(1,),
                             found=True, lifetime=7))
    assert len(p.hits) == 1 and len(p.retires) == 1


def test_typed_processor_with_no_handlers_subscribes_nothing():
    class Empty:
        pass

    bus = EventBus()
    bus.attach(Empty())
    assert not any(bus.wants(cls) for cls in ALL_EVENT_TYPES)


# ----------------------------------------------------------------------
# MetricsProcessor
# ----------------------------------------------------------------------
def _feed_metrics(metrics):
    bus = EventBus()
    bus.attach(metrics)
    from repro.obs import DRAMIssue, QueueStall, RequestArrive

    for i in range(4):
        bus.publish(RequestArrive(cycle=i, component="ctl",
                                  tag=(i,), op="load"))
    bus.publish(_hit(load_to_use=3))
    bus.publish(_hit(load_to_use=5))
    bus.publish(_hit(store=True, load_to_use=4))
    bus.publish(Miss(cycle=4, component="ctl", tag=(9,), op="MetaLoad"))
    bus.publish(Merge(cycle=5, component="ctl", tag=(9,)))
    bus.publish(WalkerRetire(cycle=104, component="ctl", tag=(9,),
                             found=True, lifetime=100))
    bus.publish(DRAMIssue(cycle=10, component="dram", addr=64,
                          is_write=False, bank=1, row_result="row_hits",
                          complete_at=25))
    bus.publish(QueueStall(cycle=11, component="ctl", tag=(9,),
                           reason="no_context"))
    return metrics


def test_metrics_processor_counts_and_histograms():
    m = _feed_metrics(MetricsProcessor())
    assert m.stats.get("requests") == 4
    assert m.stats.get("hits") == 2
    assert m.stats.get("store_hits") == 1
    assert m.stats.get("misses") == 1
    assert m.stats.get("merges") == 1
    assert m.stats.get("walks_completed") == 1
    assert m.stats.get("dram_reads") == 1
    assert m.stats.get("stalls") == 1
    assert m.hit_rate() == 3 / 4
    assert m.stats.histogram("load_to_use").count == 3
    assert m.stats.histogram("miss_latency").percentile(0.5) == 100
    assert m.stats.histogram("dram_latency").mean == 15.0


def test_metrics_handlers_count_through_bound_counters(monkeypatch):
    # every handler bumps a counter bound at construction: none looks
    # one up by name, and the counts are the by-name ones
    from repro.obs import DRAMIssue, Evict, Fill

    def by_name(self, name, amount=1):
        raise AssertionError(f"StatGroup.inc({name!r}) on the event path")

    metrics = MetricsProcessor()
    monkeypatch.setattr(StatGroup, "inc", by_name)
    _feed_metrics(metrics)
    bus = EventBus()
    bus.attach(metrics)
    bus.publish(_hit(status=0))
    bus.publish(Fill(cycle=12, component="ctl", tag=(9,), addr=64))
    bus.publish(Evict(cycle=13, component="ctl", tag=(9,), sectors=1))
    bus.publish(DRAMIssue(cycle=14, component="dram", addr=128,
                          is_write=True, complete_at=30))
    counts = {name: metrics.stats.get(name) for name in (
        "requests", "nowalk_misses", "hits", "store_hits", "misses",
        "merges", "walks_completed", "fills", "dram_reads", "dram_writes",
        "evictions", "stalls")}
    assert counts == {"requests": 4, "nowalk_misses": 1, "hits": 2,
                      "store_hits": 1, "misses": 1, "merges": 1,
                      "walks_completed": 1, "fills": 1, "dram_reads": 1,
                      "dram_writes": 1, "evictions": 1, "stalls": 1}
    assert metrics.stats.histogram("load_to_use").count == 3
    assert metrics.stats.histogram("dram_latency").count == 2


def test_metrics_summary_text():
    text = _feed_metrics(MetricsProcessor()).summary()
    assert "hit-rate=0.7500" in text
    assert "miss-latency" in text and "p95=100" in text
    assert "load-to-use" in text and "p50=" in text


def test_empty_histogram_renders_placeholder_not_zeros():
    """Regression: an all-hits (or empty) run has no miss-latency
    samples; the summary must say so instead of printing fake zeros."""
    text = summarize_metrics(StatGroup("empty"))
    assert "miss-latency: (no samples)" in text
    assert "load-to-use: (no samples)" in text
    assert "hit-rate=0.0000" in text
    # populated histograms still render percentiles
    populated = _feed_metrics(MetricsProcessor()).summary()
    assert "(no samples)" not in populated


def test_empty_histogram_percentile_contract():
    h = Histogram("empty")
    assert h.count == 0
    assert h.percentile(0.5) == 0
    assert h.percentile(1.0) == 0
    # range validation applies even with no samples
    with pytest.raises(ValueError):
        h.percentile(1.5)
    with pytest.raises(ValueError):
        h.percentile(-0.1)


def test_one_metrics_processor_sums_two_buses():
    # a capture attaches one processor to every system's bus, so its
    # counts and histograms are the sum over both streams
    metrics = _feed_metrics(_feed_metrics(MetricsProcessor()))
    assert metrics.stats.get("requests") == 8
    assert metrics.stats.get("hits") == 4
    assert metrics.stats.get("walks_completed") == 2
    assert metrics.hit_rate() == 6 / 8
    assert metrics.stats.histogram("load_to_use").count == 6
    assert metrics.stats.histogram("miss_latency").percentile(0.99) == 100
    assert metrics.stats.histogram("dram_latency").count == 2


# ----------------------------------------------------------------------
# system integration: observe() and a direct controller-bus attach
# ----------------------------------------------------------------------
def test_observe_and_controller_bus_share_one_bus(mini_system):
    direct = mini_system.controller.ensure_bus().attach(_HitsOnly())
    metrics = mini_system.observe(MetricsProcessor())
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    assert len(direct.hits) == 1 and len(direct.retires) == 1
    assert metrics.stats.get("hits") == 1
    assert metrics.stats.get("misses") == 1
    assert metrics.stats.get("walks_completed") == 1
    assert metrics.stats.histogram("miss_latency").count == 1
    assert metrics.stats.get("dram_reads") == 1


# ----------------------------------------------------------------------
# a processor that raises fails the run: a partial capture is a wrong run
# ----------------------------------------------------------------------
class _ProcessorBug(Exception):
    pass


def _raise(self, ev):
    raise _ProcessorBug(f"on_hit @{ev.cycle}")


def test_raising_processor_fails_system_run(mini_system):
    class Broken:
        on_hit = _raise

    mini_system.observe(Broken())
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()                       # a miss: no Hit published
    mini_system.load((1,), walk_fields={"addr": addr})
    with pytest.raises(_ProcessorBug):
        mini_system.run()


def test_raising_capture_processor_returns_no_report(monkeypatch):
    from repro.harness.parallel import execute_one
    from repro.obs.capture import CaptureSpec

    monkeypatch.setattr(MetricsProcessor, "on_hit", _raise)
    with pytest.raises(_ProcessorBug):
        execute_one("fig04", "ci", CaptureSpec(metrics=True))
