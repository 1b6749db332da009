"""Integration-grade unit tests for the X-Cache controller pipeline."""

from collections import Counter

import pytest

from repro.core import (
    EV_FILL,
    EV_META_LOAD,
    EV_META_STORE,
    IMM,
    MSG,
    R,
    Transition,
    WalkerSpec,
    XCacheConfig,
    XCacheSystem,
    compile_walker,
    op,
)
from repro.obs.events import Miss, WalkerRetire


def value_of(resp):
    return int.from_bytes(resp.data[:8], "little")


def test_miss_walks_and_returns_data(mini_system):
    addr = mini_system.image.alloc_u64_array([111])
    mini_system.load((1,), walk_fields={"addr": addr})
    responses = mini_system.run()
    assert len(responses) == 1
    assert responses[0].found
    assert value_of(responses[0]) == 111
    assert mini_system.controller.stats.get("misses") == 1


def test_second_access_hits(mini_system):
    addr = mini_system.image.alloc_u64_array([7])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    first_done = mini_system.responses[0].completed_at
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    second = mini_system.responses[1]
    assert second.found and value_of(second) == 7
    assert mini_system.controller.stats.get("hits") == 1
    # hit latency is the configured 3-cycle load-to-use
    assert second.completed_at - second.request.issued_at == \
        mini_system.controller.config.hit_latency
    assert second.completed_at > first_done


def test_concurrent_same_tag_merges(mini_system):
    addr = mini_system.image.alloc_u64_array([5])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.load((1,), walk_fields={"addr": addr})
    responses = mini_system.run()
    assert len(responses) == 3
    assert all(value_of(r) == 5 for r in responses)
    assert mini_system.controller.stats.get("misses") == 1
    assert mini_system.controller.stats.get("miss_merges") == 2
    assert mini_system.dram.stats.get("reads") == 1


def test_distinct_tags_walk_in_parallel(mini_system):
    addr = mini_system.image.alloc_u64_array([10, 20, 30])
    for i in range(3):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    responses = mini_system.run()
    assert sorted(value_of(r) for r in responses) == [10, 20, 30]
    assert mini_system.controller.stats.get("walks_completed") == 3


def test_nowalk_miss_returns_not_found(mini_system):
    mini_system.load((42,), nowalk=True)
    responses = mini_system.run()
    assert not responses[0].found
    assert mini_system.controller.stats.get("nowalk_misses") == 1
    assert mini_system.controller.stats.get("walks_started") == 0


def test_take_invalidates_entry(mini_system):
    addr = mini_system.image.alloc_u64_array([9])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    mini_system.load((1,), take=True)
    mini_system.run()
    assert value_of(mini_system.responses[1]) == 9
    mini_system.load((1,), take=True)
    mini_system.run()
    assert not mini_system.responses[2].found


def test_preload_then_hit(mini_system):
    addr = mini_system.image.alloc_u64_array([13])
    mini_system.load((1,), walk_fields={"addr": addr}, preload=True)
    mini_system.run()
    assert mini_system.responses[0].found
    assert mini_system.responses[0].data == b""  # ack only
    mini_system.load((1,))
    mini_system.run()
    assert value_of(mini_system.responses[1]) == 13


def test_context_exhaustion_backpressures(mini_walker):
    config = XCacheConfig(ways=8, sets=8, data_sectors=128, num_active=1,
                          num_exe=2, xregs_per_walker=8)
    system = XCacheSystem(config, mini_walker)
    addr = system.image.alloc_u64_array(list(range(6)))
    for i in range(6):
        system.load((i,), walk_fields={"addr": addr + 8 * i})
    responses = system.run()
    assert len(responses) == 6
    assert system.controller.stats.get("stall_no_context") > 0
    assert sorted(value_of(r) for r in responses) == list(range(6))


def test_set_conflict_stalls_until_walker_retires(mini_walker):
    # direct-mapped, 1 set: two concurrent misses to the same set
    config = XCacheConfig(ways=1, sets=1, data_sectors=64, num_active=4,
                          num_exe=2, xregs_per_walker=8)
    system = XCacheSystem(config, mini_walker)
    addr = system.image.alloc_u64_array([1, 2])
    system.load((0,), walk_fields={"addr": addr})
    system.load((1,), walk_fields={"addr": addr + 8})
    responses = system.run()
    assert len(responses) == 2
    assert all(r.found for r in responses)
    assert system.controller.stats.get("stall_set_conflict") > 0


def test_per_tag_order_preserved_with_store_then_take(mini_walker):
    """A take must never overtake an earlier store to the same tag."""
    from repro.dsa.walkers import build_event_walker
    import struct
    config = XCacheConfig(ways=1, sets=16, data_sectors=64, num_active=4,
                          tag_fields=("vertex",), wlen=1)
    system = XCacheSystem(config, build_event_walker(), store_merge="fadd")
    payload = struct.unpack("<Q", struct.pack("<d", 2.5))[0]
    system.store((3,), payload)
    system.load((3,), take=True)
    responses = system.run()
    take_resp = [r for r in responses if r.request.fields.get("take")][0]
    assert take_resp.found
    assert struct.unpack("<d", take_resp.data[:8])[0] == 2.5


def test_store_merges_on_hit():
    from repro.dsa.walkers import build_event_walker
    import struct
    config = XCacheConfig(ways=1, sets=16, data_sectors=64,
                          tag_fields=("vertex",), wlen=1)
    system = XCacheSystem(config, build_event_walker(), store_merge="fadd")

    def bits(x):
        return struct.unpack("<Q", struct.pack("<d", x))[0]

    system.store((1,), bits(1.0))
    system.run()
    system.store((1,), bits(0.5))
    system.run()
    system.load((1,), take=True)
    system.run()
    resp = system.responses[-1]
    assert struct.unpack("<d", resp.data[:8])[0] == pytest.approx(1.5)
    assert system.controller.stats.get("merge_ops") == 1


def test_warm_preloads_entry(mini_system):
    assert mini_system.controller.warm((5,), (123).to_bytes(8, "little"))
    mini_system.load((5,))
    mini_system.run()
    assert value_of(mini_system.responses[0]) == 123
    assert mini_system.controller.stats.get("misses") == 0


def test_capacity_eviction_reclaims_sectors(mini_walker):
    config = XCacheConfig(ways=8, sets=8, data_sectors=4, num_active=2,
                          num_exe=2, xregs_per_walker=8)
    system = XCacheSystem(config, mini_walker)
    addr = system.image.alloc_u64_array(list(range(8)))
    for i in range(8):
        system.load((i,), walk_fields={"addr": addr + 8 * i})
    responses = system.run()
    assert len(responses) == 8
    assert all(r.found for r in responses)
    assert system.controller.stats.get("capacity_evictions") > 0


def test_hit_rate_accounting(mini_system):
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    mini_system.load((1,))
    mini_system.run()
    assert mini_system.hit_rate() == pytest.approx(0.5)


def test_drain_complete(mini_system):
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    assert not mini_system.controller.drain_complete()
    mini_system.run()
    assert mini_system.controller.drain_complete()


def test_load_to_use_histogram(mini_system):
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    mini_system.load((1,))
    mini_system.run()
    hist = mini_system.controller.stats.histogram("load_to_use")
    assert hist.count == 2
    assert hist.min_seen == mini_system.controller.config.hit_latency


def test_summary_keys(mini_system):
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    summary = mini_system.summary()
    for key in ("cycles", "meta_loads", "hits", "misses", "dram_reads",
                "actions"):
        assert key in summary
    assert summary["meta_loads"] == 1


def test_eviction_frees_victim_sectors(mini_walker):
    """Regression: LRU eviction inside ALLOCM must not leak the victim's
    data-RAM sectors (found by the hierarchy ablation bench)."""
    from repro.core import XCacheConfig, XCacheSystem
    config = XCacheConfig(ways=1, sets=2, data_sectors=8, num_active=2,
                          num_exe=2, xregs_per_walker=8)
    system = XCacheSystem(config, mini_walker)
    addr = system.image.alloc_u64_array(list(range(64)))
    # 32x more distinct tags than sectors: without the orphan-free path
    # the data RAM exhausts after 8 evictions.
    for i in range(64):
        system.load((i,), walk_fields={"addr": addr + 8 * i})
        system.run()
    assert all(r.found for r in system.responses)
    ram = system.controller.dataram
    assert ram.used_sectors <= config.entries
    assert system.controller.metatags.stats.get("evictions") > 50


# ----------------------------------------------------------------------
# the controller's event stream, observed through its bus
# ----------------------------------------------------------------------
class _Recorder(list):
    """Keeps every walk-path event the controller publishes."""

    on_miss = on_walker_dispatch = on_fill = list.append
    on_walker_retire = on_hit = on_merge = list.append


def _record(system):
    return system.controller.ensure_bus().attach(_Recorder())


def _kinds(events):
    return Counter(type(e).__name__ for e in events)


def test_controller_publishes_walk_events(mini_system):
    events = _record(mini_system)
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    assert _kinds(events) == {"Miss": 1, "WalkerDispatch": 2,  # Default+Wait
                              "Fill": 1, "WalkerRetire": 1, "Hit": 1}


def test_one_dispatch_per_routine_and_retire_after_walk_start(mini_system):
    events = _record(mini_system)
    addr = mini_system.image.alloc_u64_array(list(range(6)))
    for i in range(6):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    kinds = _kinds(events)
    assert kinds["Miss"] == kinds["WalkerRetire"] == kinds["Fill"] == 6
    assert kinds["WalkerDispatch"] == 12
    starts = {e.tag: e.cycle for e in events if isinstance(e, Miss)}
    for retire in (e for e in events if isinstance(e, WalkerRetire)):
        assert retire.cycle > starts[retire.tag]


def test_duplicate_miss_publishes_merge(mini_system):
    events = _record(mini_system)
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    assert _kinds(events)["Merge"] == 1
