"""Smaller behaviours: messages, components, store policies, façade."""

import struct

import pytest

from repro.core import XCacheConfig, XCacheSystem
from repro.core.messages import Message
from repro.dsa.walkers import build_event_walker
from repro.harness.sweep import SWEEP_DSAS, build_model
from repro.sim import Component, Simulator


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def test_message_field_error_lists_available():
    msg = Message("MetaLoad", tag=(1,), fields={"key": 1, "table": 2})
    with pytest.raises(KeyError) as err:
        msg.get("root")
    assert "key" in str(err.value) and "table" in str(err.value)


def test_message_uids_unique():
    a = Message("E")
    b = Message("E")
    assert a.uid != b.uid


def test_component_wake_is_idempotent():
    sim = Simulator()
    ticks = []

    class Once(Component):
        def _tick(self):
            ticks.append(sim.now)
            return False

    c = Once(sim, "c")
    c.wake()
    c.wake()
    c.wake()
    sim.run()
    assert len(ticks) == 1


def test_component_reticks_while_busy():
    sim = Simulator()
    ticks = []

    class Busy(Component):
        def _tick(self):
            ticks.append(sim.now)
            return len(ticks) < 3

    Busy(sim, "b").wake()
    sim.run()
    assert ticks == [0, 1, 2]


def test_store_merge_overwrite_policy():
    config = XCacheConfig(ways=1, sets=8, data_sectors=32,
                          tag_fields=("vertex",), wlen=1)
    system = XCacheSystem(config, build_event_walker(),
                          store_merge="overwrite")
    system.store((1,), 111)
    system.run()
    system.store((1,), 222)
    system.run()
    system.load((1,), take=True)
    system.run()
    got = int.from_bytes(system.responses[-1].data[:8], "little")
    assert got == 222


def test_store_merge_policy_validated():
    with pytest.raises(ValueError):
        XCacheSystem(XCacheConfig(tag_fields=("vertex",)),
                     build_event_walker(), store_merge="xor")


def test_user_response_handler_invoked(mini_system):
    seen = []
    mini_system.on_response(lambda r: seen.append(r.request.tag))
    addr = mini_system.image.alloc_u64_array([5])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    assert seen == [(1,)]


@pytest.mark.parametrize("dsa", SWEEP_DSAS)
def test_dsa_model_handler_replaces_the_collector(dsa):
    """Every X-Cache DSA model registers a response handler, so a
    finished run keeps no response, request message or payload."""
    model = build_model(dsa, "ci")
    result = model.run()
    assert model.system.responses == []
    assert result.checks_passed


def test_run_until_cuts_off(mini_system):
    addr = mini_system.image.alloc_u64_array([5])
    mini_system.load((1,), walk_fields={"addr": addr})
    responses = mini_system.run(until=2)
    assert responses == []
    assert mini_system.now == 2


def test_tag_arity_enforced_at_issue(mini_system):
    with pytest.raises(ValueError):
        mini_system.load((1, 2))


def test_summary_counts_stores():
    config = XCacheConfig(ways=1, sets=8, data_sectors=32,
                          tag_fields=("vertex",), wlen=1)
    system = XCacheSystem(config, build_event_walker())
    system.store((1,), bits(1.0))
    system.run()
    assert system.summary()["meta_stores"] == 1
