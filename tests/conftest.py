"""Shared fixtures: tiny walkers, systems, and workloads for fast tests."""

import pytest

from repro.core import (
    EV_FILL,
    EV_META_LOAD,
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


@pytest.fixture
def mini_walker():
    """One-block fetch walker: tag -> 8 bytes at msg['addr']."""
    spec = WalkerSpec(
        name="mini",
        transitions=(
            Transition("Default", EV_META_LOAD, (
                op.allocM(),
                op.mov(R(0), MSG("addr")),
                op.enq_dram(addr=R(0)),
                op.state("Wait"),
            )),
            Transition("Wait", EV_FILL, (
                op.and_(R(1), R(0), IMM(63)),
                op.allocD(R(2), IMM(1)),
                op.write(R(2), R(1), nbytes=8, from_msg=True),
                op.update("sector_start", R(2)),
                op.addi(R(3), R(2), 1),
                op.update("sector_end", R(3)),
                op.finish(),
            )),
        ),
    )
    return compile_walker(spec)


@pytest.fixture
def mini_config():
    return XCacheConfig(ways=2, sets=8, data_sectors=128, num_active=4,
                        num_exe=2, xregs_per_walker=8)


@pytest.fixture
def mini_system(mini_walker, mini_config):
    return XCacheSystem(mini_config, mini_walker)


@pytest.fixture
def feed():
    """``feed(processor, *events)``: publish ``events`` on a bus with
    ``processor`` attached, the one way a processor takes events;
    returns the processor."""
    from repro.obs import EventBus

    def feed(processor, *events):
        bus = EventBus()
        bus.attach(processor)
        for event in events:
            bus.publish(event)
        return processor

    return feed
