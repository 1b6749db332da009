"""Tests for the blocking-thread controller baseline (Figure 7)."""

import pytest

from repro.core import ThreadController, WalkStep
from repro.mem import DRAMModel, MemoryImage
from repro.sim import Simulator


def make_threads(pipelines=2, context_bytes=512):
    sim = Simulator()
    dram = DRAMModel(sim, MemoryImage())
    return sim, ThreadController(sim, dram, num_pipelines=pipelines,
                                 context_bytes=context_bytes)


def test_step_validation():
    with pytest.raises(ValueError):
        WalkStep("teleport")


def test_pipeline_count_validation():
    sim = Simulator()
    dram = DRAMModel(sim, MemoryImage())
    with pytest.raises(ValueError):
        ThreadController(sim, dram, num_pipelines=0)


def test_compute_walk_completes():
    sim, threads = make_threads()
    threads.submit([WalkStep("compute", cycles=10)])
    sim.run()
    assert threads.walks_completed == 1
    assert threads.drained
    assert sim.now >= 10


def test_dram_step_blocks_until_fill():
    sim, threads = make_threads()
    threads.submit([WalkStep("dram", addr=0)])
    sim.run()
    assert threads.walks_completed == 1
    assert threads.stats.get("dram_fetches") == 1
    assert sim.now > 10  # DRAM latency on the critical path


def test_pipelines_limit_concurrency():
    sim, threads = make_threads(pipelines=1)
    for _ in range(3):
        threads.submit([WalkStep("compute", cycles=10)])
    sim.run()
    assert threads.walks_completed == 3
    assert sim.now >= 30  # serialized on one pipeline


def test_parallel_pipelines_overlap():
    sim, threads = make_threads(pipelines=4)
    for _ in range(4):
        threads.submit([WalkStep("compute", cycles=10)])
    sim.run()
    assert sim.now < 20


def test_occupancy_integral_counts_stalls():
    sim, threads = make_threads(pipelines=1, context_bytes=100)
    threads.submit([WalkStep("compute", cycles=50)])
    sim.run()
    threads.finalize()
    assert threads.occupancy_byte_cycles == pytest.approx(100 * 50, rel=0.1)


def test_occupancy_grows_with_queueing():
    occ = []
    for n_walks in (1, 4):
        sim, threads = make_threads(pipelines=1, context_bytes=64)
        for _ in range(n_walks):
            threads.submit([WalkStep("dram", addr=0)])
        sim.run()
        threads.finalize()
        occ.append(threads.occupancy_byte_cycles)
    assert occ[1] > 2 * occ[0]


def test_walk_latency_histogram():
    sim, threads = make_threads()
    threads.submit([WalkStep("compute", cycles=5),
                    WalkStep("dram", addr=64)])
    sim.run()
    hist = threads.stats.histogram("walk_latency")
    assert hist.count == 1
    assert hist.mean > 5


def test_merged_compute_keeps_walk_timing():
    """Back-to-back compute steps each cost max(1, cycles) wall cycles:
    a zero-cycle step still takes its cycle."""
    sim, threads = make_threads(pipelines=1)
    cycles = (2, 3, 0, 1, 4)
    threads.submit(tuple(WalkStep("compute", cycles=c) for c in cycles))
    sim.run()
    assert threads.last_completion == sum(max(1, c) for c in cycles)
    assert threads.stats.get("compute_cycles") == sum(cycles)
