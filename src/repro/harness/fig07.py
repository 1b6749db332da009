"""Figure 7 — controller occupancy: coroutines vs threads.

Occupancy = Σ #active-registers × size_bytes × lifetime_cycles.

Coroutine walkers pin only the X-registers they touch and release them
the moment the walk retires; thread-based walkers (prior work: Ax-DAE,
CoRAM-style access engines) pin a full pipeline context — architectural
registers plus pipeline latches — and allocate/free it at *coarse
granularity* (a batch/tile of walks per thread). The paper measures
~1000× higher occupancy for threads, growing with the fraction of data
resident off-chip (long-latency DRAM stalls inflate lifetimes).

We drive the same probe set through both:

* X-Cache with a fraction of keys pre-warmed on-chip (so exactly
  ``off_chip`` of the probes walk), measuring the X-register integral;
* a :class:`~repro.core.threadctrl.ThreadController` running the same
  walks in coarse batches, blocking on each DRAM step.
"""

from __future__ import annotations

import random
from typing import List

from ..core.threadctrl import ThreadController, WalkStep
from ..dsa.widx import WidxXCacheModel
from ..mem.dram import DRAMModel
from ..mem.layout import MemoryImage
from ..sim import Simulator
from ..workloads.tpch import make_widx_workload
from .profiles import get_profile
from .report import ExperimentReport

__all__ = ["run", "measure_occupancy"]

_BATCH = 32              # walks per thread (coarse-grained allocation)
_THREAD_CONTEXT = 2048   # bytes pinned per resident thread: architectural
#                          + pipeline registers plus the per-thread tile
#                          buffer prior-work access engines double-buffer
_ONCHIP_STEP = 3         # cycles for a walk step served on-chip


def measure_occupancy(off_chip: float, num_keys: int = 1024,
                      hash_cycles: int = 10, seed: int = 11):
    """Returns (coroutine_occupancy, thread_occupancy, ratio)."""
    if not 0.0 < off_chip <= 1.0:
        raise ValueError("off_chip must be in (0, 1]")
    workload = make_widx_workload(
        num_keys=num_keys, num_probes=num_keys,
        num_buckets=num_keys, skew=0.0, hash_cycles=hash_cycles,
        miss_fraction=0.0, seed=seed,
    )
    rng = random.Random(seed)
    probes = list(dict.fromkeys(workload.probes))  # each key once
    cold = set(k for k in probes if rng.random() < off_chip)

    # --- coroutines: warm the hot keys, then run the probe trace -------
    model = WidxXCacheModel(workload, window=32)
    index = model.index
    ctrl = model.system.controller
    for key in probes:
        if key not in cold:
            rid = index.probe(key)
            if rid is not None:
                ctrl.warm((key,), rid.to_bytes(8, "little"))
    result = model.run()
    coro_occ = ctrl.xregs.occupancy_byte_cycles

    # --- threads: same walks, coarse batches, blocking DRAM steps ------
    sim = Simulator()
    image = MemoryImage()
    dram = DRAMModel(sim, image, model.system.dram.config)
    threads = ThreadController(sim, dram, num_pipelines=4,
                               context_bytes=_THREAD_CONTEXT)
    batch: List[WalkStep] = []
    for key in probes:
        batch.append(WalkStep("compute", cycles=hash_cycles))
        _rid, walk = index.probe_with_walk(key)
        for node in walk:
            if key in cold:
                batch.append(WalkStep("dram", addr=node % (1 << 20)))
            else:
                batch.append(WalkStep("compute", cycles=_ONCHIP_STEP))
        if len(batch) >= _BATCH * 3:
            threads.submit(batch)
            batch = []
    if batch:
        threads.submit(batch)
    sim.run()
    threads.finalize()
    thread_occ = threads.occupancy_byte_cycles

    ratio = thread_occ / max(1, coro_occ)
    return coro_occ, thread_occ, ratio, result


def run(profile: str = "full") -> ExperimentReport:
    prof = get_profile(profile)
    num_keys = {"full": 2048, "quick": 512}.get(prof.name, 256)
    report = ExperimentReport(
        exp_id="fig07",
        title="Controller occupancy: coroutine vs thread walkers",
        headers=["off-chip frac", "coroutine (B*cyc)", "thread (B*cyc)",
                 "ratio (thread/coroutine)"],
    )
    ratios = []
    threads = []
    for off_chip in (0.2, 0.4, 0.6, 0.8, 1.0):
        coro, thread, ratio, _res = measure_occupancy(off_chip, num_keys)
        report.rows.append([off_chip, coro, thread, round(ratio, 1)])
        ratios.append(ratio)
        threads.append(thread)

    report.expect_range(
        "occupancy ratio at full off-chip",
        "~1000x (threads allocate/free coarsely)",
        ratios[-1], 50.0, 50_000.0,
    )
    report.expect(
        "ratio stays orders of magnitude at every point",
        "threads dominate across the sweep",
        min(ratios),
        min(ratios) >= 20.0,
    )
    report.expect(
        "thread occupancy grows with off-chip fraction",
        "long-latency transactions inflate thread occupancy",
        threads[-1] / max(threads[0], 1),
        threads[-1] > threads[0],
    )
    report.notes.append(
        "absolute ratio depends on the thread context size "
        f"({_THREAD_CONTEXT} B here) and batch granularity ({_BATCH} "
        "walks/thread); the paper's ~1000x uses its RTL register counts"
    )
    return report
