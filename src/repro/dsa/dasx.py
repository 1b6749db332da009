"""DASX: a hardware data-structure iterator (Kumar et al.).

DASX executes refill–compute–update *rounds*: a collector runs ahead of
the compute unit, refilling a hardwired object cache with the objects
the next round references; compute-unit accesses then hit on-chip. We
study the hash-table iterator (the paper's DASX(Hash) row): objects are
hash-index entries, and — unlike Widx — DASX couples hashing *into* the
walk, so X-Cache's hit-path hash elimination helps even more.

Variants:

* :class:`DasxXCacheModel`   — decoupled preloads into X-Cache; the
  compute unit's meta-loads hit (and reuse persists *across* rounds,
  which the flush-per-round baseline cannot do).
* :class:`DasxBaselineModel` — original DASX: per round, the collector
  hash+walks every key through an address cache into an object buffer
  that is reloaded each round; compute accesses are 1-cycle buffer hits.
* :class:`DasxAddressModel`  — same-size address cache with an ideal
  walker (the Figure 14 comparator): hash + walk on every access.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.config import XCacheConfig, table3_config
from ..core.controller import MetaResponse
from ..core.energy import EnergyModel
from ..core.xcache import XCacheSystem
from ..mem.addrcache import AddressCache, CacheConfig
from ..mem.dram import DRAMConfig, DRAMModel
from ..mem.layout import MemoryImage
from ..sim import Simulator
from .base import RunResult
from .walkers import build_hash_walker
from .widx import WidxWorkload, _HashProbeEngine, _index_with, \
    _rid_reference, _walk_reference, matched_cache_config

__all__ = ["DasxXCacheModel", "DasxBaselineModel", "DasxAddressModel"]


class DasxXCacheModel:
    """Round-based collector + compute unit over X-Cache."""

    def __init__(self, workload: WidxWorkload,
                 config: Optional[XCacheConfig] = None,
                 round_size: int = 64,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        self.workload = workload
        self.config = config if config is not None else table3_config("dasx")
        self.round_size = round_size
        program = build_hash_walker(workload.num_buckets,
                                    workload.hash_cycles,
                                    name="dasx-walker")
        self.system = XCacheSystem(self.config, program,
                                   dram_config=dram_config)
        self.index, self._reference = _index_with(
            self.system.image, workload, _rid_reference)
        self._rounds: List[Sequence[int]] = [
            workload.probes[i:i + round_size]
            for i in range(0, len(workload.probes), round_size)
        ]
        self._expected: Dict[int, Optional[int]] = {}
        self._phase = "preload"
        self._round = 0
        self._outstanding = 0
        self._failures = 0
        self._last_done = 0

    def start(self) -> None:
        """Attach handlers and issue the first round (no simulation)."""
        self.system.on_response(self._on_response)
        self._walk_fields = {"table": self.index.table_addr}
        self._start_preload(0)

    def run(self) -> RunResult:
        self.start()
        self.system.run()
        return self.finish()

    def finish(self) -> RunResult:
        """Assemble the result after the simulation has drained."""
        ctrl = self.system.controller
        energy = EnergyModel().xcache_breakdown(ctrl, self._last_done)
        stats = ctrl.stats
        return RunResult(
            dsa=self.workload.name if self.workload.name != "widx" else "dasx",
            variant="xcache",
            cycles=self._last_done,
            dram_reads=self.system.dram.stats.get("reads"),
            dram_writes=self.system.dram.stats.get("writes"),
            onchip_accesses=stats.get("tag_probes")
            + ctrl.dataram.stats.get("bytes_read") // 8
            + ctrl.dataram.stats.get("bytes_written") // 8,
            hits=stats.get("hits"),
            misses=stats.get("misses"),
            requests=len(self.workload.probes),
            energy=energy,
            checks_passed=self._failures == 0,
            extras={"rounds": float(len(self._rounds)),
                    "miss_merges": float(stats.get("miss_merges"))},
        )

    # ------------------------------------------------------------------
    def _start_preload(self, round_idx: int) -> None:
        """Collector phase: decoupled preloads for the round's keys."""
        if round_idx >= len(self._rounds):
            return
        self._phase = "preload"
        self._round = round_idx
        keys = self._rounds[round_idx]
        self._outstanding = len(keys)
        for key in keys:
            self.system.load((key,), walk_fields=self._walk_fields,
                             preload=True)

    def _start_compute(self) -> None:
        """Compute phase: meta-loads over the (now resident) round."""
        self._phase = "compute"
        keys = self._rounds[self._round]
        self._outstanding = len(keys)
        for key in keys:
            msg = self.system.load((key,), walk_fields=self._walk_fields)
            self._expected[msg.uid] = self._reference[key]

    def _on_response(self, resp: MetaResponse) -> None:
        self._last_done = max(self._last_done, resp.completed_at)
        if self._phase == "compute":
            expected = self._expected.pop(resp.request.uid, "missing")
            got = (int.from_bytes(resp.data[:8], "little")
                   if resp.found and resp.data else None)
            if expected == "missing" or got != expected:
                self._failures += 1
        self._outstanding -= 1
        if self._outstanding == 0:
            if self._phase == "preload":
                self._start_compute()
            else:
                self._start_preload(self._round + 1)


class DasxBaselineModel:
    """Original DASX: flush-per-round object buffer.

    Per round: ``num_collectors`` engines hash+walk each key through an
    address cache; once the round's objects are buffered, the compute
    unit consumes them at one per cycle; the buffer is then reloaded for
    the next round (no cross-round reuse).
    """

    def __init__(self, workload: WidxWorkload, round_size: int = 64,
                 num_collectors: int = 4,
                 cache_config: Optional[CacheConfig] = None,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        self.workload = workload
        self.round_size = round_size
        self.sim = Simulator()
        self.image = MemoryImage()
        self.dram = DRAMModel(self.sim, self.image, dram_config)
        cfg = cache_config or matched_cache_config(table3_config("dasx"))
        self.cache = AddressCache(self.sim, self.dram, cfg)
        self.index, self._reference = _index_with(
            self.image, workload, _walk_reference)
        self.engines = [
            _HashProbeEngine(self.sim, self.cache, self._reference,
                             workload.hash_cycles, f"collector{i}")
            for i in range(num_collectors)
        ]
        self._rounds: List[Sequence[int]] = [
            workload.probes[i:i + round_size]
            for i in range(0, len(workload.probes), round_size)
        ]
        self._failures = 0
        self._last_done = 0

    def run(self) -> RunResult:
        self._run_round(0)
        self.sim.run()
        hash_ops = sum(e.stats.get("hashes") for e in self.engines)
        agen_ops = sum(e.stats.get("agen_ops") for e in self.engines)
        energy = EnergyModel().address_cache_breakdown(
            self.cache, self._last_done, agen_ops=agen_ops,
            hash_ops=hash_ops, hash_cycles=self.workload.hash_cycles)
        return RunResult(
            dsa="dasx",
            variant="baseline",
            cycles=self._last_done,
            dram_reads=self.dram.stats.get("reads"),
            dram_writes=self.dram.stats.get("writes"),
            onchip_accesses=self.cache.stats.get("accesses"),
            hits=self.cache.stats.get("hits"),
            misses=self.cache.stats.get("misses"),
            requests=len(self.workload.probes),
            energy=energy,
            checks_passed=self._failures == 0,
            extras={"rounds": float(len(self._rounds))},
        )

    def _run_round(self, round_idx: int) -> None:
        if round_idx >= len(self._rounds):
            return
        keys = list(self._rounds[round_idx])
        pending = {"n": len(keys), "next": 0}

        def collect(engine: _HashProbeEngine) -> None:
            if pending["next"] >= len(keys):
                return
            key = keys[pending["next"]]
            pending["next"] += 1
            expected = self._reference[key][0]

            def on_done(rid) -> None:
                if rid != expected:
                    self._failures += 1
                pending["n"] -= 1
                if pending["n"] == 0:
                    # compute phase: one object per cycle from the buffer
                    self.sim.call_after(
                        len(keys), lambda: self._finish_round(round_idx))
                else:
                    collect(engine)

            engine.probe(key, on_done)

        for engine in self.engines:
            collect(engine)

    def _finish_round(self, round_idx: int) -> None:
        self._last_done = self.sim.now
        self._run_round(round_idx + 1)


class DasxAddressModel(DasxBaselineModel):
    """Figure-14 comparator for DASX: ideal walker over an address cache.

    Same round orchestration as the X-Cache variant (collector refills a
    round, compute consumes it), but objects are address-tagged: every
    collector refill must hash + walk through the cache, resident or not.
    Parallelism matches the X-Cache configuration's #Active.
    """

    def __init__(self, workload: WidxWorkload,
                 xcache_config: Optional[XCacheConfig] = None,
                 round_size: int = 64,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        xcfg = xcache_config if xcache_config is not None \
            else table3_config("dasx")
        super().__init__(workload, round_size=round_size,
                         num_collectors=xcfg.num_active,
                         cache_config=matched_cache_config(xcfg),
                         dram_config=dram_config)

    def run(self) -> RunResult:
        result = super().run()
        result.variant = "addr"
        return result
