"""GraphPulse: event-driven asynchronous graph processing (Rahman et al.).

GraphPulse PEs emit (vertex, Δ) events; an on-chip event queue
*coalesces* events to the same vertex by adding payloads. The paper
replaces this queue with an X-Cache: the meta-tag is the vertex id,
a store-hit merges payloads with an adder on the hit port, a store-miss
allocates an entry (no DRAM walk at all), and the PE pops events with
take-loads (read + invalidate).

The workload is delta-based PageRank. Each processed event folds the
coalesced residual into the vertex's rank, streams the vertex's
adjacency from DRAM, and emits damped shares to the out-neighbours.

Variants:

* :class:`GraphPulseXCacheModel`  — events in a programmed X-Cache.
* ``ideal=True``                  — the hardwired-event-queue baseline:
  identical behaviour with an unconstrained controller (the paper finds
  X-Cache ≈ baseline for GraphPulse).
* :class:`GraphPulseAddressModel` — events in a DRAM-resident residual
  array behind an address cache: every insert is a read-modify-write
  through the cache, every pop a read + write.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from collections import deque

from ..core.config import XCacheConfig, table3_config
from ..core.controller import MetaResponse
from ..core.energy import EnergyModel
from ..core.xcache import XCacheSystem
from ..data.graphs import Graph, GraphLayout, pagerank_event_driven
from ..mem.addrcache import AddressCache, CacheConfig
from ..mem.dram import DRAMConfig, DRAMModel, MemRequest
from ..mem.layout import MemoryImage
from ..sim import Simulator
from .base import RunResult
from .walkers import build_event_walker

__all__ = ["GraphPulseXCacheModel", "GraphPulseAddressModel",
           "graphpulse_config"]


def _structure_cache(sim, dram, graph: Graph) -> AddressCache:
    """Graph-structure cache shared by all GraphPulse variants.

    GraphPulse bins events for locality and streams the partition's
    adjacency; a conventional cache sized to the (scaled) partition
    models that structure-side path. Events themselves never live here.
    """
    graph_bytes = 4 * (graph.num_edges + graph.num_vertices + 1)
    sets = 1
    while sets * 8 * 64 < 2 * graph_bytes:
        sets *= 2
    return AddressCache(sim, dram,
                        CacheConfig(ways=8, sets=sets, ports=2),
                        name="graph-structure")


def _f2b(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _b2f(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def graphpulse_config(num_vertices: int,
                      base: Optional[XCacheConfig] = None) -> XCacheConfig:
    """Table-3 GraphPulse geometry, with sets covering the graph.

    The paper provisions 131072 direct-mapped sets and preloads once;
    we size sets to the (scaled) graph so the event store never spills —
    conflict evictions would silently drop residual mass (see DESIGN.md
    fidelity notes).
    """
    cfg = base if base is not None else table3_config("graphpulse")
    sets = 1
    while sets < num_vertices:
        sets *= 2
    return replace(cfg, sets=sets, data_sectors=max(cfg.ways * sets, 64),
                   name="xcache-graphpulse")


class GraphPulseXCacheModel:
    """PageRank PEs over an X-Cache event queue."""

    def __init__(self, graph: Graph, config: Optional[XCacheConfig] = None,
                 damping: float = 0.85, epsilon: float = 1e-6,
                 num_pes: int = 4, ideal: bool = False,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        self.graph = graph
        cfg = config if config is not None else graphpulse_config(
            graph.num_vertices)
        if ideal:
            # Hardwired event-queue baseline: same geometry/behaviour,
            # no microcode interpretation (doubled back-end width).
            cfg = replace(cfg, num_exe=cfg.num_exe * 2,
                          name="hardwired-eventq")
        self.config = cfg
        self.ideal = ideal
        self.damping = damping
        self.epsilon = epsilon
        self.num_pes = num_pes
        self.system = XCacheSystem(cfg, build_event_walker(),
                                   dram_config=dram_config,
                                   store_merge="fadd")
        self.layout = GraphLayout.build(self.system.image, graph)
        self.struct_cache = _structure_cache(self.system.sim,
                                             self.system.dram, graph)
        self.rank: List[float] = [0.0] * graph.num_vertices
        self._pending: Deque[int] = deque()
        self._in_queue = [False] * graph.num_vertices
        self._outstanding_stores = 0
        self._takes: Dict[int, int] = {}   # msg uid -> vertex
        self._store_acks: Dict[int, Callable[[], None]] = {}
        # adjacency-stream / share-emission fan-in, keyed by a unique
        # token (the same vertex can be in flight twice): token ->
        # [remaining, v, share]. Plain data + bound-method partials, so
        # in-flight fan-ins survive snapshot/restore.
        self._streams: Dict[int, List] = {}
        self._stream_seq = 0
        self._emit_waits: Dict[int, int] = {}
        self._emit_seq = 0
        self._events_processed = 0
        self._last_done = 0
        self._idle_pes = 0
        self._max_cycles = 50_000_000

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach handlers and seed the initial residuals."""
        n = self.graph.num_vertices
        self.system.on_response(self._on_response)
        seed = (1.0 - self.damping) / n
        for v in range(n):
            self._emit(v, seed)
        self._idle_pes = self.num_pes
        self._schedule_pes()

    def run(self, max_cycles: int = 50_000_000) -> RunResult:
        self._max_cycles = max_cycles
        self.start()
        self.system.run(until=max_cycles)
        return self.finish()

    def finish(self) -> RunResult:
        """Assemble + validate the result after the run drains."""
        ctrl = self.system.controller
        energy = EnergyModel().xcache_breakdown(ctrl, self._last_done)
        stats = ctrl.stats
        checks = self._validate()
        return RunResult(
            dsa="graphpulse",
            variant="baseline" if self.ideal else "xcache",
            cycles=self._last_done,
            dram_reads=self.system.dram.stats.get("reads"),
            dram_writes=self.system.dram.stats.get("writes"),
            onchip_accesses=stats.get("tag_probes")
            + ctrl.dataram.stats.get("bytes_read") // 8
            + ctrl.dataram.stats.get("bytes_written") // 8,
            hits=stats.get("hits") + stats.get("store_hits"),
            misses=stats.get("misses"),
            requests=stats.get("meta_loads") + stats.get("meta_stores"),
            energy=energy,
            checks_passed=checks,
            extras={
                "events_processed": float(self._events_processed),
                "merge_ops": float(stats.get("merge_ops")),
                "rank_sum": sum(self.rank),
            },
        )

    def _validate(self) -> bool:
        total = sum(self.rank)
        if not 0.90 <= total <= 1.001:
            return False
        ref, _ = pagerank_event_driven(self.graph, self.damping,
                                       epsilon=self.epsilon / 10)
        l1 = sum(abs(a - b) for a, b in zip(self.rank, ref))
        return l1 < 0.05

    # ------------------------------------------------------------------
    def _emit(self, v: int, share: float, on_ack=None) -> None:
        self._outstanding_stores += 1
        msg = self.system.store((v,), _f2b(share))
        if on_ack is not None:
            self._store_acks[msg.uid] = on_ack
        if not self._in_queue[v]:
            self._in_queue[v] = True
            self._pending.append(v)

    def _schedule_pes(self) -> None:
        while self._idle_pes > 0 and self._pending:
            v = self._pending.popleft()
            self._in_queue[v] = False
            self._idle_pes -= 1
            msg = self.system.load((v,), take=True)
            self._takes[msg.uid] = v

    def _on_response(self, resp: MetaResponse) -> None:
        self._last_done = max(self._last_done, resp.completed_at)
        uid = resp.request.uid
        if uid in self._takes:
            v = self._takes.pop(uid)
            if resp.found and resp.data:
                residual = _b2f(int.from_bytes(resp.data[:8], "little"))
            else:
                residual = 0.0
            self._process_event(v, residual)
            return
        # a store ack
        self._outstanding_stores -= 1
        on_ack = self._store_acks.pop(uid, None)
        if on_ack is not None:
            on_ack()
        self._schedule_pes()

    def _process_event(self, v: int, residual: float) -> None:
        if residual <= self.epsilon:
            self._pe_done()
            return
        self._events_processed += 1
        self.rank[v] += residual
        deg = self.graph.out_degree(v)
        if deg == 0:
            self._pe_done()
            return
        share = self.damping * residual / deg
        # Stream the adjacency row from DRAM: indptr block + index blocks.
        first = self.layout.indices_entry(self.graph.indptr[v])
        last = self.layout.indices_entry(self.graph.indptr[v + 1] - 1)
        blocks = [self.layout.indptr_entry(v) & ~63]
        blocks.extend(range(first & ~63, (last & ~63) + 64, 64))
        self._stream_seq += 1
        token = self._stream_seq
        self._streams[token] = [len(blocks), v, share]
        on_block = partial(self._on_struct_block, token)
        for block in blocks:
            self.struct_cache.access(block, False, on_block)

    def _on_struct_block(self, token: int, _lat: int) -> None:
        entry = self._streams[token]
        entry[0] -= 1
        if entry[0] == 0:
            del self._streams[token]
            self._emit_shares(entry[1], entry[2])

    def _emit_shares(self, v: int, share: float) -> None:
        """Emit events; the PE stays busy until the queue accepts all
        of them (insert bandwidth back-pressures event generation)."""
        neighbors = self.graph.out_neighbors(v)
        if share <= self.epsilon or not neighbors:
            self._pe_done()
            return
        self._emit_seq += 1
        token = self._emit_seq
        self._emit_waits[token] = len(neighbors)
        acked = partial(self._on_share_ack, token)
        for u in neighbors:
            self._emit(u, share, on_ack=acked)

    def _on_share_ack(self, token: int) -> None:
        self._emit_waits[token] -= 1
        if self._emit_waits[token] == 0:
            del self._emit_waits[token]
            self._pe_done()

    def _pe_done(self) -> None:
        self._idle_pes += 1
        self._last_done = max(self._last_done, self.system.sim.now)
        self._schedule_pes()


class GraphPulseAddressModel:
    """Residuals in a DRAM array behind an address-tagged cache.

    Insert(v, Δ): read residual[v] through the cache, add, write back.
    Pop(v): read residual[v], write 0. The residual array footprint is
    8 B × |V|, so graphs larger than the cache thrash — the traffic an
    on-chip meta-tagged event store never generates.
    """

    def __init__(self, graph: Graph,
                 cache_config: Optional[CacheConfig] = None,
                 damping: float = 0.85, epsilon: float = 1e-6,
                 num_pes: int = 4,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        self.graph = graph
        self.damping = damping
        self.epsilon = epsilon
        self.num_pes = num_pes
        self.sim = Simulator()
        self.image = MemoryImage()
        self.dram = DRAMModel(self.sim, self.image, dram_config)
        if cache_config is None:
            xcfg = graphpulse_config(graph.num_vertices)
            from .widx import matched_cache_config
            cache_config = matched_cache_config(xcfg)
        self.cache = AddressCache(self.sim, self.dram, cache_config)
        self.layout = GraphLayout.build(self.image, graph)
        self.struct_cache = _structure_cache(self.sim, self.dram, graph)
        self.residual = [0.0] * graph.num_vertices   # functional mirror
        self.rank: List[float] = [0.0] * graph.num_vertices
        self._pending: Deque[int] = deque()
        self._in_queue = [False] * graph.num_vertices
        self._idle_pes = num_pes
        self._events_processed = 0
        self._inserts = 0
        self._last_done = 0

    def run(self, max_cycles: int = 50_000_000) -> RunResult:
        n = self.graph.num_vertices
        seed = (1.0 - self.damping) / n
        for v in range(n):
            self._insert(v, seed, lambda: None)
        self._schedule_pes()
        self.sim.run(until=max_cycles)
        energy = EnergyModel().address_cache_breakdown(
            self.cache, self._last_done,
            agen_ops=self._inserts * 2, hash_ops=0)
        checks = self._validate()
        return RunResult(
            dsa="graphpulse",
            variant="addr",
            cycles=self._last_done,
            dram_reads=self.dram.stats.get("reads"),
            dram_writes=self.dram.stats.get("writes"),
            onchip_accesses=self.cache.stats.get("accesses"),
            hits=self.cache.stats.get("hits"),
            misses=self.cache.stats.get("misses"),
            requests=self._inserts,
            energy=energy,
            checks_passed=checks,
            extras={"events_processed": float(self._events_processed),
                    "rank_sum": sum(self.rank)},
        )

    def _validate(self) -> bool:
        total = sum(self.rank)
        if not 0.90 <= total <= 1.001:
            return False
        ref, _ = pagerank_event_driven(self.graph, self.damping,
                                       epsilon=self.epsilon / 10)
        l1 = sum(abs(a - b) for a, b in zip(self.rank, ref))
        return l1 < 0.05

    # ------------------------------------------------------------------
    def _insert(self, v: int, delta: float, done: Callable[[], None]) -> None:
        """Read-modify-write residual[v] through the address cache."""
        self._inserts += 1
        addr = self.layout.rank_entry(v)  # reuse rank array as residual slot

        def after_read(_lat: int) -> None:
            self.residual[v] += delta
            self.cache.access(addr, True, lambda _l: done())

        self.cache.access(addr, False, after_read)
        if not self._in_queue[v]:
            self._in_queue[v] = True
            self._pending.append(v)

    def _schedule_pes(self) -> None:
        while self._idle_pes > 0 and self._pending:
            v = self._pending.popleft()
            self._in_queue[v] = False
            self._idle_pes -= 1
            self._pop(v)

    def _pop(self, v: int) -> None:
        addr = self.layout.rank_entry(v)

        def after_read(_lat: int) -> None:
            residual = self.residual[v]
            self.residual[v] = 0.0
            self.cache.access(addr, True,
                              lambda _l: self._process(v, residual))

        self.cache.access(addr, False, after_read)

    def _process(self, v: int, residual: float) -> None:
        self._last_done = self.sim.now
        if residual <= self.epsilon:
            self._pe_done()
            return
        self._events_processed += 1
        self.rank[v] += residual
        deg = self.graph.out_degree(v)
        if deg == 0:
            self._pe_done()
            return
        share = self.damping * residual / deg
        first = self.layout.indices_entry(self.graph.indptr[v])
        last = self.layout.indices_entry(self.graph.indptr[v + 1] - 1)
        blocks = [self.layout.indptr_entry(v) & ~63]
        blocks.extend(range(first & ~63, (last & ~63) + 64, 64))
        remaining = {"n": len(blocks)}

        def on_block(_lat) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._emit_shares(v, share)

        for block in blocks:
            self.struct_cache.access(block, False, on_block)

    def _emit_shares(self, v: int, share: float) -> None:
        if share > self.epsilon:
            outstanding = {"n": self.graph.out_degree(v)}

            def one_done() -> None:
                outstanding["n"] -= 1
                if outstanding["n"] == 0:
                    self._pe_done()

            for u in self.graph.out_neighbors(v):
                self._insert(u, share, one_done)
        else:
            self._pe_done()

    def _pe_done(self) -> None:
        self._idle_pes += 1
        self._last_done = self.sim.now
        self._schedule_pes()
