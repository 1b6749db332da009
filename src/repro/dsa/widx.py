"""Widx: hash-index walking for in-memory databases (Kocberber et al.).

The DSA accelerates hash-join index probes: hash the key, locate the
bucket, chase the chained nodes, return the RID. The original Widx kept
data in an *address-based* cache, so every probe — even for hot keys —
paid the hash (up to ~60 cycles for TPC-H's string keys) and the walk.

X-Cache instead tags the cached index nodes with the *keys themselves*
(Figure 10a): a meta-tag hit returns the RID in 3 cycles, skipping both
hashing and walking. That is the source of the paper's 1.54× speedup
over Widx and the ~10× lower load-to-use latency.

Variants modelled here:

* :class:`WidxXCacheModel`    — meta-tagged X-Cache (hash walker program).
* :class:`WidxBaselineModel`  — original Widx: ``num_walkers`` probe
  engines that always hash + walk through an address cache.
* :class:`WidxAddressModel`   — the Figure-14 comparator: address-tagged
  cache of the same size with an *ideal* walker (same parallelism as
  X-Cache, zero orchestration cost — but it must still translate and
  walk, because the tags are addresses).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..core.config import XCacheConfig, table3_config
from ..core.controller import MetaResponse
from ..core.energy import EnergyModel
from ..core.xcache import XCacheSystem
from ..data.hashindex import HashIndex, IndexLayout
from ..mem.addrcache import AddressCache, CacheConfig
from ..mem.dram import DRAMConfig, DRAMModel
from ..mem.layout import MemoryImage
from ..sim import Component, Simulator
from .base import RequestPump, RunResult
from .walkers import build_hash_walker

__all__ = [
    "WidxWorkload",
    "WidxXCacheModel",
    "WidxBaselineModel",
    "WidxAddressModel",
    "matched_cache_config",
]

HASH_CYCLES_STRING = 60   # TPC-H 19/20: string keys (paper: "up to 60 cycles")
HASH_CYCLES_NUMERIC = 4   # TPC-H 22: numeric keys


@dataclass(frozen=True)
class WidxWorkload:
    """A hash-join probe workload.

    ``pairs``  — (key, rid) tuples building the index.
    ``probes`` — the key trace the DSA looks up.
    ``num_buckets`` — index bucket count (power of two).
    ``hash_cycles`` — hash-unit latency (string vs numeric keys).
    """

    pairs: Tuple[Tuple[int, int], ...]
    probes: Tuple[int, ...]
    num_buckets: int
    hash_cycles: int = HASH_CYCLES_STRING
    name: str = "widx"


def matched_cache_config(config: XCacheConfig) -> CacheConfig:
    """Address-cache geometry matching an X-Cache's data capacity.

    The paper keeps the same geometry across X-Cache, the address cache,
    and the baseline "to ensure a fair comparison".
    """
    sets = max(1, config.data_bytes // (config.ways * 64))
    # round down to a power of two
    while sets & (sets - 1):
        sets &= sets - 1
    return CacheConfig(ways=config.ways, sets=sets, block_bytes=64,
                       hit_latency=config.hit_latency)


#: per probe key: (rid or None, node addresses walked, bucket-root entry)
WalkTable = Dict[int, Tuple[Optional[int], Tuple[int, ...], int]]


def _rid_reference(index: HashIndex,
                   keys: Iterable[int]) -> Dict[int, Optional[int]]:
    """The functional answer per distinct key, fixed from the image as
    built, before the simulation starts: a model whose simulated memory
    changes during the run fails its check against it."""
    return {key: index.probe(key) for key in dict.fromkeys(keys)}


def _walk_reference(index: HashIndex, keys: Iterable[int]) -> WalkTable:
    """Like :func:`_rid_reference`, plus the accesses an address-tagged
    engine replays for the key (see :class:`_HashProbeEngine`)."""
    table: WalkTable = {}
    for key in dict.fromkeys(keys):
        rid, walk = index.probe_with_walk(key)
        table[key] = (rid, tuple(walk),
                      index.bucket_root_entry(index.bucket_of(key)))
    return table


Reference = Callable[[HashIndex, Iterable[int]], dict]


class _Shared:
    """What every model built from one workload object reuses: the
    index's layout, and each reference kind once a model computed it
    from its freshly laid-out image."""

    __slots__ = ("workload", "layout", "references")

    def __init__(self, workload: WidxWorkload, layout: IndexLayout) -> None:
        key = id(workload)
        self.workload = weakref.ref(workload, lambda ref: _forget(key, ref))
        self.layout = layout
        self.references: Dict[Reference, dict] = {}


#: id(workload) -> its entry, dropped when the workload dies. Nothing a
#: model or a workload holds reaches it, so no snapshot pickles it, and
#: an equal but distinct workload (a new pass or experiment) shares
#: nothing: it pays for its own first build, as a fresh run does
_SHARED: Dict[int, _Shared] = {}


def _forget(key: int, ref: weakref.ref) -> None:
    entry = _SHARED.get(key)
    if entry is not None and entry.workload is ref:
        del _SHARED[key]


def _index_with(image: MemoryImage, workload: WidxWorkload,
                reference: Reference) -> Tuple[HashIndex, dict]:
    """``workload``'s index laid out in ``image``, and its ``reference``
    (:func:`_rid_reference` or :func:`_walk_reference`) for the probes.

    The first model built from a workload object builds the index. A
    later one whose image stands at the same break writes the same two
    blocks at the same addresses instead, and reuses a reference kind an
    earlier model computed. An image at another break gets its own build
    and references.
    """
    key = id(workload)
    entry = _SHARED.get(key)
    if entry is None or entry.workload() is not workload:
        index, layout = IndexLayout.build(image, workload.pairs,
                                          workload.num_buckets)
        entry = _SHARED[key] = _Shared(workload, layout)
    elif entry.layout.brk == image.used:
        index = entry.layout.place(image)
    else:
        index = HashIndex.build(image, workload.pairs, workload.num_buckets)
        return index, reference(index, workload.probes)
    table = entry.references.get(reference)
    if table is None:
        table = entry.references[reference] = reference(index,
                                                        workload.probes)
    return index, table


class WidxXCacheModel:
    """Widx datapath over a programmed X-Cache."""

    def __init__(self, workload: WidxWorkload,
                 config: Optional[XCacheConfig] = None,
                 dram_config: DRAMConfig = DRAMConfig(),
                 window: int = 16) -> None:
        self.workload = workload
        self.config = config if config is not None else table3_config("widx")
        program = build_hash_walker(workload.num_buckets,
                                    workload.hash_cycles)
        self.system = XCacheSystem(self.config, program,
                                   dram_config=dram_config)
        self.index, self._reference = _index_with(
            self.system.image, workload, _rid_reference)
        self.window = window
        self._expected: Dict[int, Optional[int]] = {}
        self._failures = 0
        self._last_done = 0

    def start(self) -> None:
        """Attach handlers and seed the request pump (no simulation)."""
        probes = self.workload.probes
        self._table = self.index.table_addr
        self._pump = RequestPump(self.system.sim, len(probes), self._issue,
                                 window=self.window, name="widx-pump")
        self.system.on_response(self._on_resp)
        self._pump.start()

    def _on_resp(self, resp: MetaResponse) -> None:
        expected = self._expected.pop(resp.request.uid, "missing")
        if expected == "missing":
            self._failures += 1
        elif expected is None:
            if resp.found:
                self._failures += 1
        else:
            got = (int.from_bytes(resp.data[:8], "little")
                   if resp.found and resp.data else None)
            if got != expected:
                self._failures += 1
        self._last_done = max(self._last_done, resp.completed_at)
        self._pump.complete()

    def run(self) -> RunResult:
        self.start()
        self.system.run()
        return self.finish()

    def finish(self) -> RunResult:
        """Assemble the result after the simulation has drained."""
        probes = self.workload.probes
        ctrl = self.system.controller
        energy = EnergyModel().xcache_breakdown(ctrl, self._last_done)
        stats = ctrl.stats
        return RunResult(
            dsa=self.workload.name,
            variant="xcache",
            cycles=self._last_done,
            dram_reads=self.system.dram.stats.get("reads"),
            dram_writes=self.system.dram.stats.get("writes"),
            onchip_accesses=stats.get("tag_probes")
            + ctrl.dataram.stats.get("bytes_read") // 8
            + ctrl.dataram.stats.get("bytes_written") // 8,
            hits=stats.get("hits"),
            misses=stats.get("misses"),
            requests=len(probes),
            energy=energy,
            checks_passed=self._failures == 0,
            extras={
                "miss_merges": stats.get("miss_merges"),
                "actions": stats.get("actions_total"),
                "mean_load_to_use": stats.histogram("load_to_use").mean,
            },
        )

    def _issue(self, index: int) -> None:
        key = self.workload.probes[index]
        msg = self.system.load((key,), walk_fields={"table": self._table})
        self._expected[msg.uid] = self._reference[key]


class _HashProbeEngine(Component):
    """One blocking probe engine: hash → root access → chain walk.

    This is the translate-and-walk loop an address-tagged design cannot
    avoid: the engine computes the bucket address (hash), loads the root
    pointer through the cache, then loads nodes until the key matches.
    The addresses come from the model's :data:`WalkTable`, computed once
    per distinct key.
    """

    def __init__(self, sim: Simulator, cache: AddressCache,
                 reference: WalkTable, hash_cycles: int, name: str) -> None:
        super().__init__(sim, name)
        self.cache = cache
        self.reference = reference
        self.hash_cycles = hash_cycles
        self._n_hashes = self.stats.counter("hashes")
        self._n_agen_ops = self.stats.counter("agen_ops")

    def probe(self, key: int, callback: Callable[[Optional[int]], None]) -> None:
        self._n_hashes.value += 1
        self._n_agen_ops.value += 2
        rid, walk, root = self.reference[key]

        def after_hash() -> None:
            self.cache.access(root, False, lambda _lat: self._walk(walk, 0,
                                                                    rid,
                                                                    callback))

        self.sim.call_after(max(1, self.hash_cycles), after_hash)

    def _walk(self, walk: Sequence[int], i: int, rid: Optional[int],
              callback: Callable[[Optional[int]], None]) -> None:
        if i >= len(walk):
            callback(rid)
            return
        self._n_agen_ops.value += 1
        self.cache.access(walk[i], False,
                          lambda _lat: self._walk(walk, i + 1, rid, callback))


class _AddressVariantBase:
    """Shared machinery for the baseline and ideal-address variants."""

    variant = "addr"

    def __init__(self, workload: WidxWorkload, num_engines: int,
                 cache_config: Optional[CacheConfig] = None,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        self.workload = workload
        self.sim = Simulator()
        self.image = MemoryImage()
        self.dram = DRAMModel(self.sim, self.image, dram_config)
        cfg = cache_config or matched_cache_config(table3_config("widx"))
        self.cache = AddressCache(self.sim, self.dram, cfg)
        self.index, self._reference = _index_with(
            self.image, workload, _walk_reference)
        self.engines = [
            _HashProbeEngine(self.sim, self.cache, self._reference,
                             workload.hash_cycles, f"engine{i}")
            for i in range(num_engines)
        ]
        self._failures = 0
        self._last_done = 0
        self._next_probe = 0
        from ..sim.stats import Histogram
        self.latency_hist = Histogram("probe_latency")

    def _dispatch(self, engine: _HashProbeEngine) -> None:
        if self._next_probe >= len(self.workload.probes):
            return
        key = self.workload.probes[self._next_probe]
        self._next_probe += 1
        expected = self._reference[key][0]
        started = self.sim.now

        def on_done(rid: Optional[int]) -> None:
            if rid != expected:
                self._failures += 1
            self._done += 1
            self._last_done = self.sim.now
            self.latency_hist.add(self.sim.now - started)
            self._dispatch(engine)

        engine.probe(key, on_done)

    def run(self) -> RunResult:
        self._done = 0
        for engine in self.engines:
            self._dispatch(engine)
        self.sim.run()
        hash_ops = sum(e.stats.get("hashes") for e in self.engines)
        agen_ops = sum(e.stats.get("agen_ops") for e in self.engines)
        energy = EnergyModel().address_cache_breakdown(
            self.cache, self._last_done, agen_ops=agen_ops,
            hash_ops=hash_ops, hash_cycles=self.workload.hash_cycles)
        return RunResult(
            dsa=self.workload.name,
            variant=self.variant,
            cycles=self._last_done,
            dram_reads=self.dram.stats.get("reads"),
            dram_writes=self.dram.stats.get("writes"),
            onchip_accesses=self.cache.stats.get("accesses"),
            hits=self.cache.stats.get("hits"),
            misses=self.cache.stats.get("misses"),
            requests=len(self.workload.probes),
            energy=energy,
            checks_passed=(self._failures == 0
                           and self._done == len(self.workload.probes)),
            extras={"hash_ops": float(hash_ops)},
        )


class WidxBaselineModel(_AddressVariantBase):
    """The original Widx: a few walker units, always hash + walk."""

    variant = "baseline"

    def __init__(self, workload: WidxWorkload, num_walkers: int = 4,
                 cache_config: Optional[CacheConfig] = None,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        super().__init__(workload, num_walkers, cache_config, dram_config)


class WidxAddressModel(_AddressVariantBase):
    """Address-tagged comparator with an ideal walker.

    Same parallelism as the X-Cache configuration's #Active, zero
    orchestration cost — the remaining cost is purely what address tags
    force: hash + root + chain accesses on every probe.
    """

    variant = "addr"

    def __init__(self, workload: WidxWorkload,
                 xcache_config: Optional[XCacheConfig] = None,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        xcfg = xcache_config if xcache_config is not None \
            else table3_config("widx")
        super().__init__(workload, xcfg.num_active,
                         matched_cache_config(xcfg), dram_config)
