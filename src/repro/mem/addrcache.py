"""Set-associative address-tagged cache with MSHRs.

This is the comparator the paper measures X-Cache against (and the lower
level of the MXA hierarchy from §6). It is a conventional write-back,
write-allocate, LRU cache: tags are block addresses, hits complete after
``hit_latency`` cycles, misses allocate an MSHR and fill from the lower
level (DRAM or another cache).

Functional data always lives in the shared :class:`MemoryImage`; the
cache models *timing and traffic* (hits, misses, evictions, DRAM
accesses), which is what the evaluation's figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from ..obs.events import CacheAccess, CacheEvict, CacheFill, CacheModel
from ..sim import Component, Simulator
from .dram import DRAMModel, MemRequest, MemResponse
from .mshr import MSHRFile

__all__ = ["CacheConfig", "CacheLine", "AddressCache"]


def _drop_writeback(resp: MemResponse) -> None:
    """Completion sink for fire-and-forget write-backs."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing for an address-tagged cache."""

    ways: int = 8
    sets: int = 64
    block_bytes: int = 64
    hit_latency: int = 3
    mshr_entries: int = 16
    ports: int = 1             # accesses accepted per cycle

    def __post_init__(self) -> None:
        if self.sets & (self.sets - 1):
            raise ValueError("sets must be a power of two")
        if self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a power of two")
        if self.ways <= 0:
            raise ValueError("ways must be positive")

    @property
    def capacity_bytes(self) -> int:
        return self.ways * self.sets * self.block_bytes


@dataclass
class CacheLine:
    valid: bool = False
    tag: int = -1
    dirty: bool = False
    last_used: int = 0


class AddressCache(Component):
    """A conventional cache front-ending a DRAM (or another cache)."""

    def __init__(self, sim: Simulator, lower: DRAMModel,
                 config: CacheConfig = CacheConfig(),
                 name: str = "addr-cache") -> None:
        super().__init__(sim, name)
        self.lower = lower
        self.config = config
        self._sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(config.ways)] for _ in range(config.sets)
        ]
        self._mshrs = MSHRFile(config.mshr_entries)
        self._stalled: List[Callable[[], None]] = []
        self._port_cycle = -1
        self._port_used = 0
        # Logical access counter for LRU: sim-time ties (a fill and a hit
        # in the same cycle) would otherwise make eviction order depend
        # on way position.
        self._lru_tick = 0
        # geometry announce for cache-contents observers: lazily, before
        # this component's first armed cache event (armed path only)
        self._announced = False
        # one bump per access, fill or write-back: bound counters
        stats = self.stats
        self._n_accesses = stats.counter("accesses")
        self._n_hits = stats.counter("hits")
        self._n_misses = stats.counter("misses")
        self._n_mshr_merges = stats.counter("mshr_merges")
        self._n_mshr_stalls = stats.counter("mshr_stalls")
        self._n_writebacks = stats.counter("writebacks")
        self._n_fills = stats.counter("fills")

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _block_of(self, addr: int) -> int:
        return addr & ~(self.config.block_bytes - 1)

    def _set_index(self, block: int) -> int:
        return (block // self.config.block_bytes) & (self.config.sets - 1)

    def _find(self, block: int) -> Optional[CacheLine]:
        for line in self._sets[self._set_index(block)]:
            if line.valid and line.tag == block:
                return line
        return None

    def contains(self, addr: int) -> bool:
        """Probe without side effects (testing / warm-up checks)."""
        return self._find(self._block_of(addr)) is not None

    # ------------------------------------------------------------------
    # observability (armed paths only; one `bus is None` check unarmed)
    # ------------------------------------------------------------------
    def _announce(self, bus) -> None:
        if not self._announced and bus.wants(CacheModel):
            self._announced = True
            bus.publish(CacheModel(
                cycle=self.sim.now, component=self.name, kind="addr",
                ways=self.config.ways, sets=self.config.sets,
                block_bytes=self.config.block_bytes, tag_class="addr"))

    def _publish_access(self, bus, block: int, outcome: str,
                        is_write: bool) -> None:
        self._announce(bus)
        if not bus.wants(CacheAccess):
            return
        bus.publish(CacheAccess(cycle=self.sim.now, component=self.name,
                                tag=(block,),
                                set_index=self._set_index(block),
                                outcome=outcome, is_write=is_write))

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def _acquire_port(self) -> int:
        """Serialize on the cache's access ports; returns the wait."""
        now = self.sim.now
        if self._port_cycle < now:
            self._port_cycle = now
            self._port_used = 0
        while self._port_used >= self.config.ports:
            self._port_cycle += 1
            self._port_used = 0
        self._port_used += 1
        return self._port_cycle - now

    def access(self, addr: int, is_write: bool,
               callback: Callable[[int], None]) -> None:
        """Timed access to the block containing ``addr``.

        ``callback(latency)`` fires when the access completes. Writes are
        write-allocate: a write miss fills the block first, then dirties
        it. Accesses contend for ``ports`` per cycle.
        """
        start = self.sim.now
        wait = self._acquire_port()
        if wait:
            self.sim.call_after(
                wait, partial(self._access_now, addr, is_write, callback,
                              start)
            )
        else:
            self._access_now(addr, is_write, callback, start)

    def _complete_hit(self, callback: Callable[[int], None],
                      start: int) -> None:
        callback(self.sim.now - start)

    def _fill_waiter(self, block: int, is_write: bool,
                     callback: Callable[[int], None], start: int) -> None:
        """MSHR waiter: touch the freshly installed line, complete."""
        filled = self._find(block)
        if filled is not None:
            self._lru_tick += 1
            filled.last_used = self._lru_tick
            if is_write:
                filled.dirty = True
        callback(self.sim.now - start)

    def _access_now(self, addr: int, is_write: bool,
                    callback: Callable[[int], None], start: int) -> None:
        block = self._block_of(addr)
        line = self._find(block)
        self._n_accesses.value += 1
        self._lru_tick += 1
        if line is not None:
            line.last_used = self._lru_tick
            if is_write:
                line.dirty = True
            self._n_hits.value += 1
            if self.bus is not None:
                self._publish_access(self.bus, block, "hit", is_write)
            self.sim.call_after(self.config.hit_latency,
                                partial(self._complete_hit, callback, start))
            return

        self._n_misses.value += 1

        on_fill = partial(self._fill_waiter, block, is_write, callback, start)
        if self._mshrs.lookup(block) is not None:
            self._mshrs.allocate(block, on_fill, is_write)
            self._n_mshr_merges.value += 1
            if self.bus is not None:
                self._publish_access(self.bus, block, "merge", is_write)
            return
        if self._mshrs.full:
            # Back-pressure: retry once an MSHR frees up.
            self._n_mshr_stalls.value += 1
            if self.bus is not None:
                self._publish_access(self.bus, block, "mshr_stall", is_write)
            self._stalled.append(partial(self.access, addr, is_write,
                                         callback))
            return

        if self.bus is not None:
            self._publish_access(self.bus, block, "miss", is_write)
        self._mshrs.allocate(block, on_fill, is_write)
        self._issue_fill(block)

    def _on_fill_response(self, block: int, resp: MemResponse) -> None:
        self._install(block)
        for waiter in self._mshrs.complete(block):
            waiter()
        self._drain_stalled()

    def _issue_fill(self, block: int) -> None:
        self._evict_for(block)
        self.lower.request(MemRequest(addr=block),
                           partial(self._on_fill_response, block))

    def _evict_for(self, block: int) -> None:
        set_index = self._set_index(block)
        lines = self._sets[set_index]
        for line in lines:
            if not line.valid:
                return
        victim = min(lines, key=lambda l: l.last_used)
        if victim.dirty:
            self._n_writebacks.value += 1
            # Fire-and-forget write-back: functional data is already in
            # the shared image, so only the traffic/timing matters.
            self.lower.request(
                MemRequest(addr=victim.tag, is_write=True), _drop_writeback
            )
        if self.bus is not None:
            self._announce(self.bus)
            if self.bus.wants(CacheEvict):
                self.bus.publish(CacheEvict(
                cycle=self.sim.now, component=self.name, tag=(victim.tag,),
                set_index=set_index, way=lines.index(victim),
                reason="replace"))
        victim.valid = False
        victim.tag = -1
        victim.dirty = False

    def _install(self, block: int) -> None:
        lines = self._sets[self._set_index(block)]
        target = None
        for line in lines:
            if not line.valid:
                target = line
                break
        if target is None:
            self._evict_for(block)
            for line in lines:
                if not line.valid:
                    target = line
                    break
        assert target is not None
        target.valid = True
        target.tag = block
        target.dirty = False
        self._lru_tick += 1
        target.last_used = self._lru_tick
        self._n_fills.value += 1
        if self.bus is not None:
            self._announce(self.bus)
            if self.bus.wants(CacheFill):
                self.bus.publish(CacheFill(
                cycle=self.sim.now, component=self.name, tag=(block,),
                set_index=self._set_index(block),
                way=lines.index(target)))

    def _drain_stalled(self) -> None:
        if self._stalled and not self._mshrs.full:
            retries, self._stalled = self._stalled, []
            for retry in retries:
                retry()

    # ------------------------------------------------------------------
    # warm-up / reporting
    # ------------------------------------------------------------------
    def preload(self, addr: int) -> None:
        """Install a block instantly (zero-cost warm-up for experiments)."""
        block = self._block_of(addr)
        if self._find(block) is None:
            self._install(block)

    def hit_rate(self) -> float:
        acc = self.stats.get("accesses")
        return self.stats.get("hits") / acc if acc else 0.0
