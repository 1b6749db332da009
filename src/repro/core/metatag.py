"""The meta-tag array.

The defining structure of X-Cache: a ways×sets associative array tagged
by *DSA metadata* (hash keys, vertex ids, row indices) instead of block
addresses. Each entry carries:

* the meta-tag tuple,
* the walker FSM state of the entry (``Default``/walker states/``Valid``),
* the *active* bit — a walker is in flight for this tag (the paper's
  active-meta-tag bitmap, which both merges duplicate misses and routes
  DRAM responses back to the stalled walker),
* the bound X-register context while active,
* explicit start/end sector pointers into the decoupled data RAM
  ("like decoupled sector-caches"),
* waiters: datapath requests that arrived while the walk was in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.events import CacheEvict, CacheFill, CacheModel
from ..sim.stats import StatGroup
from .messages import DEFAULT_STATE, VALID_STATE, Message

__all__ = ["MetaTagEntry", "MetaTagArray"]

Tag = Tuple[int, ...]


@dataclass
class MetaTagEntry:
    set_index: int
    way: int
    valid: bool = False
    tag: Optional[Tag] = None
    state: str = DEFAULT_STATE
    active: bool = False
    ctx_id: int = -1
    sector_start: int = -1
    sector_end: int = -1
    last_used: int = 0
    waiters: List[Message] = field(default_factory=list)

    @property
    def servable(self) -> bool:
        """Hit-port servable: present, refill complete."""
        return self.valid and self.state == VALID_STATE and not self.active

    def reset(self) -> None:
        self.valid = False
        self.tag = None
        self.state = DEFAULT_STATE
        self.active = False
        self.ctx_id = -1
        self.sector_start = -1
        self.sector_end = -1
        self.waiters.clear()


class MetaTagArray:
    """Associative array over meta-tag tuples."""

    def __init__(self, ways: int, sets: int, tag_fields: Tuple[str, ...]) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        if sets & (sets - 1) or sets <= 0:
            raise ValueError("sets must be a positive power of two")
        self.ways = ways
        self.sets = sets
        self.tag_fields = tag_fields
        self._array: List[List[MetaTagEntry]] = [
            [MetaTagEntry(s, w) for w in range(ways)] for s in range(sets)
        ]
        self._index: Dict[Tag, MetaTagEntry] = {}
        self.stats = StatGroup("meta-tags")
        # bumped once per walk or take; bound so a bump is an attribute
        # add (conflicts stay on stats.inc)
        self._n_allocations = self.stats.counter("allocations")
        self._n_evictions = self.stats.counter("evictions")
        self._n_deallocations = self.stats.counter("deallocations")
        # observability: the owning controller propagates its event bus
        # and simulator here (see Controller.ensure_bus) so fills and
        # evictions publish with (set, way) coordinates. Unarmed cost is
        # one `bus is None` check per allocate/evict/deallocate.
        self.bus = None
        self.sim = None
        self.component = "meta-tags"
        self._announced = False
        # incremental active-walker count: `active` flips only through
        # mark_active/clear_active and the internal evict/dealloc paths,
        # so active_walkers() is O(1) instead of an index scan
        self._active_count = 0

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def set_of(self, tag: Tag) -> int:
        """Set index for a tag tuple.

        The first field indexes directly (sequential ids spread across
        sets, matching the generator's direct-mapped GraphPulse setup);
        additional fields are folded in with odd multipliers.
        """
        index = tag[0]
        for extra in tag[1:]:
            index ^= (extra * 0x9E3779B97F4A7C15) >> 16
        return index & (self.sets - 1)

    def check_tag(self, tag: Tag) -> None:
        if len(tag) != len(self.tag_fields):
            raise ValueError(
                f"tag {tag} has {len(tag)} fields; "
                f"array is tagged by {self.tag_fields}"
            )

    # ------------------------------------------------------------------
    # lookup / allocate / free
    # ------------------------------------------------------------------
    def lookup(self, tag: Tag) -> Optional[MetaTagEntry]:
        """Associative search with no side effects; the controller
        counts its hit-port probes itself (``tag_probes``)."""
        return self._index.get(tag)

    def touch(self, entry: MetaTagEntry, now: int) -> None:
        entry.last_used = now

    # ------------------------------------------------------------------
    # active-bitmap bookkeeping (O(1) active_walkers)
    # ------------------------------------------------------------------
    def mark_active(self, entry: MetaTagEntry) -> None:
        """Set the entry's active bit (a walker is in flight)."""
        if not entry.active:
            entry.active = True
            self._active_count += 1

    def clear_active(self, entry: MetaTagEntry) -> None:
        """Clear the entry's active bit (the walker released it)."""
        if entry.active:
            entry.active = False
            self._active_count -= 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _now(self) -> int:
        return self.sim.now if self.sim is not None else 0

    def announce(self, bus) -> None:
        """Publish the one-shot :class:`CacheModel` geometry event.

        Called lazily from every armed publish path (and from the
        controller before its first request-path event), so any
        cache-contents observer sees the geometry before the first
        access it must classify. One flag check when already announced.
        """
        if self._announced:
            return
        if not bus.wants(CacheModel):
            return
        self._announced = True
        bus.publish(CacheModel(
            cycle=self._now(), component=self.component, kind="meta",
            ways=self.ways, sets=self.sets,
            tag_class=",".join(self.tag_fields)))

    def _publish_fill(self, bus, entry: MetaTagEntry) -> None:
        self.announce(bus)
        if not bus.wants(CacheFill):
            return
        assert entry.tag is not None
        bus.publish(CacheFill(cycle=self._now(), component=self.component,
                              tag=entry.tag, set_index=entry.set_index,
                              way=entry.way))

    def _publish_evict(self, bus, tag: Tag, set_index: int, way: int,
                       reason: str) -> None:
        if not bus.wants(CacheEvict):
            return
        bus.publish(CacheEvict(cycle=self._now(), component=self.component,
                               tag=tag, set_index=set_index, way=way,
                               reason=reason))

    def can_allocate(self, tag: Tag) -> bool:
        """True when ALLOCM for ``tag`` would succeed (free/evictable way)."""
        return self.claimable_ways(tag) > 0

    def claimable_ways(self, tag: Tag) -> int:
        """How many ways of the tag's set an ALLOCM could claim now."""
        ways = self._array[self.set_of(tag)]
        return sum(1 for e in ways if not e.valid or not e.active)

    def allocate(self, tag: Tag, now: int) -> Optional[MetaTagEntry]:
        """Claim an entry for ``tag`` (the ALLOCM action).

        Prefers an invalid way; otherwise evicts the LRU *inactive*
        entry. Returns None when every way in the set hosts an active
        walker — the structural hazard the paper's scheduler avoids by
        holding the triggering message.
        """
        self.check_tag(tag)
        if tag in self._index:
            raise ValueError(f"tag {tag} already present")
        ways = self._array[self.set_of(tag)]
        target = None
        for entry in ways:
            if not entry.valid:
                target = entry
                break
        if target is None:
            candidates = [e for e in ways if not e.active]
            if not candidates:
                self.stats.inc("alloc_conflicts")
                return None
            target = min(candidates, key=lambda e: e.last_used)
            self._evict(target)
        target.valid = True
        target.tag = tag
        target.state = DEFAULT_STATE
        target.active = False
        target.last_used = now
        # Deliberately NOT clearing sector_start/end: a fresh way carries
        # -1, an evicted victim carries its orphaned data-RAM range, which
        # the claimant (ALLOCM / warm) must free before use.
        self._index[tag] = target
        self._n_allocations.value += 1
        if self.bus is not None:
            self._publish_fill(self.bus, target)
        return target

    def _evict(self, entry: MetaTagEntry) -> None:
        assert entry.tag is not None
        del self._index[entry.tag]
        if entry.active:
            self._active_count -= 1
        victim_tag = entry.tag
        start, end = entry.sector_start, entry.sector_end
        entry.reset()
        # preserve the orphaned sector range for the claimant to free
        entry.sector_start = start
        entry.sector_end = end
        self._n_evictions.value += 1
        if self.bus is not None:
            self._publish_evict(self.bus, victim_tag, entry.set_index,
                                entry.way, "conflict")

    def deallocate(self, tag: Tag) -> MetaTagEntry:
        """Free an entry (the DEALLOCM action); returns it for cleanup."""
        entry = self._index.get(tag)
        if entry is None:
            raise KeyError(f"tag {tag} not present")
        del self._index[tag]
        if entry.active:
            self._active_count -= 1
        released = MetaTagEntry(entry.set_index, entry.way)
        released.sector_start = entry.sector_start
        released.sector_end = entry.sector_end
        entry.reset()
        self._n_deallocations.value += 1
        if self.bus is not None:
            self._publish_evict(self.bus, tag, entry.set_index, entry.way,
                                "dealloc")
        return released

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return len(self._index)

    def active_walkers(self) -> int:
        # incremental counter, not an index scan: this sits on armed
        # publish paths (heatmap sampling) and service health probes
        return self._active_count

    def active_walkers_scan(self) -> int:
        """Reference O(n) count (the counters-vs-scan equivalence check)."""
        return sum(1 for e in self._index.values() if e.active)

    def entries(self):
        """Iterate live entries (drain/scan operations, testing)."""
        return list(self._index.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MetaTagArray({self.ways}x{self.sets}, "
                f"live={self.occupancy()})")
