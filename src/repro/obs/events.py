"""Typed observability events (the `repro.obs` taxonomy).

Every architecturally meaningful milestone in a run — a request landing
at the controller, a meta-tag hit, a walker waking or retiring, a DRAM
transaction issuing or completing — has one frozen dataclass here.
Components publish instances on their :class:`~repro.obs.bus.EventBus`
behind a single ``bus is None`` check, so an un-observed run constructs
no event objects at all.

Design rules:

* Events are **frozen** (processors may fan one instance out to many
  subscribers; nobody may mutate it in flight) and carry only plain
  values (ints, strs, bools, tag tuples) so they serialize to JSON
  without translation.
* Every event stamps ``cycle`` (simulation time) and ``component`` (the
  publishing model element); subclass fields describe the milestone.
* ``Event.name`` is a stable snake_case wire name used by the JSONL
  exporter and by :meth:`~repro.obs.bus.EventBus.attach`, which binds a
  processor's ``on_<name>`` methods (``on_event``, after the base
  class's name, takes every event).
* **Causal IDs.** Request-path events carry a ``req_id`` (the MetaIO
  message uid) and walker/DRAM events carry a ``walk_id`` (a
  per-controller walk-episode sequence number), so downstream
  processors can rebuild the full request → miss/merge → walker →
  DRAM-fill → retire journey without guessing from tags (a tag can be
  walked twice; an episode id cannot). ``-1`` means "not correlated"
  (e.g. DRAM traffic that no walker owns).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Tuple, Type

__all__ = [
    "Event",
    "RunStart",
    "RunEnd",
    "RequestArrive",
    "Hit",
    "Miss",
    "Merge",
    "WalkerDispatch",
    "WalkerWake",
    "WalkerYield",
    "WalkerRetire",
    "DRAMIssue",
    "DRAMComplete",
    "Fill",
    "Evict",
    "Reclaim",
    "QueueStall",
    "CacheModel",
    "CacheFill",
    "CacheEvict",
    "CacheAccess",
    "EVENT_TYPES",
    "ALL_EVENT_TYPES",
    "ACTION_CATEGORIES",
    "event_fields",
    "event_from_json",
]

Tag = Tuple[int, ...]

#: Canonical order of the paper's five X-Action categories (Figure 8).
#: ``WalkerYield.action_costs`` / ``WalkerRetire.action_costs`` tuples are
#: indexed by this order, so processors can attribute routine-execution
#: cycles to hardware modules without importing the core ISA.
ACTION_CATEGORIES: Tuple[str, ...] = (
    "agen", "queue", "meta", "control", "data",
)


@dataclass(frozen=True)
class Event:
    """Base of every observability event."""

    name: ClassVar[str] = "event"

    cycle: int
    component: str


@dataclass(frozen=True)
class RunStart(Event):
    """The simulation kernel entered ``run()``."""

    name: ClassVar[str] = "run_start"


@dataclass(frozen=True)
class RunEnd(Event):
    """The simulation kernel drained (or hit ``until``)."""

    name: ClassVar[str] = "run_end"

    events_executed: int = 0


@dataclass(frozen=True)
class RequestArrive(Event):
    """A MetaIO request entered the controller (or a walk was submitted)."""

    name: ClassVar[str] = "request_arrive"

    tag: Tag = ()
    op: str = "load"          # "load" | "store" | "walk"
    req_id: int = -1          # correlation id (MetaIO message uid)


@dataclass(frozen=True)
class Hit(Event):
    """A meta-tag hit served by the pipelined read port.

    ``status=0`` marks a *nowalk miss*: a lookup answered negatively by
    the front-end without admitting a walker (``nowalk``/``take``
    probes). It closes the request's journey through the same event so
    span assembly never leaks, but it is not a hit — metrics and the
    legacy trace bridge treat it separately.
    """

    name: ClassVar[str] = "hit"

    tag: Tag = ()
    store: bool = False       # store hit (insert-or-merge) vs load hit
    take: bool = False        # read-and-invalidate (GraphPulse pop)
    load_to_use: int = 0      # issue -> data-back, in cycles
    req_id: int = -1          # the request this hit answers
    status: int = 1           # 1 = served; 0 = nowalk miss (not found)


@dataclass(frozen=True)
class Miss(Event):
    """A true miss admitted a new walker (the legacy ``walk_start``)."""

    name: ClassVar[str] = "miss"

    tag: Tag = ()
    op: str = ""              # the triggering MetaIO event name
    req_id: int = -1          # the request whose miss started the walk
    walk_id: int = -1         # the admitted walk episode
    set_index: int = -1       # meta-tag set the miss mapped to


@dataclass(frozen=True)
class Merge(Event):
    """A request merged into an in-flight walker (active-bitmap hit)."""

    name: ClassVar[str] = "merge"

    tag: Tag = ()
    req_id: int = -1          # the merging request
    walk_id: int = -1         # the in-flight walk it joined


@dataclass(frozen=True)
class WalkerDispatch(Event):
    """A routine entered the back-end execution pipeline."""

    name: ClassVar[str] = "walker_dispatch"

    tag: Tag = ()
    routine: str = ""
    walk_id: int = -1


@dataclass(frozen=True)
class WalkerWake(Event):
    """A dormant walker resumed on a pending internal event.

    ``reason`` names what woke it (``"fill"`` or the internal MetaIO
    event). It is deliberately *not* called ``event``: a field of that
    name would collide with the wire-name key in the JSONL record and
    make the line unparseable on replay.
    """

    name: ClassVar[str] = "walker_wake"

    tag: Tag = ()
    reason: str = ""
    walk_id: int = -1


@dataclass(frozen=True)
class WalkerYield(Event):
    """A routine ran to completion and the walker went dormant."""

    name: ClassVar[str] = "walker_yield"

    tag: Tag = ()
    routine: str = ""
    action_costs: Tuple[int, ...] = ()   # per ACTION_CATEGORIES, this routine
    fills: int = 0                       # DRAM fills outstanding at yield
    walk_id: int = -1


@dataclass(frozen=True)
class WalkerRetire(Event):
    """A walker terminated (STATE done / deallocM) and freed its context.

    ``served`` lists the req_ids answered by this retire — the origin
    miss plus every merged waiter, minus stores replayed through MetaIO
    (their journeys continue into a later walk or hit).
    """

    name: ClassVar[str] = "walker_retire"

    tag: Tag = ()
    found: bool = False
    lifetime: int = 0         # admission -> retire, in cycles
    action_costs: Tuple[int, ...] = ()   # per ACTION_CATEGORIES, final routine
    walk_id: int = -1
    served: Tuple[int, ...] = ()         # req_ids completed at this retire


@dataclass(frozen=True)
class DRAMIssue(Event):
    """A block request entered the DRAM model."""

    name: ClassVar[str] = "dram_issue"

    addr: int = 0
    is_write: bool = False
    bank: int = 0
    row_result: str = ""      # "row_hits" | "row_misses" | "row_conflicts"
    complete_at: int = 0      # analytically known at issue time
    nbytes: int = 0           # transfer size (block_bytes)
    walk_id: int = -1         # owning walk episode (-1: unowned traffic)


@dataclass(frozen=True)
class DRAMComplete(Event):
    """A DRAM transaction's data crossed the bus."""

    name: ClassVar[str] = "dram_complete"

    addr: int = 0
    latency: int = 0
    walk_id: int = -1


@dataclass(frozen=True)
class Fill(Event):
    """A DRAM fill was delivered back to a waiting walker."""

    name: ClassVar[str] = "fill"

    tag: Tag = ()
    addr: int = 0
    nbytes: int = 0
    walk_id: int = -1


@dataclass(frozen=True)
class Evict(Event):
    """A servable entry was evicted to free data-RAM sectors."""

    name: ClassVar[str] = "evict"

    tag: Tag = ()
    sectors: int = 0


@dataclass(frozen=True)
class Reclaim(Event):
    """A walker asked the controller to reclaim sector capacity."""

    name: ClassVar[str] = "reclaim"

    nsectors: int = 0


@dataclass(frozen=True)
class QueueStall(Event):
    """The front-end could not admit a dispatchable miss this cycle."""

    name: ClassVar[str] = "queue_stall"

    tag: Tag = ()
    reason: str = ""          # "no_context" | "set_conflict"
    req_id: int = -1          # the request that could not be admitted


@dataclass(frozen=True)
class CacheModel(Event):
    """A cache announced its geometry (lazy, once per armed component).

    Published immediately before a component's first cache-contents
    event (:class:`CacheFill` / :class:`CacheEvict` /
    :class:`CacheAccess`), so shadow-cache processors
    (:mod:`repro.obs.cachelens`) can size their structures without an
    attach-order handshake. ``kind`` distinguishes the meta-tag array
    ("meta") from a conventional address-tagged cache ("addr");
    ``tag_class`` names the tag schema (joined tag fields, or "addr")
    so reuse-distance histograms group comparable tags.
    """

    name: ClassVar[str] = "cache_model"

    kind: str = "meta"        # "meta" | "addr"
    ways: int = 0
    sets: int = 0
    block_bytes: int = 0      # 0 for the meta-tag array (decoupled data)
    tag_class: str = ""       # e.g. "key" | "row,col" | "addr"


@dataclass(frozen=True)
class CacheFill(Event):
    """A cache installed a tag into a (set, way) slot.

    Published by ``MetaTagArray.allocate`` (ALLOCM and experiment
    warm-up alike) and ``AddressCache._install``. For address caches
    the tag tuple is ``(block_address,)``.
    """

    name: ClassVar[str] = "cache_fill"

    tag: Tag = ()
    set_index: int = -1
    way: int = -1


@dataclass(frozen=True)
class CacheEvict(Event):
    """A cache removed a tag from a (set, way) slot.

    ``reason`` separates replacement pressure from program intent:
    "conflict" (meta-tag LRU victim on allocate), "replace" (address
    cache LRU victim), "dealloc" (DEALLOCM / take-invalidate /
    capacity reclaim — the program removed it on purpose).
    """

    name: ClassVar[str] = "cache_evict"

    tag: Tag = ()
    set_index: int = -1
    way: int = -1
    reason: str = ""          # "conflict" | "replace" | "dealloc"


@dataclass(frozen=True)
class CacheAccess(Event):
    """One timed access to an address-tagged cache.

    The meta-tag access stream already exists as :class:`Hit` /
    :class:`Miss` / :class:`Merge`; this event gives the conventional
    :class:`~repro.mem.addrcache.AddressCache` an equivalent stream
    (it publishes nothing else on its hot path). ``outcome`` is one of
    "hit", "miss" (primary miss), "merge" (MSHR merge), "mshr_stall".
    """

    name: ClassVar[str] = "cache_access"

    tag: Tag = ()             # (block_address,)
    set_index: int = -1
    outcome: str = ""
    is_write: bool = False


ALL_EVENT_TYPES: Tuple[Type[Event], ...] = (
    RunStart, RunEnd, RequestArrive, Hit, Miss, Merge,
    WalkerDispatch, WalkerWake, WalkerYield, WalkerRetire,
    DRAMIssue, DRAMComplete, Fill, Evict, Reclaim, QueueStall,
    CacheModel, CacheFill, CacheEvict, CacheAccess,
)

#: wire-name -> event class (drives the bus's ``on_<name>`` binding and
#: JSONL replay)
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.name: cls for cls in ALL_EVENT_TYPES
}

_FIELD_CACHE: Dict[Type[Event], Tuple[str, ...]] = {}


def event_fields(cls: Type[Event]) -> Tuple[str, ...]:
    """Field names of an event class, cached (exporter hot path)."""
    cached = _FIELD_CACHE.get(cls)
    if cached is None:
        cached = tuple(f.name for f in fields(cls))
        _FIELD_CACHE[cls] = cached
    return cached


def event_from_json(record: Mapping[str, Any]) -> Event:
    """Rebuild a typed event from one JSONL record (inverse of
    :func:`~repro.obs.export.event_to_dict`).

    ``record["event"]`` selects the class via :data:`EVENT_TYPES`;
    JSON lists come back as the tuples the frozen dataclasses expect
    (``tag``, ``action_costs``, ``served``). Keys the class does not
    declare (e.g. the capture layer's ``run`` stamp) are ignored, and
    absent keys fall back to the field defaults, so records written by
    older taxonomies still load.

    Raises ``KeyError`` on an unknown wire name — the caller decides
    whether to skip or abort.
    """
    cls = EVENT_TYPES[record["event"]]
    kwargs: Dict[str, Any] = {}
    for name in event_fields(cls):
        if name not in record:
            continue
        value = record[name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)
