"""The X-Cache programmable controller.

Implements the two-part pipeline of Figure 8:

* **Front-end (event loop).** Monitors the message buffers — MetaIO
  requests from the DSA datapath, DRAM fill responses, internally raised
  walker events — and wakes at most one active walker per cycle. The
  `[state, event]` pair indexes the routine table and retrieves the
  microcode pointer. Meta-tag *hits* never enter the walker pipeline:
  they are served by a dedicated, fully pipelined read port with a
  3-cycle load-to-use (§4.2).

* **Back-end (routine execution pipeline).** An in-order pipeline that
  retires up to ``#Exe`` actions per cycle. A triggered routine runs
  non-blocking to completion, then the walker either goes dormant
  (yield: waiting for its next event) or retires (STATE done /
  deallocM).

Walkers are admitted by allocating one of the ``#Active`` X-register
contexts; the active-walker map both merges duplicate misses (the
paper's active meta-tag bitmap) and routes DRAM responses back to the
stalled coroutine.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..mem.dram import DRAMModel, MemRequest, MemResponse
from ..obs.events import (
    ACTION_CATEGORIES,
    Evict,
    Fill,
    Hit,
    Merge,
    Miss,
    QueueStall,
    Reclaim,
    RequestArrive,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
)
from ..sim import Component, MessageQueue, Simulator
from .actions import ActionExecutor, ActionError
from .config import XCacheConfig
from .dataram import DataRAM
from .messages import (
    DEFAULT_STATE,
    EV_FILL,
    EV_META_LOAD,
    EV_META_STORE,
    VALID_STATE,
    Message,
)
from .metatag import MetaTagArray, MetaTagEntry
from .microcode import Routine
from .walker import CompiledWalker
from .xregs import XContext, XRegisterFile

__all__ = ["Controller", "WalkerRun", "MetaResponse"]

Tag = Tuple[int, ...]


def _drop_response(resp: MemResponse) -> None:
    """Completion sink for fire-and-forget writes."""


@dataclass
class MetaResponse:
    """What the DSA datapath receives back for a meta request."""

    request: Optional[Message]
    status: int              # 1 = found/served, 0 = not found
    data: bytes = b""
    completed_at: int = 0

    @property
    def found(self) -> bool:
        return self.status != 0


@dataclass
class _RoutineExec:
    routine: Routine
    msg: Message
    walker: "WalkerRun"
    pc: int = 0
    # per-ACTION_CATEGORIES #Exe costs, allocated only when the bus is
    # armed (the profiler apportions exec cycles across them)
    costs: Optional[List[int]] = None


@dataclass
class WalkerRun:
    """One in-flight coroutine walker."""

    tag: Tag
    ctx: XContext
    origin: Optional[Message]
    walk_id: int = -1
    state: str = DEFAULT_STATE
    entry: Optional[MetaTagEntry] = None
    waiters: List[Message] = field(default_factory=list)
    inflight: Optional[_RoutineExec] = None
    owned_sectors: List[Tuple[int, int]] = field(default_factory=list)
    started_at: int = 0
    fills_outstanding: int = 0
    found: bool = False
    routines_run: int = 0
    allocm_done: bool = False


class Controller(Component):
    """A programmed X-Cache instance (controller + RAMs)."""

    def __init__(self, sim: Simulator, config: XCacheConfig,
                 program: CompiledWalker, dram: DRAMModel,
                 name: Optional[str] = None,
                 store_merge: str = "fadd") -> None:
        super().__init__(sim, name or config.name)
        self.config = config
        self.program = program
        self.dram = dram
        if store_merge not in ("fadd", "overwrite"):
            raise ValueError(f"unknown store_merge policy {store_merge!r}")
        self.store_merge = store_merge

        self.metatags = MetaTagArray(config.ways, config.sets, config.tag_fields)
        # cache-contents observability: the array publishes fills and
        # evictions itself (with set/way coordinates) once ensure_bus
        # propagates the controller's bus into it
        self.metatags.sim = sim
        self.metatags.component = self.name
        self.dataram = DataRAM(config.data_sectors, config.sector_bytes,
                               access_bytes=config.wlen * 8)
        self.xregs = XRegisterFile(config.num_active, config.xregs_per_walker)
        self.executor = ActionExecutor(self)

        self.metaio_in: MessageQueue[Message] = MessageQueue(
            f"{self.name}.metaio", capacity=0, on_push=self.wake
        )
        # persistent DRAM fill callback: the per-fill context rides on the
        # request's tag cookie instead of a fresh closure per block
        self._fill_cb = self._on_dram_fill
        # counters bumped once per request, window probe or walk are
        # bound here (as ActionExecutor binds its own), so a bump is an
        # attribute add, not a name probe; cold paths keep stats.inc
        stats = self.stats
        self._n_meta_loads = stats.counter("meta_loads")
        self._n_meta_stores = stats.counter("meta_stores")
        self._n_dram_fills = stats.counter("dram_fills")
        self._n_dram_writes = stats.counter("dram_writes")
        self._n_tag_probes = stats.counter("tag_probes")
        self._n_hits = stats.counter("hits")
        self._n_store_hits = stats.counter("store_hits")
        self._n_takes = stats.counter("takes")
        self._n_merge_ops = stats.counter("merge_ops")
        self._n_miss_merges = stats.counter("miss_merges")
        self._n_nowalk_misses = stats.counter("nowalk_misses")
        self._n_stall_set_conflict = stats.counter("stall_set_conflict")
        self._n_stall_no_context = stats.counter("stall_no_context")
        self._n_misses = stats.counter("misses")
        self._n_walks_started = stats.counter("walks_started")
        self._n_routines_dispatched = stats.counter("routines_dispatched")
        self._n_walks_completed = stats.counter("walks_completed")
        self._load_to_use_hist = stats.histogram("load_to_use")
        self._walk_latency_hist = stats.histogram("walk_latency")
        self._internal: Deque[Message] = deque()
        self._execq: Deque[_RoutineExec] = deque()
        self._walkers: Dict[Tag, WalkerRun] = {}
        # monotonically increasing walk-episode id: unlike the tag, it
        # is never reused, so obs events can correlate a whole
        # request → walker → DRAM journey unambiguously
        self._walk_seq = 0
        # Ways promised to dispatched walkers whose ALLOCM has not yet
        # executed, per set — dispatch must not over-commit a set.
        self._pending_allocs: Dict[int, int] = {}
        self.on_response: Optional[Callable[[MetaResponse], None]] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def ensure_bus(self):
        """Create/return the bus, sharing it with the meta-tag array.

        Every arming path (capture attach, direct ``observe``) funnels
        through here, so the array's fill/evict publish sites see the
        same bus as the controller's.
        """
        bus = super().ensure_bus()
        self.metatags.bus = bus
        return bus

    # ------------------------------------------------------------------
    # datapath-facing API (MetaIO)
    # ------------------------------------------------------------------
    def set_response_handler(self,
                             handler: Callable[[MetaResponse], None]) -> None:
        self.on_response = handler

    def meta_load(self, tag: Tag, walk_fields: Optional[Dict[str, int]] = None,
                  preload: bool = False, take: bool = False,
                  nowalk: bool = False) -> Message:
        """Issue a meta load for ``tag``.

        ``walk_fields`` carries DSA-specific operands the walker needs on
        a miss (e.g. the hash-table base address). ``preload`` marks a
        decoupled refill request (ack, no data return). ``take`` reads
        *and invalidates* (GraphPulse's event pop); ``nowalk`` answers a
        miss with status=0 instead of starting a walker (implied by
        ``take``).
        """
        self.metatags.check_tag(tag)
        fields = dict(walk_fields or {})
        for name, value in zip(self.config.tag_fields, tag):
            fields.setdefault(name, value)
        if preload:
            fields["preload"] = 1
        if take:
            fields["take"] = 1
        if take or nowalk:
            fields["nowalk"] = 1
        msg = Message(EV_META_LOAD, tag=tag, fields=fields,
                      issued_at=self.sim.now)
        self.metaio_in.enq(msg)
        self._n_meta_loads.value += 1
        bus = self.bus
        if bus is not None:
            self.metatags.announce(bus)
            if bus.wants(RequestArrive):
                bus.publish(RequestArrive(cycle=self.sim.now,
                                          component=self.name,
                                          tag=tag, op="load",
                                          req_id=msg.uid))
        return msg

    def meta_store(self, tag: Tag, payload_bits: int,
                   walk_fields: Optional[Dict[str, int]] = None) -> Message:
        """Issue a meta store (insert-or-merge) for ``tag``."""
        self.metatags.check_tag(tag)
        fields = dict(walk_fields or {})
        for name, value in zip(self.config.tag_fields, tag):
            fields.setdefault(name, value)
        fields["payload"] = payload_bits
        msg = Message(EV_META_STORE, tag=tag, fields=fields,
                      issued_at=self.sim.now)
        self.metaio_in.enq(msg)
        self._n_meta_stores.value += 1
        bus = self.bus
        if bus is not None:
            self.metatags.announce(bus)
            if bus.wants(RequestArrive):
                bus.publish(RequestArrive(cycle=self.sim.now,
                                          component=self.name,
                                          tag=tag, op="store",
                                          req_id=msg.uid))
        return msg

    # ------------------------------------------------------------------
    # walker-facing services (invoked by the action executor)
    # ------------------------------------------------------------------
    def issue_fills(self, walker: WalkerRun, addr: int, nbytes: int,
                    write: bool, ranged: bool = False) -> int:
        """Issue block fills covering [addr, addr+nbytes); returns #blocks.

        Non-ranged fills (the common pointer-chase case) deliver the full
        64-byte block, so the walker can PEEK at ``addr & 63``. Ranged
        fills — tiled refills à la SpArch — deliver only the requested
        byte slice of each block plus a ``bytes`` field, so the walker's
        copy loop is a straight cursor walk.
        """
        bb = self.config.block_bytes
        end = addr + max(nbytes, 1)
        first = addr & ~(bb - 1)
        last = (end - 1) & ~(bb - 1)
        blocks = (last - first) // bb + 1
        wid = walker.walk_id
        request = self.dram.request
        if write:
            self._n_dram_writes.value += blocks
            for block in range(first, last + 1, bb):
                request(MemRequest(block, is_write=True, walk_id=wid),
                        _drop_response)
            return blocks
        self._n_dram_fills.value += blocks
        walker.fills_outstanding += blocks
        tag = walker.tag
        for block in range(first, last + 1, bb):
            if ranged:
                lo = max(addr, block) - block
                hi = min(end, block + bb) - block
            else:
                lo, hi = 0, bb
            request(MemRequest(block, tag=(tag, lo, hi), walk_id=wid),
                    self._fill_cb)
        return blocks

    def _on_dram_fill(self, resp: MemResponse) -> None:
        tag, lo, hi = resp.tag
        walker = self._walkers.get(tag)
        if walker is None:
            self.stats.inc("orphan_fills")
            return
        walker.fills_outstanding -= 1
        bus = self.bus
        if bus is not None and bus.wants(Fill):
            bus.publish(Fill(cycle=self.sim.now, component=self.name,
                             tag=tag, addr=resp.addr, nbytes=hi - lo,
                             walk_id=walker.walk_id))
        data = resp.data[lo:hi]
        self._internal.append(
            Message(EV_FILL, tag=tag,
                    fields={"addr": resp.addr, "bytes": hi - lo},
                    data=data, issued_at=self.sim.now)
        )
        self.wake()

    def raise_internal(self, walker: WalkerRun, event: str,
                       fields: Dict[str, int], delay: int) -> None:
        # scheduled as a partial of a bound method (not a closure) so a
        # pending delivery survives snapshot/restore (repro.sim.checkpoint)
        self.sim.call_after(max(1, delay),
                            partial(self._deliver_internal, walker.tag,
                                    event, fields))

    def _deliver_internal(self, tag: Tag, event: str,
                          fields: Dict[str, int]) -> None:
        if tag in self._walkers:
            self._internal.append(
                Message(event, tag=tag, fields=fields,
                        issued_at=self.sim.now)
            )
            self.wake()
        else:
            self.stats.inc("orphan_events")

    def walker_respond(self, walker: WalkerRun, fields: Dict[str, int]) -> None:
        """Explicit enq-resp from microcode (beyond the auto-response)."""
        if walker.origin is not None:
            self._respond(walker.origin, fields.get("status", 1),
                          data=b"", latency=1)

    def note_allocm(self, walker: WalkerRun) -> None:
        """ALLOCM executed: release the dispatch-time way reservation."""
        walker.allocm_done = True
        set_index = self.metatags.set_of(walker.tag)
        pending = self._pending_allocs.get(set_index, 0)
        if pending > 0:
            self._pending_allocs[set_index] = pending - 1

    def reclaim_sectors(self, nsectors: int) -> None:
        """Evict LRU servable entries until ``nsectors`` contiguous fit.

        Usually one or two evictions suffice, so victims come off a lazy
        heap rather than a full sort; the (last_used, scan-index) keys
        make the pop order identical to the stable sort it replaced.
        """
        bus = self.bus
        if bus is not None and bus.wants(Reclaim):
            bus.publish(Reclaim(cycle=self.sim.now, component=self.name,
                                nsectors=nsectors))
        victims = [
            (e.last_used, i, e)
            for i, e in enumerate(self.metatags.entries())
            if e.servable and e.sector_start >= 0
        ]
        heapq.heapify(victims)
        while victims:
            if self.dataram.can_alloc(nsectors):
                return
            _, _, victim = heapq.heappop(victims)
            assert victim.tag is not None
            victim_tag = victim.tag
            released = self.metatags.deallocate(victim_tag)
            self.dataram.free(released.sector_start,
                              released.sector_end - released.sector_start)
            self.stats.inc("capacity_evictions")
            if bus is not None and bus.wants(Evict):
                bus.publish(Evict(
                    cycle=self.sim.now, component=self.name,
                    tag=victim_tag,
                    sectors=released.sector_end - released.sector_start))

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _respond(self, request: Message, status: int, data: bytes,
                 latency: int) -> None:
        done = self.sim.now + latency
        self._load_to_use_hist.add(done - request.issued_at)
        handler = self.on_response
        if handler is None:
            return
        resp = MetaResponse(request=request, status=status, data=data,
                            completed_at=done)
        self.sim.call_at(done, partial(handler, resp))

    def _hit_latency_for(self, nbytes: int) -> int:
        """3-cycle load-to-use, plus serialization beyond #wlen words."""
        words = max(1, (nbytes + 7) // 8)
        extra = (words - 1) // self.config.wlen
        return self.config.hit_latency + extra

    def _serve_hit(self, msg: Message, entry: MetaTagEntry) -> None:
        now = self.sim.now
        self.metatags.touch(entry, now)
        self._n_hits.value += 1
        bus = self.bus
        take = bool(msg.fields.get("take"))
        if msg.fields.get("preload"):
            if bus is not None:
                bus.publish(Hit(
                    cycle=now, component=self.name, tag=msg.tag, take=take,
                    load_to_use=now + self.config.hit_latency
                    - msg.issued_at, req_id=msg.uid))
            self._respond(msg, 1, b"", self.config.hit_latency)
            return
        data = b""
        if entry.sector_start >= 0:
            data = self.dataram.read_sectors(entry.sector_start,
                                             entry.sector_end)
        latency = self._hit_latency_for(len(data))
        if bus is not None:
            bus.publish(Hit(cycle=now, component=self.name, tag=msg.tag,
                            take=take,
                            load_to_use=now + latency - msg.issued_at,
                            req_id=msg.uid))
        self._respond(msg, 1, data, latency)
        if msg.fields.get("take"):
            released = self.metatags.deallocate(entry.tag)
            if released.sector_start >= 0:
                self.dataram.free(released.sector_start,
                                  released.sector_end - released.sector_start)
            self._n_takes.value += 1

    def _serve_store_hit(self, msg: Message, entry: MetaTagEntry) -> None:
        now = self.sim.now
        self.metatags.touch(entry, now)
        self._n_store_hits.value += 1
        bus = self.bus
        if bus is not None:
            bus.publish(Hit(cycle=now, component=self.name, tag=msg.tag,
                            store=True,
                            load_to_use=now + self.config.hit_latency
                            - msg.issued_at, req_id=msg.uid))
        self._apply_store(entry, msg.fields["payload"])
        self._respond(msg, 1, b"", self.config.hit_latency)

    def _apply_store(self, entry: MetaTagEntry, payload_bits: int) -> None:
        import struct
        if entry.sector_start < 0:
            return
        sector = entry.sector_start
        if self.store_merge == "fadd":
            raw = self.dataram.read_sectors(sector, sector + 1)
            current = struct.unpack("<d", raw[:8])[0]
            incoming = struct.unpack("<d", struct.pack("<Q", payload_bits))[0]
            merged = struct.pack("<d", current + incoming)
            self.dataram.write_sector(sector, merged)
            self._n_merge_ops.value += 1
        else:
            self.dataram.write_sector(
                sector, (payload_bits & ((1 << 64) - 1)).to_bytes(8, "little")
            )

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def _tick(self) -> bool:
        self._front_end_hits()
        self._front_end_dispatch()
        self._back_end_execute()
        return bool(self._execq or self._internal or self.metaio_in.valid
                    or self._walkers)

    @property
    def SCHED_WINDOW(self) -> int:
        """MetaIO entries the front-end scheduler examines per cycle
        (the paper's trigger stage holds hazard-blocked messages without
        stalling the ones behind them)."""
        return self.config.sched_window

    def _front_end_hits(self) -> None:
        """Serve up to hit_ports pipelined hits from the scheduler window.

        A miss in the window does not block hits queued behind it; order
        is preserved *per tag* (same-tag requests either hit together or
        merge into the same walker).
        """
        served = 0
        blocked = set()  # tags with an earlier unconsumed message
        for msg in self.metaio_in.window(self.SCHED_WINDOW):
            if served >= self.config.hit_ports:
                break
            assert msg.tag is not None
            if msg.tag in blocked:
                continue  # same-tag order must be preserved
            blocked.add(msg.tag)
            walker = self._walkers.get(msg.tag)
            if walker is not None:
                # Merge into the in-flight walk (active-bitmap hit).
                self.metaio_in.remove(msg)
                walker.waiters.append(msg)
                self._n_miss_merges.value += 1
                if self.bus is not None:
                    self.bus.publish(Merge(cycle=self.sim.now,
                                           component=self.name,
                                           tag=msg.tag, req_id=msg.uid,
                                           walk_id=walker.walk_id))
                served += 1
                continue
            entry = self.metatags.lookup(msg.tag)
            self._n_tag_probes.value += 1
            if entry is not None and entry.servable:
                self.metaio_in.remove(msg)
                if msg.event == EV_META_STORE:
                    self._serve_store_hit(msg, entry)
                else:
                    self._serve_hit(msg, entry)
                served += 1
                continue
            if msg.event == EV_META_LOAD and msg.fields.get("nowalk"):
                self.metaio_in.remove(msg)
                self._n_nowalk_misses.value += 1
                if self.bus is not None:
                    # status=0: answered without a walk (not a hit) —
                    # closes the request's journey for span assembly
                    now = self.sim.now
                    self.bus.publish(Hit(
                        cycle=now, component=self.name, tag=msg.tag,
                        take=bool(msg.fields.get("take")),
                        load_to_use=now + self.config.hit_latency
                        - msg.issued_at, req_id=msg.uid, status=0))
                self._respond(msg, 0, b"", self.config.hit_latency)
                served += 1
                continue
            # a true miss: leave it for the dispatch stage

    def _front_end_dispatch(self) -> None:
        """Wake at most one walker per cycle (new miss or pending event)."""
        # 1) resume a dormant walker with a pending event
        for i, msg in enumerate(self._internal):
            assert msg.tag is not None
            walker = self._walkers.get(msg.tag)
            if walker is None:
                del self._internal[i]
                self.stats.inc("orphan_events")
                return
            if walker.inflight is None:
                routine = self.program.table.lookup(walker.state, msg.event)
                if routine is None:
                    raise ActionError(
                        f"walker {walker.tag} in state {walker.state!r} has "
                        f"no routine for event {msg.event!r}"
                    )
                del self._internal[i]
                bus = self.bus
                if bus is not None and bus.wants(WalkerWake):
                    bus.publish(WalkerWake(cycle=self.sim.now,
                                           component=self.name,
                                           tag=walker.tag,
                                           reason=msg.event,
                                           walk_id=walker.walk_id))
                self._dispatch(walker, routine, msg)
                return
        # 2) admit a new walker for the oldest dispatchable miss
        blocked = set()  # tags with an earlier unconsumed message
        for msg in self.metaio_in.window(self.SCHED_WINDOW):
            assert msg.tag is not None
            if msg.tag in blocked:
                continue
            blocked.add(msg.tag)
            if msg.tag in self._walkers:
                continue  # merged by the hit loop next cycle
            entry = self.metatags.lookup(msg.tag)
            if entry is not None and entry.servable:
                continue  # the hit loop will serve it
            if msg.event == EV_META_LOAD and msg.fields.get("nowalk"):
                continue
            routine = self.program.table.lookup(DEFAULT_STATE, msg.event)
            if routine is None:
                raise ActionError(
                    f"program {self.program.name!r} has no miss routine "
                    f"for {msg.event!r}"
                )
            set_index = self.metatags.set_of(msg.tag)
            pending = self._pending_allocs.get(set_index, 0)
            if self.metatags.claimable_ways(msg.tag) <= pending:
                self._n_stall_set_conflict.value += 1
                bus = self.bus
                if bus is not None and bus.wants(QueueStall):
                    bus.publish(QueueStall(cycle=self.sim.now,
                                           component=self.name,
                                           tag=msg.tag,
                                           reason="set_conflict",
                                           req_id=msg.uid))
                continue
            ctx = self.xregs.allocate(self.sim.now)
            if ctx is None:
                self._n_stall_no_context.value += 1
                bus = self.bus
                if bus is not None and bus.wants(QueueStall):
                    bus.publish(QueueStall(cycle=self.sim.now,
                                           component=self.name,
                                           tag=msg.tag,
                                           reason="no_context",
                                           req_id=msg.uid))
                return
            self.metaio_in.remove(msg)
            self._pending_allocs[set_index] = pending + 1
            self._walk_seq += 1
            walker = WalkerRun(tag=msg.tag, ctx=ctx, origin=msg,
                               walk_id=self._walk_seq,
                               started_at=self.sim.now)
            self._walkers[msg.tag] = walker
            self._n_misses.value += 1
            self._n_walks_started.value += 1
            if self.bus is not None:
                self.bus.publish(Miss(cycle=self.sim.now,
                                      component=self.name,
                                      tag=msg.tag, op=msg.event,
                                      req_id=msg.uid,
                                      walk_id=walker.walk_id,
                                      set_index=set_index))
            self._dispatch(walker, routine, msg)
            return

    def _dispatch(self, walker: WalkerRun, routine: Routine,
                  msg: Message) -> None:
        inflight = _RoutineExec(routine=routine, msg=msg, walker=walker)
        walker.inflight = inflight
        walker.routines_run += 1
        self._execq.append(inflight)
        self._n_routines_dispatched.value += 1
        bus = self.bus
        if bus is not None:
            # per-category cost accounting taxes every executed action,
            # and only WalkerRetire consumers (span explain) read it
            if bus.wants(WalkerRetire):
                walker.inflight.costs = [0] * len(ACTION_CATEGORIES)
            if bus.wants(WalkerDispatch):
                bus.publish(WalkerDispatch(cycle=self.sim.now,
                                           component=self.name,
                                           tag=walker.tag,
                                           routine=routine.name,
                                           walk_id=walker.walk_id))

    def _back_end_execute(self) -> None:
        budget = self.config.num_exe
        execq = self._execq
        execute = self.executor.execute
        charge = self.xregs.charge_active
        while budget > 0 and execq:
            ex = execq[0]
            actions = ex.routine.actions
            if ex.pc >= len(actions):
                self._finish_routine(ex, terminated=False)
                continue
            action = actions[ex.pc]
            result = execute(ex.walker, action, ex.msg)
            budget -= result.cost
            charge(ex.walker.ctx, result.cost)
            if ex.costs is not None:
                ex.costs[action.cat_index] += result.cost
            if result.terminated:
                self._finish_routine(ex, terminated=True)
                continue
            ex.pc = result.branch if result.branch is not None else ex.pc + 1
            if ex.pc >= len(actions):
                self._finish_routine(ex, terminated=False)

    def _finish_routine(self, ex: _RoutineExec, terminated: bool) -> None:
        self._execq.popleft()
        walker = ex.walker
        walker.inflight = None
        if terminated:
            self._complete_walker(walker, ex)
        elif self.bus is not None and self.bus.wants(WalkerYield):
            self.bus.publish(WalkerYield(cycle=self.sim.now,
                                         component=self.name,
                                         tag=walker.tag,
                                         routine=ex.routine.name,
                                         action_costs=tuple(ex.costs or ()),
                                         fills=walker.fills_outstanding,
                                         walk_id=walker.walk_id))

    def _complete_walker(self, walker: WalkerRun,
                         ex: Optional[_RoutineExec] = None) -> None:
        now = self.sim.now
        self._n_walks_completed.value += 1
        self._walk_latency_hist.add(now - walker.started_at)
        bus = self.bus
        # req_ids answered by this retire (replayed stores excluded:
        # their journey continues through MetaIO); only tracked when a
        # bus is armed, so the unarmed path allocates nothing
        served: Optional[List[int]] = [] if bus is not None else None
        entry = walker.entry
        if walker.found and entry is not None:
            self.metatags.clear_active(entry)
            entry.ctx_id = -1
            self.metatags.touch(entry, now)
        requests = ([] if walker.origin is None else [walker.origin])
        requests.extend(walker.waiters)
        # Waiters merged during the walk are served in arrival order. A
        # take-load consumes the entry; anything queued behind it sees a
        # miss again — stores are replayed through MetaIO so their
        # payload is never dropped.
        consumed = not walker.found or entry is None
        if not walker.allocm_done:
            # walker retired without ever claiming a way
            self.note_allocm(walker)
        self.xregs.release(walker.ctx, now)
        del self._walkers[walker.tag]
        for msg in requests:
            if consumed:
                if msg.event == EV_META_STORE and walker.found:
                    self.stats.inc("store_replays")
                    self.metaio_in.enq(msg)
                else:
                    if served is not None:
                        served.append(msg.uid)
                    self._respond(msg, 0, b"", self.config.hit_latency)
                continue
            if served is not None:
                served.append(msg.uid)
            if msg.event == EV_META_STORE:
                if msg is not walker.origin:
                    self._apply_store(entry, msg.fields["payload"])
                self._respond(msg, 1, b"", 1)
                continue
            if msg.fields.get("preload"):
                self._respond(msg, 1, b"", 1)
                continue
            data = b""
            if entry.sector_start >= 0:
                data = self.dataram.read_sectors(entry.sector_start,
                                                 entry.sector_end)
            self._respond(msg, 1, data, self._hit_latency_for(len(data)))
            if msg.fields.get("take"):
                released = self.metatags.deallocate(entry.tag)
                if released.sector_start >= 0:
                    self.dataram.free(
                        released.sector_start,
                        released.sector_end - released.sector_start,
                    )
                self._n_takes.value += 1
                consumed = True
        if bus is not None and bus.wants(WalkerRetire):
            costs = ex.costs if ex is not None else None
            bus.publish(WalkerRetire(cycle=now, component=self.name,
                                     tag=walker.tag,
                                     found=walker.found,
                                     lifetime=now - walker.started_at,
                                     action_costs=tuple(costs or ()),
                                     walk_id=walker.walk_id,
                                     served=tuple(served or ())))

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------
    def warm(self, tag: Tag, data: bytes) -> bool:
        """Install ``tag`` with ``data`` instantly (zero-cost preload).

        Experiment warm-up only (e.g. the Figure-17 on-chip-fraction
        sweep); returns False when the entry or sectors can't be placed.
        """
        self.metatags.check_tag(tag)
        if self.metatags.lookup(tag) is not None:
            return True
        entry = self.metatags.allocate(tag, self.sim.now)
        if entry is None:
            return False
        if entry.sector_start >= 0:
            # evicted victim's orphaned payload
            self.dataram.free(entry.sector_start,
                              entry.sector_end - entry.sector_start)
            entry.sector_start = entry.sector_end = -1
        nsectors = max(1, (len(data) + self.config.sector_bytes - 1)
                       // self.config.sector_bytes)
        start = self.dataram.alloc(nsectors)
        if start is None:
            self.metatags.deallocate(tag)
            return False
        for i in range(nsectors):
            chunk = data[i * self.config.sector_bytes:
                         (i + 1) * self.config.sector_bytes]
            if chunk:
                self.dataram.write_sector(start + i, chunk)
        entry.sector_start = start
        entry.sector_end = start + nsectors
        entry.state = VALID_STATE
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        hits = self.stats.get("hits") + self.stats.get("store_hits")
        total = hits + self.stats.get("misses") + self.stats.get("nowalk_misses")
        return hits / total if total else 0.0

    def drain_complete(self) -> bool:
        """True when no request or walker is in flight."""
        return not (self._walkers or self._execq or self._internal
                    or self.metaio_in.valid)

    def finalize(self) -> None:
        """Close occupancy integrals at end of run."""
        self.xregs.finalize(self.sim.now)
