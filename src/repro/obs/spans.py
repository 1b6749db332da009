"""Per-request span trees (``repro.obs.spans``).

Rebuilds each request's *causal journey* from the typed event stream,
using the correlation ids the components stamp (``req_id`` on
request-path events, ``walk_id`` on walker/DRAM events):

* ``RequestArrive`` opens a :class:`RequestSpan`.
* ``Hit`` closes it immediately (a served hit, or a ``status=0``
  nowalk miss answered by the front-end).
* ``Miss`` / ``Merge`` attach the request to a walk episode — the
  origin request admits the walker, merged requests join it mid-flight.
  N merged requests share *one* :class:`WalkSpan` subtree.
* ``WalkerDispatch`` / ``WalkerYield`` / ``WalkerWake`` build the
  walk's phase timeline: phases tile ``[admitted, retired)`` with no
  gaps or overlaps.  This is the one walker-phase machine in
  ``repro.obs``: the critical-path blame (:mod:`repro.obs.critpath`)
  and the cycle profile (:mod:`repro.obs.prof`) are two folds of it.
  Each phase records the routine in effect (the last one dispatched)
  and, for an exec phase, the X-Action costs of the yield or retire
  that closed it.
* ``DRAMIssue`` / ``Fill`` hang DRAM child spans off the owning walk.
* ``WalkerRetire`` seals the walk, hands it with the event's
  ``lifetime`` to the optional ``walk_sink`` (the cycle profile), and
  closes every request in its ``served`` list.  Requests riding the
  walk but *not* served (stores replayed through MetaIO) stay open —
  their journey continues into a later walk or hit under the same
  ``req_id``.

Nothing is retained: completed spans stream to the ``sink`` callback
(the critical-path aggregator), and the open-state dicts are bounded by
the number of in-flight requests/walkers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "PHASE_KINDS",
    "DRAMSpan",
    "WalkPhase",
    "WalkSpan",
    "EpisodeRef",
    "RequestSpan",
    "SpanAssembler",
]

Tag = Tuple[int, ...]

#: Walk phase kinds, as recorded on :class:`WalkPhase`.
PHASE_KINDS: Tuple[str, ...] = (
    "sched_wait", "exec", "dram_wait", "event_wait",
)

# internal phase-machine states
_ADMIT = "admit"          # between Miss and the first dispatch
_EXEC = "exec"            # routine in the back-end pipeline
_WAIT = "wait"            # dormant, waiting on fills / internal events
_READY = "ready"          # woken, not yet re-dispatched


@dataclass
class DRAMSpan:
    """One DRAM transaction owned by a walk."""

    issue: int
    complete: int
    addr: int
    is_write: bool = False
    row_result: str = ""


@dataclass
class WalkPhase:
    """One contiguous walk interval ``[start, end)`` of a single kind."""

    start: int
    end: int
    kind: str            # one of PHASE_KINDS
    routine: str = ""    # last dispatched routine ("" before the first)
    costs: Tuple[int, ...] = ()   # exec: the closing event's action_costs
    woken: bool = False  # sched_wait: woken, not re-dispatched (vs admitted)

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass
class WalkSpan:
    """One walker episode: admission (Miss) to retire."""

    walk_id: int
    component: str
    tag: Tag
    admitted: int
    retired: int = -1                 # -1 while in flight
    found: bool = False
    phases: List[WalkPhase] = field(default_factory=list)
    dram: List[DRAMSpan] = field(default_factory=list)
    fills: int = 0
    routines: int = 0
    served: Tuple[int, ...] = ()
    riders: List[int] = field(default_factory=list)
    # phase-machine state (only meaningful while retired < 0)
    _phase: str = _ADMIT
    _mark: int = 0
    _wait_dram: bool = False
    _routine: str = ""

    @property
    def lifetime(self) -> int:
        return (self.retired if self.retired >= 0 else self._mark) \
            - self.admitted

    def phase_cycles(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ph in self.phases:
            out[ph.kind] = out.get(ph.kind, 0) + ph.cycles
        return out

    # -- phase machine -------------------------------------------------
    def _transition(self, cycle: int, to_state: str,
                    costs: Tuple[int, ...] = ()) -> None:
        """Close the current phase at ``cycle`` and enter ``to_state``;
        ``costs`` are the closing yield's or retire's action costs."""
        state = self._phase
        if cycle > self._mark:
            if state == _EXEC:
                phase = WalkPhase(self._mark, cycle, "exec",
                                  self._routine, costs)
            elif state == _WAIT:
                phase = WalkPhase(self._mark, cycle,
                                  "dram_wait" if self._wait_dram
                                  else "event_wait", self._routine)
            else:   # _ADMIT or _READY: waiting on the front-end scheduler
                phase = WalkPhase(self._mark, cycle, "sched_wait",
                                  self._routine, woken=state == _READY)
            self.phases.append(phase)
        self._mark = cycle
        self._phase = to_state


@dataclass
class EpisodeRef:
    """A request's stint riding one walk."""

    walk: WalkSpan
    join: int                 # Miss/Merge cycle
    role: str                 # "origin" | "merge"
    left: int = -1            # retire cycle of the walk (-1: still riding)


@dataclass
class RequestSpan:
    """One request's full journey, arrival to completion."""

    req_id: int
    component: str
    tag: Tag
    op: str
    arrive: int
    close: int = -1           # cycle of the closing event (-1: open)
    done: int = -1            # data-back cycle (= close + hit tail for hits)
    outcome: str = ""         # "hit" | "nowalk" | "walk"
    load_to_use: int = 0      # hits only: issue -> data-back
    stall_cycles: int = 0     # QueueStall events seen for this request
    episodes: List[EpisodeRef] = field(default_factory=list)

    @property
    def latency(self) -> int:
        """Arrival to data-back, in cycles (-1 while open)."""
        return self.done - self.arrive if self.done >= 0 else -1


class SpanAssembler:
    """Builds request span trees online from a live (or replayed) bus.

    ``sink`` (if given) receives every completed :class:`RequestSpan`
    exactly once, at close time; the assembler keeps none of them.

    ``walk_sink`` (if given) receives every retired :class:`WalkSpan`
    with its retire event's ``lifetime``, once, at retire time — the
    cycle profile attaches here::

        prof = CycleProfile()
        bus.attach(SpanAssembler(walk_sink=prof.add))

    With no ``sink`` nothing can read a request span, so the assembler
    sets its four request-path handlers (``on_request_arrive``,
    ``on_queue_stall``, ``on_hit``, ``on_merge``) to ``None``: the bus
    binds none of them, and the assembler assembles walks only.
    """

    def __init__(self,
                 sink: Optional[Callable[[RequestSpan], None]] = None,
                 walk_sink: Optional[Callable[[WalkSpan, int], None]] = None
                 ) -> None:
        if sink is None:
            # no request span can be read: assemble walks only
            self.on_request_arrive = self.on_queue_stall = None
            self.on_hit = self.on_merge = None
        self.sink = sink
        self.walk_sink = walk_sink
        self._requests: Dict[int, RequestSpan] = {}
        self._walks: Dict[int, WalkSpan] = {}
        self.requests_completed = 0

    # -- bookkeeping ---------------------------------------------------
    def _complete(self, span: RequestSpan) -> None:
        self.requests_completed += 1
        self.sink(span)

    @property
    def requests_open(self) -> int:
        return len(self._requests)

    @property
    def walks_open(self) -> int:
        return len(self._walks)

    # -- request-path handlers -----------------------------------------
    def on_request_arrive(self, ev) -> None:
        if ev.req_id < 0:
            return
        self._requests[ev.req_id] = RequestSpan(
            req_id=ev.req_id, component=ev.component,
            tag=ev.tag, op=ev.op, arrive=ev.cycle)

    def on_queue_stall(self, ev) -> None:
        span = self._requests.get(ev.req_id)
        if span is not None:
            span.stall_cycles += 1

    def on_hit(self, ev) -> None:
        span = self._requests.pop(ev.req_id, None)
        if span is None:
            return
        span.outcome = "hit" if ev.status else "nowalk"
        span.load_to_use = ev.load_to_use
        span.close = ev.cycle
        span.done = span.arrive + ev.load_to_use
        self._complete(span)

    # -- walk-path handlers --------------------------------------------
    def on_miss(self, ev) -> None:
        if ev.walk_id < 0:
            return
        walk = WalkSpan(walk_id=ev.walk_id, component=ev.component,
                        tag=ev.tag, admitted=ev.cycle, _mark=ev.cycle)
        self._walks[ev.walk_id] = walk
        self._join(ev.req_id, walk, ev.cycle, "origin")

    def on_merge(self, ev) -> None:
        walk = self._walks.get(ev.walk_id)
        if walk is not None:
            self._join(ev.req_id, walk, ev.cycle, "merge")

    def _join(self, req_id: int, walk: WalkSpan, cycle: int,
              role: str) -> None:
        walk.riders.append(req_id)
        span = self._requests.get(req_id)
        if span is not None:
            span.episodes.append(EpisodeRef(walk=walk, join=cycle,
                                            role=role))

    def on_walker_dispatch(self, ev) -> None:
        walk = self._walks.get(ev.walk_id)
        if walk is None:
            return
        walk.routines += 1
        walk._transition(ev.cycle, _EXEC)
        walk._routine = ev.routine

    def on_walker_yield(self, ev) -> None:
        walk = self._walks.get(ev.walk_id)
        if walk is not None:
            walk._transition(ev.cycle, _WAIT, ev.action_costs)
            walk._wait_dram = bool(ev.fills)

    def on_walker_wake(self, ev) -> None:
        walk = self._walks.get(ev.walk_id)
        if walk is not None:
            walk._transition(ev.cycle, _READY)

    def on_walker_retire(self, ev) -> None:
        walk = self._walks.pop(ev.walk_id, None)
        if walk is None:
            return
        walk._transition(ev.cycle, _ADMIT, ev.action_costs)  # final phase
        walk.retired = ev.cycle
        walk.found = ev.found
        walk.served = ev.served
        if self.walk_sink is not None:
            self.walk_sink(walk, ev.lifetime)
        served = set(ev.served)
        for rid in walk.riders:
            span = self._requests.get(rid)
            if span is None:
                continue
            for ep in reversed(span.episodes):
                if ep.walk is walk:
                    ep.left = ev.cycle
                    break
            if rid in served:
                del self._requests[rid]
                span.outcome = "walk"
                span.close = span.done = ev.cycle
                self._complete(span)

    # -- DRAM handlers -------------------------------------------------
    def on_dram_issue(self, ev) -> None:
        walk = self._walks.get(ev.walk_id)
        if walk is not None:
            walk.dram.append(DRAMSpan(issue=ev.cycle,
                                      complete=ev.complete_at,
                                      addr=ev.addr, is_write=ev.is_write,
                                      row_result=ev.row_result))

    def on_fill(self, ev) -> None:
        walk = self._walks.get(ev.walk_id)
        if walk is not None:
            walk.fills += 1
