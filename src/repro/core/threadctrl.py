"""Thread-based controller baseline for the occupancy study (Figure 7).

Prior DSAs (Ax-DAE, CoRAM, Widx) executed walkers as *blocking threads*:
each walker is pinned to a hardware pipeline and holds its full register
context — architectural registers plus pipeline latches — from admission
to completion, including every cycle spent stalled on DRAM. The paper
measures occupancy as::

    #active-registers × size_bytes × lifetime_cycles

and finds threads cost ~1000× more than coroutines, because coroutine
walkers only pin a handful of X-registers and release the pipeline at
every long-latency event.

:class:`ThreadController` executes abstract walks — sequences of compute
and DRAM steps — with that blocking discipline. The experiment harness
feeds the *same* walk set to an X-Cache controller and to this model and
compares the measured integrals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional, Sequence, Tuple

from ..mem.dram import DRAMModel, MemRequest, MemResponse
from ..obs.events import (
    Miss,
    RequestArrive,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
)
from ..sim import Component, Simulator

__all__ = ["WalkStep", "ThreadController"]


@dataclass(frozen=True)
class WalkStep:
    """One step of an abstract walk.

    ``kind`` is ``"compute"`` (busy ``cycles``) or ``"dram"`` (a block
    fetch at ``addr``; the thread blocks until the fill returns).
    """

    kind: str
    cycles: int = 0
    addr: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("compute", "dram"):
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass
class _Walk:
    steps: Tuple[WalkStep, ...]
    submitted_at: int
    uid: int = 0
    started_at: int = -1
    step_index: int = 0
    # persistent per-walk callbacks (armed once at start, reused every
    # step — the steady state allocates nothing per compute/DRAM step)
    resume: Optional[Callable[[], None]] = None
    on_fill: Optional[Callable[[MemResponse], None]] = None


class ThreadController(Component):
    """Blocking-thread walker execution on ``num_pipelines`` pipelines.

    ``context_bytes`` is the register state a thread pins while resident
    (a classic RISC pipeline context: 32 architectural + ~32 pipeline /
    control registers × 8 B = 512 B by default, vs the coroutine's
    handful of X-registers).
    """

    def __init__(self, sim: Simulator, dram: DRAMModel,
                 num_pipelines: int = 4, context_bytes: int = 512,
                 name: str = "thread-ctrl") -> None:
        super().__init__(sim, name)
        if num_pipelines <= 0:
            raise ValueError("need at least one pipeline")
        self.dram = dram
        self.num_pipelines = num_pipelines
        self.context_bytes = context_bytes
        self._pending: Deque[_Walk] = deque()
        self._next_uid = 0
        self._resident = 0
        self.occupancy_byte_cycles = 0
        self._last_update = 0
        self.walks_completed = 0
        self.last_completion = 0

    # ------------------------------------------------------------------
    # occupancy integral
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        if now > self._last_update:
            self.occupancy_byte_cycles += (
                self._resident * self.context_bytes * (now - self._last_update)
            )
            self._last_update = now

    # ------------------------------------------------------------------
    # walk submission/execution
    # ------------------------------------------------------------------
    def submit(self, steps: Sequence[WalkStep]) -> None:
        """Queue one walk; it runs when a pipeline frees up."""
        uid = self._next_uid
        self._next_uid = uid + 1
        self._pending.append(_Walk(tuple(steps), submitted_at=self.sim.now,
                                   uid=uid))
        bus = self.bus
        if bus is not None and bus.wants(RequestArrive):
            bus.publish(RequestArrive(cycle=self.sim.now,
                                      component=self.name,
                                      tag=(uid,), op="walk",
                                      req_id=uid))
        self._try_start()

    def _try_start(self) -> None:
        while self._pending and self._resident < self.num_pipelines:
            self._advance()
            walk = self._pending.popleft()
            walk.started_at = self.sim.now
            walk.resume = partial(self._step, walk)
            walk.on_fill = partial(self._resume_after_fill, walk)
            self._resident += 1
            self.stats.inc("walks_started")
            bus = self.bus
            if bus is not None:
                # a blocking thread's walk IS its request: uid doubles
                # as req_id and walk_id (the paper's point — the whole
                # journey pins one pipeline)
                if bus.wants(Miss):
                    bus.publish(Miss(cycle=self.sim.now,
                                     component=self.name,
                                     tag=(walk.uid,), op="walk",
                                     req_id=walk.uid, walk_id=walk.uid))
                if bus.wants(WalkerDispatch):
                    bus.publish(WalkerDispatch(cycle=self.sim.now,
                                               component=self.name,
                                               tag=(walk.uid,),
                                               routine="thread-walk",
                                               walk_id=walk.uid))
            self._step(walk)

    def _resume_after_fill(self, walk: _Walk, resp: MemResponse) -> None:
        bus = self.bus
        if bus is not None and bus.wants(WalkerWake):
            bus.publish(WalkerWake(cycle=self.sim.now,
                                   component=self.name,
                                   tag=(walk.uid,), reason="fill",
                                   walk_id=walk.uid))
        self._step(walk)

    def _step(self, walk: _Walk) -> None:
        if walk.step_index >= len(walk.steps):
            self._finish(walk)
            return
        step = walk.steps[walk.step_index]
        walk.step_index += 1
        if step.kind == "compute":
            self.stats.inc("compute_cycles", step.cycles)
            self.sim.call_after(max(1, step.cycles), walk.resume)
        else:
            self.stats.inc("dram_fetches")
            bus = self.bus
            if bus is not None and bus.wants(WalkerYield):
                # the thread blocks here: the profiler books the stall
                # as dram_wait against the (only) thread-walk routine
                bus.publish(WalkerYield(cycle=self.sim.now,
                                        component=self.name,
                                        tag=(walk.uid,),
                                        routine="thread-walk",
                                        fills=1, walk_id=walk.uid))
            self.dram.request(MemRequest(step.addr, walk_id=walk.uid),
                              walk.on_fill)

    def _finish(self, walk: _Walk) -> None:
        self._advance()
        self._resident -= 1
        self.walks_completed += 1
        self.last_completion = self.sim.now
        self.stats.histogram("walk_latency").add(self.sim.now - walk.started_at)
        self.stats.histogram("walk_turnaround").add(
            self.sim.now - walk.submitted_at
        )
        bus = self.bus
        if bus is not None and bus.wants(WalkerRetire):
            bus.publish(WalkerRetire(
                cycle=self.sim.now, component=self.name, tag=(walk.uid,),
                found=True, lifetime=self.sim.now - walk.started_at,
                walk_id=walk.uid, served=(walk.uid,)))
        self._try_start()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        self._advance()

    @property
    def drained(self) -> bool:
        return not self._pending and self._resident == 0
