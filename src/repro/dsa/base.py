"""Shared infrastructure for the DSA models.

Each DSA in :mod:`repro.dsa` is modelled in (up to) three variants, the
comparison Figure 14 draws:

* ``xcache``   — the DSA datapath issuing meta loads/stores against a
  programmed X-Cache.
* ``baseline`` — the DSA's original hardwired design (custom on-chip RAM
  and orchestration).
* ``addr``     — an equally-sized *address-tagged* cache with an ideal
  (zero-time) walker: the walker makes the same orchestration decisions
  but the cache is indexed by addresses, so every access must still
  perform the metadata→address translation and the data-structure walk.

All variants report a :class:`RunResult`, which the harness reduces to
the paper's rows (speedups, memory-access ratios, power).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..core.controller import Controller, MetaResponse
from ..core.energy import EnergyBreakdown
from ..sim import Component, Simulator

__all__ = ["RunResult", "RequestPump"]


@dataclass
class RunResult:
    """Outcome of one DSA variant run."""

    dsa: str
    variant: str
    cycles: int
    dram_reads: int
    dram_writes: int
    onchip_accesses: int
    hits: int
    misses: int
    requests: int
    energy: Optional[EnergyBreakdown] = None
    checks_passed: bool = True
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def dram_accesses(self) -> int:
        return self.dram_reads + self.dram_writes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other`` (>1 = faster)."""
        if self.cycles <= 0:
            return 0.0
        return other.cycles / self.cycles

    def row(self) -> Dict[str, object]:
        return {
            "dsa": self.dsa,
            "variant": self.variant,
            "cycles": self.cycles,
            "dram": self.dram_accesses,
            "onchip": self.onchip_accesses,
            "hit_rate": round(self.hit_rate, 4),
            "ok": self.checks_passed,
        }


class RequestPump(Component):
    """Issues requests from a generator with bounded outstanding.

    Models the DSA datapath's issue bandwidth: at most ``window``
    requests in flight; each completion admits the next. ``issue_fn``
    sends one request (by index); ``on_done`` fires when the trace
    drains and every response has returned.
    """

    def __init__(self, sim: Simulator, total: int,
                 issue_fn: Callable[[int], None],
                 window: int = 16,
                 on_done: Optional[Callable[[], None]] = None,
                 name: str = "pump") -> None:
        super().__init__(sim, name)
        if window <= 0:
            raise ValueError("window must be positive")
        self.total = total
        self.window = window
        self.issue_fn = issue_fn
        self.on_done = on_done
        self._next = 0
        self._outstanding = 0
        self._completed = 0
        self._n_issued = self.stats.counter("issued")

    def start(self) -> None:
        if self.total == 0:
            if self.on_done is not None:
                self.sim.call_after(0, self.on_done)
            return
        self._fill()

    def _fill(self) -> None:
        while self._outstanding < self.window and self._next < self.total:
            index = self._next
            self._next += 1
            self._outstanding += 1
            self._n_issued.value += 1
            self.issue_fn(index)

    def complete(self) -> None:
        """Call once per finished request."""
        self._outstanding -= 1
        self._completed += 1
        if self._completed == self.total:
            if self.on_done is not None:
                self.on_done()
            return
        self._fill()

    @property
    def done(self) -> bool:
        return self._completed == self.total
