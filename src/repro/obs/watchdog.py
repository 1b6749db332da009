"""Pathology watchdog (``repro.obs.watchdog``).

Watches the event stream for three classes of simulated-hardware
pathologies and records each as a structured :class:`ObsWarning`:

* **livelock** — walker contexts are in flight but no walker has
  retired for ``livelock_cycles`` simulated cycles;
* **mshr_saturation** — outstanding DRAM transactions reached
  ``mshr_limit`` (an episode re-arms once the level drains below half
  the limit, so a sustained plateau warns once, not per event);
* **starvation** — a dormant walker waited more than
  ``starvation_cycles`` between yield and wake/retire.

Warnings are plain frozen dataclasses — tests assert on them, and an
optional ``stream`` mirrors each as a human-readable line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, TextIO, Tuple

from .events import (
    DRAMComplete,
    DRAMIssue,
    Hit,
    Miss,
    Tag,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
)

__all__ = ["ObsWarning", "WatchdogProcessor"]


@dataclass(frozen=True)
class ObsWarning:
    """One detected pathology."""

    kind: str        # "livelock" | "mshr_saturation" | "starvation"
    cycle: int
    component: str
    detail: str


class WatchdogProcessor:
    """Flags livelock, MSHR saturation, and walker starvation."""

    def __init__(self,
                 livelock_cycles: int = 100_000,
                 mshr_limit: int = 32,
                 starvation_cycles: int = 50_000,
                 stream: Optional[TextIO] = None) -> None:
        self.livelock_cycles = livelock_cycles
        self.mshr_limit = mshr_limit
        self.starvation_cycles = starvation_cycles
        self.stream = stream
        self.warnings: List[ObsWarning] = []
        self._active: Set[Tuple[str, Tag]] = set()
        self._dormant: Dict[Tuple[str, Tag], int] = {}  # -> yield cycle
        self._last_progress = 0
        self._livelock_flagged = False
        self._mshr = 0
        self._mshr_flagged = False

    # -- warning plumbing ----------------------------------------------
    def _warn(self, kind: str, cycle: int, component: str,
              detail: str) -> None:
        warning = ObsWarning(kind, cycle, component, detail)
        self.warnings.append(warning)
        if self.stream is not None:
            self.stream.write(
                f"[obs] WARNING {kind} @{cycle} {component}: {detail}\n")

    def _check_livelock(self, cycle: int, component: str) -> None:
        if self._livelock_flagged or not self._active:
            return
        stalled = cycle - self._last_progress
        if stalled > self.livelock_cycles:
            self._livelock_flagged = True
            self._warn("livelock", cycle, component,
                       f"{len(self._active)} walker(s) in flight, "
                       f"no retire for {stalled} cycles")

    def _progress(self, cycle: int) -> None:
        self._last_progress = cycle
        self._livelock_flagged = False

    # -- event handlers ------------------------------------------------
    def on_hit(self, ev: Hit) -> None:
        self._progress(ev.cycle)

    def on_miss(self, ev: Miss) -> None:
        self._active.add((ev.component, ev.tag))
        self._check_livelock(ev.cycle, ev.component)

    def on_walker_dispatch(self, ev: WalkerDispatch) -> None:
        key = (ev.component, ev.tag)
        self._active.add(key)
        self._dormant.pop(key, None)
        self._check_livelock(ev.cycle, ev.component)

    def on_walker_yield(self, ev: WalkerYield) -> None:
        self._dormant[(ev.component, ev.tag)] = ev.cycle
        self._check_livelock(ev.cycle, ev.component)

    def on_walker_wake(self, ev: WalkerWake) -> None:
        self._check_starved(ev.component, ev.tag, ev.cycle)
        self._check_livelock(ev.cycle, ev.component)

    def on_walker_retire(self, ev: WalkerRetire) -> None:
        key = (ev.component, ev.tag)
        self._check_starved(ev.component, ev.tag, ev.cycle)
        self._active.discard(key)
        self._progress(ev.cycle)

    def _check_starved(self, component: str, tag: Tag,
                       cycle: int) -> None:
        slept = self._dormant.pop((component, tag), None)
        if slept is None:
            return
        waited = cycle - slept
        if waited > self.starvation_cycles:
            self._warn("starvation", cycle, component,
                       f"walker {tag} dormant for {waited} cycles")

    def on_dram_issue(self, ev: DRAMIssue) -> None:
        self._mshr += 1
        if self._mshr >= self.mshr_limit and not self._mshr_flagged:
            self._mshr_flagged = True
            self._warn("mshr_saturation", ev.cycle, ev.component,
                       f"{self._mshr} outstanding DRAM transactions "
                       f"(limit {self.mshr_limit})")
        self._check_livelock(ev.cycle, ev.component)

    def on_dram_complete(self, ev: DRAMComplete) -> None:
        if self._mshr > 0:
            self._mshr -= 1
        if self._mshr < self.mshr_limit // 2:
            self._mshr_flagged = False

    # -- inspection ----------------------------------------------------
    def count(self, kind: str) -> int:
        return sum(1 for w in self.warnings if w.kind == kind)
