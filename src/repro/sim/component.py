"""Base class for clocked components.

A :class:`Component` owns a :class:`~repro.sim.stats.StatGroup` and an
activity-driven tick: calling :meth:`wake` arms a ``_tick`` callback for
the next cycle (at most one outstanding), and ``_tick`` re-arms itself by
returning True while the component still has work. This gives tick-like
semantics for busy pipelines without burning events when idle.

The tick callback is a *persistent* bound method created once at
construction — arming a tick costs one flag write and one schedule, with
no per-event closure allocation on the steady state.
"""

from __future__ import annotations

from .kernel import Simulator
from .stats import StatGroup

__all__ = ["Component"]


class Component:
    """A named model element attached to a simulator."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        # observability: publish sites test `self.bus is not None` and
        # pay one attribute load when nobody is listening
        self.bus = None
        self._tick_armed = False
        self._tick_cb = self._run_tick  # persistent: no per-arm allocation

    def ensure_bus(self):
        """The component's event bus, created on first use.

        Imported lazily so the sim substrate never depends on
        :mod:`repro.obs` at import time (obs imports sim.stats).
        """
        if self.bus is None:
            from ..obs.bus import EventBus
            self.bus = EventBus()
        return self.bus

    # ------------------------------------------------------------------
    # activity-driven ticking
    # ------------------------------------------------------------------
    def wake(self, delay: int = 0) -> None:
        """Ensure a tick is scheduled within ``delay`` cycles.

        Safe to call repeatedly; only one tick is ever outstanding.
        """
        if self._tick_armed:
            return
        self._tick_armed = True
        self.sim.call_after(delay, self._tick_cb)

    def _run_tick(self) -> None:
        self._tick_armed = False
        if self._tick():
            self.wake(1)

    def _tick(self) -> bool:
        """Do one cycle of work; return True to keep ticking.

        Subclasses with per-cycle behaviour override this. The default is
        a no-op that immediately goes back to sleep.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
