"""Discrete-event simulation kernel.

The kernel drives every timed model in the reproduction: the DRAM model,
the address-based cache, the X-Cache controller pipeline, and the DSA
datapaths. Time is measured in integer *cycles* of a single global clock
(the paper synthesizes at 1 GHz; we keep cycles abstract and only report
ratios).

The kernel is event-driven rather than tick-driven: components schedule
callbacks only when they have work, so large idle stretches (e.g. a DSA
waiting on a DRAM burst) cost nothing. Components that need per-cycle
behaviour while active (the controller pipeline) reschedule themselves
each cycle and stop rescheduling when their queues drain.

The scheduler is a hybrid calendar queue: a ring of per-cycle buckets
covers the near future (one list per cycle, drained in a single pass),
and a heap holds far-future overflow. Near-future scheduling is a bare
``list.append`` — no tuple, no sequence number, no heap rebalancing —
and all same-cycle events run in one bucket drain instead of N heap
pops. When the ring is idle, ``now`` jumps straight to the next
populated cycle. Events scheduled for the same cycle run in FIFO order
of scheduling (the kernel tests check this against a plain ``heapq``
reference).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, runaway runs)."""


class Simulator:
    """A single-clock discrete-event simulator (calendar-queue hybrid).

    Usage::

        sim = Simulator()
        sim.call_at(10, lambda: print(sim.now))
        sim.run()

    Events scheduled for the same cycle run in FIFO order of scheduling,
    which keeps component interactions deterministic.

    Internals: a ring of ``horizon`` per-cycle buckets covers cycles in
    ``[now, now + horizon)``; anything further lands in a heap keyed by
    ``(cycle, seq)``. The window only moves forward, so for any cycle
    every heap-resident event was scheduled strictly before every
    ring-resident event — executing heap entries first, then the bucket
    in append order, reproduces global FIFO-within-cycle order exactly.
    """

    __slots__ = ("now", "events_executed", "bus", "_horizon", "_mask",
                 "_ring", "_ring_count", "_far", "_far_seq", "_running",
                 "_stopped")

    def __init__(self, horizon: int = 128) -> None:
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        # round up to a power of two so slot lookup is a bitmask
        while horizon & (horizon - 1):
            horizon += 1
        self.now: int = 0
        self.events_executed: int = 0
        # observability bus (repro.obs); None = no run_start/run_end events
        self.bus = None
        self._horizon = horizon
        self._mask = horizon - 1
        self._ring: List[List[Callable[[], None]]] = [
            [] for _ in range(horizon)
        ]
        self._ring_count = 0
        self._far: List[Tuple[int, int, Callable[[], None]]] = []
        self._far_seq = 0
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, cycle: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute ``cycle``."""
        delta = cycle - self.now
        if 0 <= delta < self._horizon:
            self._ring[cycle & self._mask].append(fn)
            self._ring_count += 1
        elif delta < 0:
            raise SimulationError(
                f"cannot schedule at cycle {cycle}; now is {self.now}"
            )
        else:
            self._far_seq += 1
            heappush(self._far, (cycle, self._far_seq, fn))

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if 0 <= delay < self._horizon:
            self._ring[(self.now + delay) & self._mask].append(fn)
            self._ring_count += 1
        elif delay < 0:
            raise SimulationError(f"negative delay {delay}")
        else:
            self._far_seq += 1
            heappush(self._far, (self.now + delay, self._far_seq, fn))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: int = 500_000_000) -> int:
        """Run until the event queue drains (or ``until`` cycles elapse).

        Returns the final cycle. The clock never runs backwards: an
        ``until`` before :attr:`now` raises :class:`SimulationError`.
        ``max_events`` counts *callbacks executed* (not cycles advanced)
        and guards against livelock in a buggy model; hitting it raises
        :class:`SimulationError`. The running total is surfaced as
        :attr:`events_executed`, so benchmarks can report events/sec
        without wrapping callbacks.
        """
        if self._running:
            raise SimulationError("re-entrant run()")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until cycle {until}; now is {self.now}")
        self._running = True
        self._stopped = False
        events = 0
        ring = self._ring
        far = self._far
        horizon = self._horizon
        mask = self._mask
        bus = self.bus
        if bus is not None:
            from ..obs.events import RunStart
            bus.publish(RunStart(cycle=self.now, component="kernel"))
        try:
            while not self._stopped:
                # -- idle fast-forward: jump now to the next populated cycle
                cycle = -1
                if self._ring_count:
                    base = self.now
                    for d in range(horizon):
                        if ring[(base + d) & mask]:
                            cycle = base + d
                            break
                if far and (cycle < 0 or far[0][0] < cycle):
                    cycle = far[0][0]
                if cycle < 0:
                    break
                if until is not None and cycle > until:
                    self.now = until
                    break
                self.now = cycle
                # -- far-future overflow first (scheduled earliest; see
                #    the class docstring for the ordering argument)
                while far and far[0][0] == cycle:
                    fn = heappop(far)[2]
                    fn()
                    events += 1
                    if events > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events at cycle "
                            f"{self.now}; likely a livelocked model"
                        )
                    if self._stopped:
                        break
                if self._stopped:
                    break
                # -- single-pass bucket drain; the list iterator picks up
                #    zero-delay events appended to the cycle mid-drain
                bucket = ring[cycle & mask]
                if bucket:
                    start = events
                    for fn in bucket:
                        fn()
                        events += 1
                        if events > max_events:
                            done = events - start
                            del bucket[:done]
                            self._ring_count -= done
                            raise SimulationError(
                                f"exceeded {max_events} events at cycle "
                                f"{self.now}; likely a livelocked model"
                            )
                        if self._stopped:
                            break
                    done = events - start
                    del bucket[:done]
                    self._ring_count -= done
        finally:
            self._running = False
            self.events_executed += events
            if bus is not None:
                from ..obs.events import RunEnd
                bus.publish(RunEnd(cycle=self.now, component="kernel",
                                   events_executed=self.events_executed))
        return self.now

    def stop(self) -> None:
        """Stop a run() in progress after the current event."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return self._ring_count + len(self._far)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending})"

