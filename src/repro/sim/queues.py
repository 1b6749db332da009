"""Latency-insensitive message queues.

X-Cache interfaces with every neighbour — the DSA datapath (MetaIO), the
DRAM bus, and upstream/downstream caches — through "parameterized message
bundles, i.e. latency-insensitive queues" (paper §7.1). This module is
the Python analogue: a bounded FIFO with ready/valid semantics and an
optional wakeup callback so a consumer can sleep until traffic arrives.

Traffic statistics (peak depth, enqueue/dequeue totals) feed the
occupancy studies.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, Generic, Iterable, List, Optional, TypeVar

__all__ = ["MessageQueue", "QueueFullError", "QueueEmptyError"]

T = TypeVar("T")


class QueueFullError(RuntimeError):
    """enq() on a queue with no space (caller should have checked ready)."""


class QueueEmptyError(RuntimeError):
    """deq()/peek() on an empty queue (caller should have checked valid)."""


class MessageQueue(Generic[T]):
    """Bounded FIFO with ready/valid flow control.

    ``capacity <= 0`` means unbounded. ``on_push`` is invoked after each
    enqueue; consumers use it to (re)arm their tick in the simulator.
    Statistics (peak depth, total traffic) feed the occupancy studies.
    """

    __slots__ = ("name", "capacity", "on_push", "_items", "total_enqueued",
                 "total_dequeued", "peak_depth")

    def __init__(self, name: str = "q", capacity: int = 0,
                 on_push: Optional[Callable[[], None]] = None) -> None:
        self.name = name
        self.capacity = capacity
        self.on_push = on_push
        self._items: Deque[T] = deque()
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.peak_depth = 0

    # ------------------------------------------------------------------
    # flow control
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True when the producer may enqueue."""
        return self.capacity <= 0 or len(self._items) < self.capacity

    @property
    def valid(self) -> bool:
        """True when the consumer may dequeue."""
        return bool(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def enq(self, item: T) -> None:
        items = self._items
        if 0 < self.capacity <= len(items):
            raise QueueFullError(f"queue {self.name!r} full (cap={self.capacity})")
        items.append(item)
        self.total_enqueued += 1
        depth = len(items)
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self.on_push is not None:
            self.on_push()

    def enq_all(self, items: Iterable[T]) -> None:
        for item in items:
            self.enq(item)

    def deq(self) -> T:
        if not self._items:
            raise QueueEmptyError(f"queue {self.name!r} empty")
        self.total_dequeued += 1
        return self._items.popleft()

    def peek(self) -> T:
        if not self._items:
            raise QueueEmptyError(f"queue {self.name!r} empty")
        return self._items[0]

    def window(self, n: int) -> List[T]:
        """The first ``n`` queued items, oldest first (scheduler scan)."""
        return list(islice(self._items, n))

    def remove(self, item: T) -> None:
        """Remove a specific item (a scheduler picked it mid-queue)."""
        try:
            self._items.remove(item)
        except ValueError:
            raise QueueEmptyError(
                f"item not present in queue {self.name!r}") from None
        self.total_dequeued += 1

    def drain(self) -> List[T]:
        """Dequeue everything at once (testing/teardown helper)."""
        out = list(self._items)
        self.total_dequeued += len(self._items)
        self._items.clear()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MessageQueue({self.name!r}, depth={len(self._items)}, "
                f"cap={self.capacity})")
