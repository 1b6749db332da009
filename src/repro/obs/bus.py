"""The event bus: each processor's ``on_<event>`` methods, bound at attach.

A component publishes behind a single ``bus is None`` check::

    bus = self.bus
    if bus is not None:
        bus.publish(Hit(cycle=now, component=self.name, tag=tag, ...))

so an un-observed run pays one attribute load per instrumentation site
and never constructs an event.

A processor subclasses nothing: it has a method per event it takes,
named after the event's wire name (``on_hit``, ``on_walker_retire``,
...), and ``on_event`` takes every event (:attr:`Event.name` is
``"event"``). :meth:`EventBus.attach` is the one way to subscribe. It
binds those methods into one handler tuple per event class:
every-event handlers first, then the typed ones, each in attach order,
which keeps multi-processor runs deterministic. ``publish`` walks the
tuple and ``wants`` is one dict probe. A handler set to ``None`` on the
instance is not bound, so a processor can turn one off per instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Type

from .events import EVENT_TYPES, Event

__all__ = ["EventBus"]

Handler = Callable[[Event], None]


def _bound(processors: List[object], name: str) -> Tuple[Handler, ...]:
    """The callable ``name`` attribute of each processor, in order."""
    return tuple(handler for handler in
                 (getattr(p, name, None) for p in processors)
                 if callable(handler))


class EventBus:
    """Routes each published event to the handlers bound for its class."""

    __slots__ = ("_processors", "_handlers")

    def __init__(self) -> None:
        self._processors: List[object] = []
        # event class -> (every-event handlers + its typed handlers)
        self._handlers: Dict[Type[Event], Tuple[Handler, ...]] = {}

    def attach(self, processor) -> object:
        """Bind ``processor``'s ``on_<event>`` methods; returns it."""
        self._processors.append(processor)
        every = _bound(self._processors, "on_event")
        handlers = {}
        for name, cls in EVENT_TYPES.items():
            bound = every + _bound(self._processors, f"on_{name}")
            if bound:
                handlers[cls] = bound
        self._handlers = handlers
        return processor

    def wants(self, cls: Type[Event]) -> bool:
        """True when publishing ``cls`` would reach any handler.

        Hot publish sites gate event *construction* on this, so a bus
        armed for one concern (say, miss taxonomy) does not tax every
        other instrumentation site with dataclass construction::

            bus = self.bus
            if bus is not None and bus.wants(QueueStall):
                bus.publish(QueueStall(...))

        Cost when False is two attribute loads and a dict probe —
        within noise of the unarmed ``bus is None`` test.
        """
        return cls in self._handlers

    def publish(self, event: Event) -> None:
        for handler in self._handlers.get(event.__class__, ()):
            handler(event)

    @property
    def processors(self) -> Tuple[object, ...]:
        return tuple(self._processors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventBus({len(self._processors)} processors, "
                f"{len(self._handlers)} event classes)")
