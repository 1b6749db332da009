"""Unit tests for the `repro.obs` event bus and event taxonomy."""

import dataclasses

import pytest

from repro.obs import (
    ALL_EVENT_TYPES,
    EVENT_TYPES,
    EventBus,
    Hit,
    Miss,
    WalkerRetire,
    event_fields,
)


def _hit(cycle=1, **kw):
    kw.setdefault("tag", (1,))
    return Hit(cycle=cycle, component="ctl", **kw)


def _miss(cycle=1):
    return Miss(cycle=cycle, component="ctl", tag=(1,), op="MetaLoad")


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
def test_events_are_frozen():
    ev = _hit()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.cycle = 2


def test_wire_names_unique_and_complete():
    assert len(EVENT_TYPES) == len(ALL_EVENT_TYPES)
    for name, cls in EVENT_TYPES.items():
        assert cls.name == name
        assert name == name.lower()


def test_event_fields_cached_and_ordered():
    assert event_fields(Hit) == ("cycle", "component", "tag", "store",
                                 "take", "load_to_use", "req_id", "status")
    assert event_fields(Hit) is event_fields(Hit)


# ----------------------------------------------------------------------
# attach binds on_<event> methods; publish walks the bound handlers
# ----------------------------------------------------------------------
class _Recorder:
    """Logs ``(label, event)`` for each hit, or for every event when
    ``every`` (its handler is then ``on_event``)."""

    def __init__(self, label="rec", log=None, every=False):
        self.label = label
        self.log = [] if log is None else log
        if every:
            self.on_event = self._record
        else:
            self.on_hit = self._record

    def _record(self, event):
        self.log.append((self.label, event))

    @property
    def got(self):
        return [event for _, event in self.log]


def test_typed_subscription_filters():
    bus = EventBus()
    rec = bus.attach(_Recorder())
    bus.publish(_hit())
    bus.publish(_miss())
    assert len(rec.got) == 1 and isinstance(rec.got[0], Hit)


def test_catch_all_sees_everything():
    bus = EventBus()
    rec = bus.attach(_Recorder(every=True))
    bus.publish(_hit())
    bus.publish(_miss())
    assert [type(e) for e in rec.got] == [Hit, Miss]


def test_delivery_order_catch_all_then_typed_attachment_order():
    bus = EventBus()
    log = []
    bus.attach(_Recorder("typed1", log))
    bus.attach(_Recorder("all1", log, every=True))
    bus.attach(_Recorder("typed2", log))
    bus.attach(_Recorder("all2", log, every=True))
    bus.publish(_hit())
    assert [label for label, _ in log] == ["all1", "all2", "typed1",
                                           "typed2"]


def test_one_handler_many_types():
    class HitsAndRetires:
        def __init__(self):
            self.got = []
            self.on_hit = self.on_walker_retire = self.got.append

    bus = EventBus()
    rec = bus.attach(HitsAndRetires())
    bus.publish(_hit())
    bus.publish(_miss())
    bus.publish(WalkerRetire(cycle=9, component="ctl", tag=(1,),
                             found=True, lifetime=8))
    assert [type(e) for e in rec.got] == [Hit, WalkerRetire]


def test_attach_binds_on_methods():
    class MissesOnly:
        def __init__(self):
            self.got = []

        def on_miss(self, event):
            self.got.append(event)

    bus = EventBus()
    typed = bus.attach(MissesOnly())
    everything = bus.attach(_Recorder(every=True))
    bus.publish(_hit())
    bus.publish(_miss())
    assert [type(e) for e in typed.got] == [Miss]
    assert len(everything.got) == 2
    assert bus.processors == (typed, everything)


def test_none_handler_is_not_bound():
    rec = _Recorder()
    rec.on_hit = None            # switched off on this instance
    bus = EventBus()
    bus.attach(rec)
    assert not bus.wants(Hit)
    bus.publish(_hit())
    assert rec.got == []


def test_wants_names_exactly_the_bound_classes():
    bus = EventBus()
    assert not any(bus.wants(cls) for cls in ALL_EVENT_TYPES)
    bus.attach(_Recorder())
    assert [cls for cls in ALL_EVENT_TYPES if bus.wants(cls)] == [Hit]
    bus.attach(_Recorder(every=True))
    assert all(bus.wants(cls) for cls in ALL_EVENT_TYPES)


def test_unarmed_publish_site_is_one_check():
    # the contract components rely on: `if bus is not None` guards the
    # entire publish path, so a None bus means no event construction
    bus = None
    if bus is not None:  # pragma: no cover - the guarded site
        raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# the per-class handler tuples, rebuilt at each attach
# ----------------------------------------------------------------------
def test_resolved_cache_invalidated_by_late_subscribe():
    bus = EventBus()
    early = bus.attach(_Recorder())
    bus.publish(_hit())
    late = bus.attach(_Recorder())   # attached after the first publish
    bus.publish(_hit())
    assert len(early.got) == 2 and len(late.got) == 1


def test_resolved_cache_preserves_delivery_order():
    bus = EventBus()
    log = []
    bus.attach(_Recorder("typed", log))
    bus.attach(_Recorder("catch_all", log, every=True))
    bus.publish(_hit())
    bus.publish(_hit())
    # every-event handlers always deliver before typed ones
    assert [label for label, _ in log] == ["catch_all", "typed"] * 2


def test_resolved_cache_handles_unsubscribed_types():
    bus = EventBus()
    rec = bus.attach(_Recorder())
    bus.publish(_miss())           # no Miss handler: delivered nowhere
    bus.publish(_miss())
    assert rec.got == [] and not bus.wants(Miss)
