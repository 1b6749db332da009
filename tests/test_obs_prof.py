"""Tests for the cycle-attribution profiler (`repro.obs.prof`)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.report import cycles_breakdown_table
from repro.obs import (
    ACTION_CATEGORIES,
    CycleProfile,
    EventBus,
    Miss,
    SpanAssembler,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
    apportion,
    write_folded,
)


# ----------------------------------------------------------------------
# apportionment
# ----------------------------------------------------------------------
def test_apportion_sums_exactly():
    for duration in (1, 3, 7, 100, 9999):
        for costs in ((2, 1, 1, 0, 0), (1, 1, 1, 1, 1), (0, 0, 5, 0, 3)):
            shares = apportion(duration, costs)
            assert sum(shares) == duration
            assert all(s >= 0 for s in shares)
            # zero-cost categories never receive cycles
            assert all(s == 0 for s, c in zip(shares, costs) if c == 0)


def test_apportion_proportionality():
    shares = apportion(100, (3, 1, 0, 0, 0))
    assert shares == [75, 25, 0, 0, 0]


def test_apportion_largest_remainder_is_deterministic():
    # 3 cycles over equal costs: the leftover lands on the earliest
    # categories, same answer every call
    assert apportion(3, (1, 1, 1, 1, 1)) == apportion(3, (1, 1, 1, 1, 1))
    assert sum(apportion(3, (1, 1, 1, 1, 1))) == 3


def test_apportion_degenerate_inputs():
    assert apportion(5, ()) == []
    assert apportion(5, (0, 0, 0, 0, 0)) == []
    assert apportion(0, (1, 2, 3)) == []


# ----------------------------------------------------------------------
# synthetic event streams
# ----------------------------------------------------------------------
def _profiled_bus():
    """(bus, assembler, profile): the profile folds the walks the
    assembler retires."""
    prof = CycleProfile()
    bus = EventBus()
    asm = bus.attach(SpanAssembler(walk_sink=prof.add))
    return bus, asm, prof


def _one_routine_walk(bus, retire_cycle, lifetime):
    bus.publish(Miss(cycle=0, component="ctl", tag=(1,), op="L",
                     walk_id=1))
    bus.publish(WalkerDispatch(cycle=0, component="ctl", tag=(1,),
                               routine="R", walk_id=1))
    bus.publish(WalkerRetire(cycle=retire_cycle, component="ctl",
                             tag=(1,), found=True, lifetime=lifetime,
                             walk_id=1))


def test_conservation_on_synthetic_walk():
    bus, asm, prof = _profiled_bus()
    bus.publish(Miss(cycle=10, component="ctl", tag=(1,), op="MetaLoad",
                     walk_id=1))
    bus.publish(WalkerDispatch(cycle=10, component="ctl", tag=(1,),
                               routine="Default@MetaLoad", walk_id=1))
    bus.publish(WalkerYield(cycle=13, component="ctl", tag=(1,),
                            routine="Default@MetaLoad",
                            action_costs=(2, 1, 1, 0, 0), fills=1,
                            walk_id=1))
    bus.publish(WalkerWake(cycle=50, component="ctl", tag=(1,),
                           reason="Fill", walk_id=1))
    bus.publish(WalkerDispatch(cycle=50, component="ctl", tag=(1,),
                               routine="Wait@Fill", walk_id=1))
    bus.publish(WalkerRetire(cycle=56, component="ctl", tag=(1,),
                             found=True, lifetime=46,
                             action_costs=(1, 0, 1, 0, 2), walk_id=1))
    assert prof.conservation_ok
    assert prof.contexts_retired == 1
    assert prof.cycles_attributed == 46
    assert asm.walks_open == 0
    # the 37-cycle sleep left a fill outstanding -> dram_wait
    assert prof.stacks[("ctl", "Default@MetaLoad", "dram_wait")] == 37
    # exec cycles went only to categories with nonzero cost
    assert ("ctl", "Wait@Fill", "control") not in prof.stacks
    assert sum(prof.stacks.values()) == 46


def test_mismatched_lifetime_is_flagged():
    bus, _asm, prof = _profiled_bus()
    # lifetime claims 99 but the stream only covers 10 cycles
    _one_routine_walk(bus, retire_cycle=10, lifetime=99)
    assert not prof.conservation_ok
    assert prof.mismatches == [("ctl", (1,), 10, 99)]


def test_admission_wait_books_under_admit():
    bus, _asm, prof = _profiled_bus()
    bus.publish(Miss(cycle=0, component="ctl", tag=(1,), op="L",
                     walk_id=1))
    bus.publish(WalkerDispatch(cycle=4, component="ctl", tag=(1,),
                               routine="R", walk_id=1))
    bus.publish(WalkerRetire(cycle=6, component="ctl", tag=(1,),
                             found=True, lifetime=6, walk_id=1))
    assert prof.stacks == {("ctl", "admit", "sched_wait"): 4,
                           ("ctl", "R", "busy"): 2}


def test_costless_exec_books_as_busy():
    bus, _asm, prof = _profiled_bus()
    bus.publish(Miss(cycle=0, component="t", tag=(1,), op="walk",
                     walk_id=1))
    bus.publish(WalkerDispatch(cycle=0, component="t", tag=(1,),
                               routine="thread-walk", walk_id=1))
    bus.publish(WalkerYield(cycle=4, component="t", tag=(1,),
                            routine="thread-walk", fills=1, walk_id=1))
    bus.publish(WalkerWake(cycle=30, component="t", tag=(1,),
                           reason="fill", walk_id=1))
    bus.publish(WalkerRetire(cycle=33, component="t", tag=(1,),
                             found=True, lifetime=33, walk_id=1))
    assert prof.conservation_ok
    # compute before the fetch, and again after the wake (no dispatch)
    assert prof.stacks[("t", "thread-walk", "busy")] == 7
    assert prof.stacks[("t", "thread-walk", "dram_wait")] == 26


def test_event_wait_vs_dram_wait_classification():
    bus, _asm, prof = _profiled_bus()
    bus.publish(Miss(cycle=0, component="ctl", tag=(1,), op="L",
                     walk_id=1))
    bus.publish(WalkerDispatch(cycle=0, component="ctl", tag=(1,),
                               routine="A", walk_id=1))
    bus.publish(WalkerYield(cycle=0, component="ctl", tag=(1,),
                            routine="A", fills=0, walk_id=1))
    bus.publish(WalkerWake(cycle=8, component="ctl", tag=(1,),
                           reason="MetaStore", walk_id=1))
    bus.publish(WalkerDispatch(cycle=8, component="ctl", tag=(1,),
                               routine="B", walk_id=1))
    bus.publish(WalkerRetire(cycle=9, component="ctl", tag=(1,),
                             found=True, lifetime=9, walk_id=1))
    assert prof.conservation_ok
    assert prof.stacks[("ctl", "A", "event_wait")] == 8


def test_orphan_events_are_ignored():
    bus, _asm, prof = _profiled_bus()
    bus.publish(WalkerYield(cycle=5, component="ctl", tag=(9,),
                            routine="R", fills=1, walk_id=9))
    bus.publish(WalkerWake(cycle=9, component="ctl", tag=(9,), reason="F",
                           walk_id=9))
    bus.publish(WalkerRetire(cycle=9, component="ctl", tag=(9,),
                             found=False, lifetime=4, walk_id=9))
    assert prof.contexts_retired == 0
    assert prof.stacks == {}
    assert prof.conservation_ok


def test_folded_lines_format():
    bus, _asm, prof = _profiled_bus()
    _one_routine_walk(bus, retire_cycle=5, lifetime=5)
    out = io.StringIO()
    assert write_folded(out, prof) == 1
    assert out.getvalue() == "ctl;R;busy 5\n"


def test_write_folded_to_path(tmp_path):
    bus, _asm, prof = _profiled_bus()
    _one_routine_walk(bus, retire_cycle=3, lifetime=3)
    path = tmp_path / "cycles.folded"
    write_folded(str(path), prof)
    assert path.read_text() == "ctl;R;busy 3\n"


def test_breakdown_table_renders_percentages():
    table = cycles_breakdown_table(
        {"widx": {"agen": 25, "dram_wait": 75}})
    assert "widx" in table and "100" in table
    assert "25.0%" in table and "75.0%" in table
    for cat in ACTION_CATEGORIES:
        assert cat in table
    assert cycles_breakdown_table({}) == ""


# ----------------------------------------------------------------------
# real systems
# ----------------------------------------------------------------------
def test_conservation_on_mini_system(mini_system):
    prof = CycleProfile()
    asm = mini_system.observe(SpanAssembler(walk_sink=prof.add))
    addr = mini_system.image.alloc_u64_array(list(range(8)))
    for i in range(8):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    assert prof.contexts_retired == 8
    assert prof.conservation_ok, prof.mismatches
    assert asm.walks_open == 0
    # a real walk spends time in DRAM and in routine execution
    kinds = {kind for (_, _, kind) in prof.stacks}
    assert "dram_wait" in kinds


def test_fig14_ci_conservation_invariant(tmp_path, monkeypatch):
    """Acceptance: attributed cycles == lifetime on the whole ci suite."""
    from repro.harness.suite import clear_cache, run_fig14_suite
    from repro.obs.capture import Capture, CaptureSpec, capture_scope

    buses = []
    attach = Capture.attach

    def spy(self, bus):
        attach(self, bus)
        buses.append(bus)

    monkeypatch.setattr(Capture, "attach", spy)
    clear_cache()  # a memoized reload would publish no events
    folded = tmp_path / "cycles.folded"
    try:
        with capture_scope(CaptureSpec(prof_path=str(folded))) as cap:
            run_fig14_suite("ci")
    finally:
        clear_cache()  # don't leak profiled results into other tests

    prof = cap.profile
    assert prof.contexts_retired > 100
    assert prof.conservation_ok, prof.mismatches[:5]
    assemblers = [p for bus in buses for p in bus.processors
                  if isinstance(p, SpanAssembler)]
    assert len(assemblers) == len(buses) == cap.systems_observed > 1
    for asm in assemblers:
        assert asm.walks_open == 0

    # capture_scope exit wrote the capture's folded stacks
    lines = folded.read_text().splitlines()
    assert lines
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        assert len(stack.split(";")) == 3
        assert int(count) > 0


# ----------------------------------------------------------------------
# the fold against the phase machine it replaced
# ----------------------------------------------------------------------
class _ReferenceProfile:
    """The profiler's own event-driven phase machine, as it stood before
    the profile became a fold over the span assembler's walks: the
    differential reference for :class:`CycleProfile`."""

    def __init__(self):
        self._open = {}
        self.stacks = {}
        self.contexts_retired = 0
        self.cycles_attributed = 0
        self.mismatches = []

    def on_miss(self, ev):
        self._open[(ev.component, ev.tag)] = {
            "mark": ev.cycle, "phase": "admit", "routine": "",
            "wait_kind": "event_wait", "attributed": {}}

    def on_walker_dispatch(self, ev):
        ctx = self._open.get((ev.component, ev.tag))
        if ctx is None:
            ctx = self._open[(ev.component, ev.tag)] = {
                "mark": ev.cycle, "phase": "admit", "routine": "",
                "wait_kind": "event_wait", "attributed": {}}
        else:
            self._close(ctx, ev.cycle)
        ctx.update(phase="exec", routine=ev.routine, mark=ev.cycle)

    def on_walker_yield(self, ev):
        ctx = self._open.get((ev.component, ev.tag))
        if ctx is not None:
            self._close(ctx, ev.cycle, ev.action_costs)
            ctx.update(phase="wait", mark=ev.cycle,
                       wait_kind="dram_wait" if ev.fills else "event_wait")

    def on_walker_wake(self, ev):
        ctx = self._open.get((ev.component, ev.tag))
        if ctx is not None:
            self._close(ctx, ev.cycle)
            ctx.update(phase="ready", mark=ev.cycle)

    def on_walker_retire(self, ev):
        ctx = self._open.pop((ev.component, ev.tag), None)
        if ctx is None:
            return
        self._close(ctx, ev.cycle, ev.action_costs)
        attributed = sum(ctx["attributed"].values())
        self.contexts_retired += 1
        self.cycles_attributed += attributed
        if attributed != ev.lifetime:
            self.mismatches.append(
                (ev.component, ev.tag, attributed, ev.lifetime))
        for (routine, kind), cycles in ctx["attributed"].items():
            key = (ev.component, routine, kind)
            self.stacks[key] = self.stacks.get(key, 0) + cycles

    @staticmethod
    def _close(ctx, cycle, costs=()):
        duration = cycle - ctx["mark"]
        if duration <= 0:
            return
        booked = ctx["attributed"]

        def book(routine, kind, cycles):
            if cycles:
                booked[(routine, kind)] = booked.get((routine, kind), 0) \
                    + cycles

        phase, routine = ctx["phase"], ctx["routine"]
        if phase == "exec":
            shares = apportion(duration, costs)
            if shares:
                for i, share in enumerate(shares):
                    book(routine, ACTION_CATEGORIES[i], share)
            else:
                book(routine, "busy", duration)
        elif phase == "wait":
            book(routine, ctx["wait_kind"], duration)
        elif phase == "ready":
            book(routine, "busy", duration)
        else:
            book(routine or "admit", "sched_wait", duration)


_costs = st.one_of(st.just(()),
                   st.tuples(*[st.integers(0, 3)] * len(ACTION_CATEGORIES)))


@st.composite
def _walk_events(draw, walk_id):
    """One walk's events in cycle order: a Miss, then dispatches, yields
    (with and without fills) and wakes in any order, often zero cycles
    apart, then usually a retire whose lifetime may disagree."""
    component = draw(st.sampled_from(("a", "b")))
    tag = (walk_id,)
    cycle = admitted = draw(st.integers(0, 20))
    events = [Miss(cycle=cycle, component=component, tag=tag, op="L",
                   walk_id=walk_id)]
    for op in draw(st.lists(st.sampled_from(("dispatch", "yield", "wake")),
                            max_size=8)):
        cycle += draw(st.integers(0, 6))
        if op == "dispatch":
            events.append(WalkerDispatch(
                cycle=cycle, component=component, tag=tag, walk_id=walk_id,
                routine=draw(st.sampled_from(("R0", "R1", "R2")))))
        elif op == "yield":
            events.append(WalkerYield(
                cycle=cycle, component=component, tag=tag, walk_id=walk_id,
                action_costs=draw(_costs), fills=draw(st.integers(0, 2))))
        else:
            events.append(WalkerWake(cycle=cycle, component=component,
                                     tag=tag, walk_id=walk_id))
    if draw(st.integers(0, 4)):
        cycle += draw(st.integers(0, 6))
        skew = draw(st.sampled_from((0, 0, 0, -2, 1, 5)))
        events.append(WalkerRetire(
            cycle=cycle, component=component, tag=tag, walk_id=walk_id,
            found=True, lifetime=cycle - admitted + skew,
            action_costs=draw(_costs)))
    return events


@st.composite
def _interleaved_walks(draw):
    walks = [draw(_walk_events(walk_id))
             for walk_id in range(1, draw(st.integers(1, 4)) + 1)]
    order = draw(st.permutations(
        [i for i, events in enumerate(walks) for _ in events]))
    cursors = [iter(events) for events in walks]
    return [next(cursors[i]) for i in order]


@settings(max_examples=400, derandomize=True, database=None,
          deadline=None)
@given(_interleaved_walks())
def test_fold_matches_the_replaced_phase_machine(stream):
    bus, _asm, prof = _profiled_bus()
    ref = bus.attach(_ReferenceProfile())
    for ev in stream:
        bus.publish(ev)
    assert list(prof.stacks.items()) == list(ref.stacks.items())
    assert prof.contexts_retired == ref.contexts_retired
    assert prof.cycles_attributed == ref.cycles_attributed
    assert prof.mismatches == ref.mismatches
