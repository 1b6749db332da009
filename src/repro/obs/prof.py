"""Cycle-attribution profiler (``repro.obs.prof``).

Answers the paper's central question — *where do the cycles go?* — by
attributing every simulated cycle of every walker context to a
``(DSA, routine, X-Action category | wait kind)`` triple.

The profile is a fold over the walks a
:class:`~repro.obs.spans.SpanAssembler` retires (its ``walk_sink``):
the assembler runs the one walker-phase machine, and
:meth:`CycleProfile.add` books each phase of a retired walk under the
routine in effect:

* an *exec* phase (routine in the back-end pipeline) is apportioned
  across the five X-Action categories (:data:`ACTION_CATEGORIES`)
  proportionally to the per-category #Exe costs of the ``WalkerYield``
  or ``WalkerRetire`` that closed it, using integer largest-remainder
  rounding so the shares sum *exactly* to the phase length.  A routine
  that reported no costs books the whole phase as ``busy``;
* a *wait* phase books ``dram_wait`` when the yield left DRAM fills
  outstanding and ``event_wait`` otherwise;
* a woken-but-not-redispatched interval books ``busy`` (thread walkers
  compute there);
* the time before the first dispatch books ``sched_wait`` under the
  routine name ``admit``.

Phases tile the half-open interval ``[admission, retire)`` with no
gaps and no overlaps, which yields the **conservation invariant**: per
context, attributed cycles sum exactly to the retire event's
``lifetime``.  :attr:`CycleProfile.conservation_ok` checks it for
every retired context — a mismatch means the event stream itself is
inconsistent (lost or re-ordered events), so tests assert it.

Output is a folded-stacks mapping ``component;routine;kind -> cycles``
(one line per triple in flamegraph.pl format, see
:func:`write_folded`) plus a per-DSA breakdown consumed by
``repro.harness.report.cycles_breakdown_table``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TextIO, Tuple, Union

from .events import ACTION_CATEGORIES, Tag
from .spans import WalkSpan

__all__ = [
    "CycleProfile",
    "apportion",
    "write_folded",
    "WAIT_KINDS",
]

#: Non-category cycle kinds a context can book time under.
WAIT_KINDS: Tuple[str, ...] = (
    "busy", "dram_wait", "event_wait", "sched_wait",
)

#: Column order for breakdown tables: action categories, then waits.
ALL_KINDS: Tuple[str, ...] = ACTION_CATEGORIES + WAIT_KINDS


def apportion(duration: int, costs: Sequence[int]) -> List[int]:
    """Split ``duration`` cycles across categories ∝ ``costs``.

    Integer largest-remainder rounding: shares always sum exactly to
    ``duration``; ties break on category order, so the split is
    deterministic.  An empty or all-zero cost vector returns [].
    """
    total = sum(costs)
    if duration <= 0 or total <= 0:
        return []
    shares = [duration * c // total for c in costs]
    leftover = duration - sum(shares)
    if leftover:
        remainders = sorted(
            range(len(costs)),
            key=lambda i: (-(duration * costs[i] % total), i))
        for i in remainders[:leftover]:
            shares[i] += 1
    return shares


class CycleProfile:
    """Attributes walker-context cycles to (DSA, routine, category).

    Feed it retired walks as a span assembler's ``walk_sink``::

        prof = CycleProfile()
        bus.attach(SpanAssembler(walk_sink=prof.add, max_kept=0))

    Its books are plain sums, so one profile can take the walks of
    every system an experiment builds.
    """

    def __init__(self) -> None:
        # (component, routine, kind) -> cycles, over retired contexts
        self.stacks: Dict[Tuple[str, str, str], int] = {}
        self.contexts_retired = 0
        self.cycles_attributed = 0
        # (component, tag, attributed, lifetime) for broken contexts
        self.mismatches: List[Tuple[str, Tag, int, int]] = []

    def add(self, walk: WalkSpan, lifetime: int) -> None:
        """Book one retired walk's phases; ``lifetime`` is what its
        ``WalkerRetire`` claimed."""
        stacks = self.stacks
        comp = walk.component
        attributed = 0
        for ph in walk.phases:
            cycles = ph.end - ph.start
            attributed += cycles
            routine, kind = ph.routine, ph.kind
            if kind == "exec":
                shares = apportion(cycles, ph.costs)
                if shares:
                    for cat, share in zip(ACTION_CATEGORIES, shares):
                        if share:
                            key = (comp, routine, cat)
                            stacks[key] = stacks.get(key, 0) + share
                    continue
                kind = "busy"
            elif kind == "sched_wait":
                if ph.woken:
                    kind = "busy"
                else:
                    routine = routine or "admit"
            key = (comp, routine, kind)
            stacks[key] = stacks.get(key, 0) + cycles
        self.contexts_retired += 1
        self.cycles_attributed += attributed
        if attributed != lifetime:
            self.mismatches.append((comp, walk.tag, attributed, lifetime))

    # -- invariants & reporting ----------------------------------------
    @property
    def conservation_ok(self) -> bool:
        """True iff every retired context's cycles summed exactly."""
        return not self.mismatches

    def folded_lines(self) -> List[str]:
        """``component;routine;kind cycles`` lines, sorted for diffing."""
        return [f"{comp};{routine};{kind} {cycles}"
                for (comp, routine, kind), cycles in sorted(
                    self.stacks.items())]

    def component_breakdown(self) -> Dict[str, Dict[str, int]]:
        """Per-DSA ``{kind: cycles}`` totals across all routines."""
        out: Dict[str, Dict[str, int]] = {}
        for (comp, _routine, kind), cycles in self.stacks.items():
            row = out.setdefault(comp, {})
            row[kind] = row.get(kind, 0) + cycles
        return out

    def summary(self) -> str:
        from repro.harness.report import cycles_breakdown_table

        status = ("conserved" if self.conservation_ok
                  else f"{len(self.mismatches)} MISMATCHED")
        lines = [
            "-- cycle attribution (repro.obs.prof) --",
            (f"contexts={self.contexts_retired} "
             f"cycles={self.cycles_attributed} "
             f"conservation={status}"),
        ]
        table = cycles_breakdown_table(self.component_breakdown())
        if table:
            lines.append(table)
        return "\n".join(lines)


def write_folded(target: Union[str, TextIO], prof: CycleProfile) -> int:
    """Write folded stacks (flamegraph.pl input) to a path or stream.

    Returns the number of stack lines written.  ``flamegraph.pl
    cycles.folded > cycles.svg`` renders them directly.
    """
    lines = prof.folded_lines()
    text = "".join(line + "\n" for line in lines)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines)
