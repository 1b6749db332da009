"""Routines, the routine table, and the microcode RAM.

"X-Cache compiles the actual procedures implementing the walking and
orchestration down to a microcode binary and stores it in the routine
µ-code RAM. The RAM is partitioned into multiple routine handlers."
(§4.1 y4)

A :class:`Routine` is a straight-line sequence of actions with
intra-routine branches; it runs non-blocking to completion once
triggered. The :class:`RoutineTable` is the two-dimensional
``[state, event] → routine`` dispatch array; :class:`MicrocodeRAM`
aggregates all routines and reports the derived structure sizes the
generator uses ("the structures implicitly scale up or down based on
walker FSM complexity", §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .isa import Action, Opcode

__all__ = ["Routine", "RoutineTable", "MicrocodeRAM", "MicrocodeError"]

ACTION_BYTES = 4  # encoded microcode word size (energy/area accounting)


class MicrocodeError(ValueError):
    """Malformed routine or routine table."""


@dataclass(frozen=True)
class Routine:
    """A compiled handler: runs start-to-finish, never blocks."""

    name: str
    actions: Tuple[Action, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise MicrocodeError(f"routine {self.name!r} is empty")
        for i, action in enumerate(self.actions):
            if action.target is not None:
                if not 0 <= action.target <= len(self.actions):
                    raise MicrocodeError(
                        f"routine {self.name!r} action {i} branches to "
                        f"{action.target}, outside [0, {len(self.actions)}]"
                    )
        self._validate_termination()

    def _validate_termination(self) -> None:
        """Every path must execute a STATE or DEALLOCM before ending.

        A walker that runs off the end of a routine without updating its
        state would wedge (no event will ever re-wake it in a consistent
        state); the compiler rejects such programs, mirroring the paper's
        "finalized with an update to the state".
        """
        n = len(self.actions)
        terminal = {Opcode.STATE, Opcode.DEALLOCM}
        # DFS over (pc, updated) with cycle guard.
        seen: Set[Tuple[int, bool]] = set()
        stack: List[Tuple[int, bool]] = [(0, False)]
        while stack:
            pc, updated = stack.pop()
            if pc >= n:
                if not updated:
                    raise MicrocodeError(
                        f"routine {self.name!r} has a path that ends "
                        "without a state update (STATE/deallocM)"
                    )
                continue
            if (pc, updated) in seen:
                continue
            seen.add((pc, updated))
            action = self.actions[pc]
            now_updated = updated or action.op in terminal
            stack.append((pc + 1, now_updated))
            if action.target is not None:
                stack.append((action.target, now_updated))

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def bytes(self) -> int:
        return len(self.actions) * ACTION_BYTES


class RoutineTable:
    """The [state × event] dispatch array."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str], Routine] = {}
        self.states: List[str] = []
        self.events: List[str] = []

    def install(self, state: str, event: str, routine: Routine) -> None:
        key = (state, event)
        if key in self._table:
            raise MicrocodeError(
                f"duplicate routine for [state={state!r}, event={event!r}]"
            )
        self._table[key] = routine
        if state not in self.states:
            self.states.append(state)
        if event not in self.events:
            self.events.append(event)

    def lookup(self, state: str, event: str) -> Optional[Routine]:
        return self._table.get((state, event))

    def require(self, state: str, event: str) -> Routine:
        routine = self._table.get((state, event))
        if routine is None:
            raise MicrocodeError(
                f"no routine for [state={state!r}, event={event!r}]; "
                f"states={self.states}, events={self.events}"
            )
        return routine

    def handles(self, state: str, event: str) -> bool:
        return (state, event) in self._table

    @property
    def num_entries(self) -> int:
        """Physical table size: |states| × |events| pointer slots."""
        return len(self.states) * len(self.events)

    def items(self):
        return sorted(self._table.items())

    def __len__(self) -> int:
        return len(self._table)


class MicrocodeRAM:
    """All routines of one walker program, with derived sizes."""

    def __init__(self, routines: Sequence[Routine]) -> None:
        names = [r.name for r in routines]
        if len(set(names)) != len(names):
            raise MicrocodeError(f"duplicate routine names in {names}")
        self.routines: Tuple[Routine, ...] = tuple(routines)
        self._offsets: Dict[str, int] = {}
        offset = 0
        for routine in self.routines:
            self._offsets[routine.name] = offset
            offset += len(routine)
        self.total_actions = offset

    def offset_of(self, name: str) -> int:
        """The routine's logical "PC" in the microcode RAM."""
        return self._offsets[name]

    @property
    def bytes(self) -> int:
        return self.total_actions * ACTION_BYTES

    def __len__(self) -> int:
        return len(self.routines)
