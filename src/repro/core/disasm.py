"""Microcode disassembler and program statistics.

The paper ships a compiler from walker coroutine tables to microcode;
this module is the matching *inspection* tool: render a compiled walker
the way ``objdump`` renders a binary — the routine table as a
state×event grid of pointers, each routine as numbered actions — and
summarize the derived structure sizes the Chisel generator would
instantiate ("the structures implicitly scale up or down based on
walker FSM complexity", §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .isa import Action, ActionCategory, Opcode
from .microcode import ACTION_BYTES
from .walker import CompiledWalker

__all__ = ["disassemble", "ProgramStats", "program_stats"]


def _format_action(index: int, action: Action) -> str:
    parts: List[str] = [action.op.value]
    if action.dst is not None:
        parts.append(repr(action.dst))
    for operand in (action.a, action.b):
        if operand is not None:
            parts.append(repr(operand))
    if action.target is not None:
        parts.append(f"-> {action.target}")
    if action.queue is not None:
        parts.append(f"[{action.queue}]")
    for key, value in action.attrs:
        if key == "fields" and not value:
            continue
        if key == "hash_fields" and not value:
            continue
        parts.append(f"{key}={value!r}")
    return f"    {index:3d}: " + " ".join(parts)


def disassemble(program: CompiledWalker) -> str:
    """Human-readable listing of a compiled walker."""
    lines = [f"walker {program.name!r}"]
    if program.spec.description:
        lines.append(f"  ; {program.spec.description}")
    table = program.table
    lines.append(f"  routine table: {len(table.states)} states x "
                 f"{len(table.events)} events "
                 f"({table.num_entries} pointer slots, {len(table)} filled)")
    lines.append(f"  microcode RAM: {program.ram.total_actions} actions, "
                 f"{program.ram.bytes} bytes")
    for (state, event), routine in table.items():
        offset = program.ram.offset_of(routine.name)
        lines.append(f"  [{state}, {event}] @ pc={offset}:")
        for i, action in enumerate(routine.actions):
            lines.append(_format_action(i, action))
    return "\n".join(lines)


@dataclass(frozen=True)
class ProgramStats:
    """Structure sizes and action mix of a compiled walker."""

    routines: int
    states: int
    events: int
    table_entries: int
    total_actions: int
    microcode_bytes: int
    actions_by_category: Dict[str, int]
    max_routine_length: int
    branchy_routines: int      # routines containing control flow

    def render(self) -> str:
        mix = ", ".join(f"{k}={v}" for k, v in
                        sorted(self.actions_by_category.items()))
        return (f"{self.routines} routines over {self.states} states x "
                f"{self.events} events; {self.total_actions} actions "
                f"({self.microcode_bytes} B): {mix}")


def program_stats(program: CompiledWalker) -> ProgramStats:
    """Derived generator parameters for a walker program."""
    by_category: Dict[str, int] = {}
    max_len = 0
    branchy = 0
    for routine in program.ram.routines:
        max_len = max(max_len, len(routine))
        if any(a.category is ActionCategory.CONTROL for a in routine.actions):
            branchy += 1
        for action in routine.actions:
            key = action.category.value
            by_category[key] = by_category.get(key, 0) + 1
    table = program.table
    return ProgramStats(
        routines=len(program.ram),
        states=len(table.states),
        events=len(table.events),
        table_entries=table.num_entries,
        total_actions=program.ram.total_actions,
        microcode_bytes=program.ram.bytes,
        actions_by_category=by_category,
        max_routine_length=max_len,
        branchy_routines=branchy,
    )
