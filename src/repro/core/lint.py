"""Static analysis for walker programs (a microcode linter).

The paper's toolflow compiles coroutine tables to microcode; this is
the companion the RTL flow would run before generation: catch the bugs
that otherwise surface as mid-simulation ActionErrors or wedged
walkers.

Checks:

* **read-before-write** — an X-register read in the *entry* routine
  before any action could have written it (registers are
  zero-initialized, so this is a warning: usually a forgotten ``mov``;
  later routines legitimately read registers earlier routines wrote).
* **unreachable-action** — actions no control-flow path reaches.
* **unreachable-transition** — a routine whose state is never produced
  by any other routine's STATE action (and is not the Default entry).
* **missing-transition** — a STATE action names a state for which some
  *plausible* event has no routine: a Fill can arrive for any state a
  walker waits in after issuing a DRAM request.
* **context-overflow** — a register index beyond ``xregs_per_walker``
  for a given configuration (checked via :func:`check_context`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .config import XCacheConfig
from .isa import Action, Opcode
from .messages import DEFAULT_STATE, EV_FILL
from .walker import CompiledWalker

__all__ = ["LintFinding", "lint_walker", "check_context", "max_register"]


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic."""

    severity: str            # "warning" | "error"
    check: str               # slug, e.g. "read-before-write"
    routine: str             # "state@event"
    action_index: int        # -1 when the finding is routine-level
    message: str

    def render(self) -> str:
        where = (f"{self.routine}[{self.action_index}]"
                 if self.action_index >= 0 else self.routine)
        return f"{self.severity}: {self.check} at {where}: {self.message}"


def _reads(action: Action) -> Set[int]:
    regs: Set[int] = set()
    for operand in (action.a, action.b):
        if operand is not None and operand.kind == "r":
            regs.add(int(operand.value))
    for key, fields in action.attrs:
        if key in ("fields", "hash_fields"):
            for _name, operand in fields:
                if operand.kind == "r":
                    regs.add(int(operand.value))
    # INC/DEC read their destination
    if action.op in (Opcode.INC, Opcode.DEC) and action.dst is not None \
            and action.dst.kind == "r":
        regs.add(int(action.dst.value))
    return regs


def _writes(action: Action) -> Set[int]:
    if action.dst is not None and action.dst.kind == "r":
        return {int(action.dst.value)}
    return set()


def max_register(program: CompiledWalker) -> int:
    """Highest X-register index the program touches (-1 if none)."""
    highest = -1
    for routine in program.ram.routines:
        for action in routine.actions:
            for reg in _reads(action) | _writes(action):
                highest = max(highest, reg)
    return highest


def check_context(program: CompiledWalker,
                  config: XCacheConfig) -> List[LintFinding]:
    """Flag register indices beyond the configuration's context size."""
    findings: List[LintFinding] = []
    limit = config.xregs_per_walker
    for routine in program.ram.routines:
        for i, action in enumerate(routine.actions):
            over = {r for r in _reads(action) | _writes(action) if r >= limit}
            if over:
                findings.append(LintFinding(
                    "error", "context-overflow", routine.name, i,
                    f"R{max(over)} >= xregs_per_walker ({limit})"))
    return findings


def _reachable_indices(routine) -> Set[int]:
    seen: Set[int] = set()
    stack = [0]
    n = len(routine.actions)
    while stack:
        pc = stack.pop()
        if pc >= n or pc in seen:
            continue
        seen.add(pc)
        action = routine.actions[pc]
        if action.op in (Opcode.STATE,) and action.attr("done", False):
            continue
        if action.op is Opcode.DEALLOCM:
            continue
        if action.target is not None:
            stack.append(action.target)
            # unconditional jump (beq imm,imm with equal values)?
            if action.op is Opcode.BEQ and action.a == action.b \
                    and action.a is not None and action.a.kind == "imm":
                continue
        stack.append(pc + 1)
    return seen


def lint_walker(program: CompiledWalker,
                config: Optional[XCacheConfig] = None) -> List[LintFinding]:
    """Run every check; returns findings sorted errors-first."""
    findings: List[LintFinding] = []

    produced_states: Set[str] = {DEFAULT_STATE}
    issues_fill: Dict[str, bool] = {}
    for routine in program.ram.routines:
        for action in routine.actions:
            if action.op is Opcode.STATE:
                produced_states.add(str(action.attr("state")))
        issues_fill[routine.name] = any(
            a.op is Opcode.ENQ and a.queue == "dram"
            and not a.attr("write", False)
            for a in routine.actions
        )

    for (state, event), routine in program.table.items():
        reachable = _reachable_indices(routine)

        # unreachable actions
        for i in range(len(routine.actions)):
            if i not in reachable:
                findings.append(LintFinding(
                    "warning", "unreachable-action", routine.name, i,
                    f"{routine.actions[i].op.value} is never executed"))

        # unreachable transition
        if state not in produced_states:
            findings.append(LintFinding(
                "warning", "unreachable-transition", routine.name, -1,
                f"no routine transitions into state {state!r}"))

        # read-before-write over the branch-insensitive order of
        # reachable actions; entry routines only (see module docstring)
        written: Set[int] = set()
        for i in sorted(reachable):
            action = routine.actions[i]
            if state == DEFAULT_STATE:
                for reg in _reads(action):
                    if reg not in written:
                        findings.append(LintFinding(
                            "warning", "read-before-write", routine.name, i,
                            f"R{reg} read before any write in the entry "
                            "routine"))
            written |= _writes(action)

        # missing Fill transition: a routine that issues a read fill must
        # leave the walker in a state that handles Fill
        if issues_fill[routine.name]:
            next_states = {str(a.attr("state"))
                           for a in routine.actions
                           if a.op is Opcode.STATE
                           and not a.attr("done", False)}
            for nxt in next_states:
                if not program.table.handles(nxt, EV_FILL):
                    findings.append(LintFinding(
                        "error", "missing-transition", routine.name, -1,
                        f"issues a DRAM fill but state {nxt!r} has no "
                        f"[{nxt}, Fill] routine"))

    if config is not None:
        findings.extend(check_context(program, config))

    findings.sort(key=lambda f: (f.severity != "error", f.routine,
                                 f.action_index))
    return findings
