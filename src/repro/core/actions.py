"""Semantics of the X-Action ISA.

The :class:`ActionExecutor` interprets one microcode action at a time on
behalf of the controller's back-end pipeline. Every action is atomic and
costs one executor slot, except multi-sector/multi-block copies, which
are charged per sector/block touched ("copy the DRAM response
sector-by-sector").

The executor mutates exactly the structures the real hardware's control
signals would: the walker's X-registers, the meta-tag array, the data
RAM, and the message queues (DRAM, internal, response). It also feeds
the energy model by bumping per-category counters on the controller's
stat group.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..data.hashindex import fnv1a64
from .isa import Action, ActionCategory, Opcode, Operand
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import Controller, WalkerRun

__all__ = ["ExecResult", "ActionExecutor", "ActionError"]

_MASK64 = (1 << 64) - 1


class ActionError(RuntimeError):
    """A microcode action hit an unrecoverable condition."""


@dataclass(frozen=True)
class ExecResult:
    """Outcome of one action.

    ``branch``     — intra-routine target to jump to (None = fall through)
    ``cost``       — executor slots consumed
    ``terminated`` — the walker retired (STATE done / deallocM)
    """

    branch: Optional[int] = None
    cost: int = 1
    terminated: bool = False


# The overwhelmingly common outcome (fall through, cost 1, keep running).
# ExecResult is frozen, so every action can hand back this one instance.
_OK = ExecResult()

# The same sharing trick for the remaining outcomes: termination,
# small multi-slot costs (multi-sector copies / multi-block fills used
# to allocate a fresh ExecResult per action), and branch targets
# (bounded by routine length). Everything the executor returns in
# steady state is pooled; only a pathological >32-slot copy allocates.
_TERMINATED = ExecResult(terminated=True)
_COST_RESULTS = tuple(ExecResult(cost=c) for c in range(33))
_BRANCH_RESULTS: dict = {}


def _cost_result(cost: int) -> ExecResult:
    if cost < len(_COST_RESULTS):
        return _COST_RESULTS[cost]
    return ExecResult(cost=cost)


def _branch_result(target: int) -> ExecResult:
    result = _BRANCH_RESULTS.get(target)
    if result is None:
        result = _BRANCH_RESULTS[target] = ExecResult(branch=target)
    return result


def _shl(a: int, b: int) -> int:
    return (a << (b & 63)) & _MASK64


def _shr(a: int, b: int) -> int:
    return a >> (b & 63)


def _sra(a: int, b: int) -> int:
    b &= 63
    if a & (1 << 63):  # sign-extend
        return ((a - (1 << 64)) >> b) & _MASK64
    return a >> b

_ALU_STAT = {
    Opcode.ADD: "alu_add", Opcode.ADDI: "alu_add", Opcode.INC: "alu_add",
    Opcode.DEC: "alu_add",
    Opcode.AND: "alu_bitwise", Opcode.OR: "alu_bitwise",
    Opcode.XOR: "alu_bitwise", Opcode.NOT: "alu_bitwise",
    Opcode.SHL: "alu_shift", Opcode.SHR: "alu_shift",
    Opcode.SRA: "alu_shift", Opcode.SRL: "alu_shift",
}


class ActionExecutor:
    """Interprets actions against a controller's hardware structures.

    ``execute`` is the single hottest call in whole-model runs (one per
    microcode action), so the per-opcode work — handler lookup and the
    category/ALU counter selection — is resolved once per opcode into
    ``_dispatch`` and the energy-model counters are bumped through
    cached :class:`~repro.sim.stats.Counter` objects instead of name
    lookups.
    """

    def __init__(self, controller: "Controller") -> None:
        self.c = controller
        stats = controller.stats
        self._n_actions = stats.counter("actions_total")
        self._n_ucode = stats.counter("ucode_reads")
        self._n_xreg_reads = stats.counter("xreg_reads")
        self._n_xreg_writes = stats.counter("xreg_writes")
        self._n_branches = stats.counter("branches")
        self._n_branches_taken = stats.counter("branches_taken")
        self._n_hash_ops = stats.counter("hash_ops")
        self._n_hash_cycles = stats.counter("hash_cycles")
        # opcode -> (handler, category counter, ALU counter or None)
        self._dispatch = {}

    # ------------------------------------------------------------------
    # operand plumbing
    # ------------------------------------------------------------------
    def _resolve(self, walker: "WalkerRun", msg: Message,
                 operand: Operand) -> int:
        if operand.kind == "imm":
            return int(operand.value)
        if operand.kind == "r":
            self._n_xreg_reads.value += 1
            return walker.ctx.read(int(operand.value))
        # message field
        return msg.get(str(operand.value))

    def _write_reg(self, walker: "WalkerRun", operand: Operand,
                   value: int) -> None:
        if operand.kind != "r":
            raise ActionError(f"destination {operand!r} is not a register")
        self._n_xreg_writes.value += 1
        walker.ctx.write(int(operand.value), value & _MASK64)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def execute(self, walker: "WalkerRun", action: Action,
                msg: Message) -> ExecResult:
        op = action.op
        entry = self._dispatch.get(op)
        if entry is None:
            handler = getattr(self, f"_op_{op.name.lower()}", None)
            if handler is None:
                raise ActionError(f"no semantics for {op}")
            category = self.c.stats.counter(f"act_{action.category.value}")
            alu_stat = _ALU_STAT.get(op)
            alu = self.c.stats.counter(alu_stat) if alu_stat else None
            entry = self._dispatch[op] = (handler, category, alu)
        handler, category, alu = entry
        self._n_actions.value += 1
        self._n_ucode.value += 1
        category.value += 1
        if alu is not None:
            alu.value += 1
        return handler(walker, action, msg)

    # ------------------------------------------------------------------
    # AGEN
    # ------------------------------------------------------------------
    def _binary(self, walker, action, msg, fn) -> ExecResult:
        a = self._resolve(walker, msg, action.a)
        b = self._resolve(walker, msg, action.b)
        self._write_reg(walker, action.dst, fn(a, b))
        return _OK

    def _op_add(self, walker, action, msg):
        return self._binary(walker, action, msg, operator.add)

    def _op_and(self, walker, action, msg):
        return self._binary(walker, action, msg, operator.and_)

    def _op_or(self, walker, action, msg):
        return self._binary(walker, action, msg, operator.or_)

    def _op_xor(self, walker, action, msg):
        return self._binary(walker, action, msg, operator.xor)

    def _op_addi(self, walker, action, msg):
        return self._binary(walker, action, msg, operator.add)

    def _op_inc(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        self._write_reg(walker, action.dst, a + 1)
        return _OK

    def _op_dec(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        self._write_reg(walker, action.dst, a - 1)
        return _OK

    def _op_shl(self, walker, action, msg):
        return self._binary(walker, action, msg, _shl)

    def _op_shr(self, walker, action, msg):
        return self._binary(walker, action, msg, _shr)

    def _op_srl(self, walker, action, msg):
        return self._binary(walker, action, msg, _shr)

    def _op_sra(self, walker, action, msg):
        return self._binary(walker, action, msg, _sra)

    def _op_not(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        self._write_reg(walker, action.dst, (~a) & _MASK64)
        return _OK

    def _op_allocr(self, walker, action, msg):
        # Context registers are physically claimed at walker admission;
        # the action remains for ISA fidelity (and energy accounting).
        return _OK

    # ------------------------------------------------------------------
    # queues
    # ------------------------------------------------------------------
    def _op_enq(self, walker, action, msg) -> ExecResult:
        if action.queue == "dram":
            addr = self._resolve(walker, msg, action.a)
            ranged = action.b is not None
            # Default: fetch just the block containing addr.
            nbytes = self._resolve(walker, msg, action.b) if ranged else 1
            write = bool(action.attr("write", False))
            blocks = self.c.issue_fills(walker, addr, nbytes, write,
                                        ranged=ranged)
            return _cost_result(max(1, blocks))
        if action.queue == "self":
            event = str(action.attr("event"))
            delay = int(action.attr("delay", 1))
            fields = {
                name: self._resolve(walker, msg, operand)
                for name, operand in action.attr("fields", ())
            }
            for name, operand in action.attr("hash_fields", ()):
                fields[name] = fnv1a64(self._resolve(walker, msg, operand))
                self._n_hash_ops.value += 1
                self._n_hash_cycles.value += delay
            self.c.raise_internal(walker, event, fields, delay)
            return _OK
        if action.queue == "resp":
            fields = {
                name: self._resolve(walker, msg, operand)
                for name, operand in action.attr("fields", ())
            }
            self.c.walker_respond(walker, fields)
            return _OK
        raise ActionError(f"enq to unknown queue {action.queue!r}")

    def _op_deq(self, walker, action, msg):
        # The front-end consumed the triggering message at dispatch.
        return _OK

    def _op_peek(self, walker, action, msg) -> ExecResult:
        offset = self._resolve(walker, msg, action.a)
        width = int(action.attr("width", 8))
        if offset + width > len(msg.data):
            raise ActionError(
                f"peek {width}B at offset {offset} beyond {len(msg.data)}B "
                f"payload of {msg.event!r}"
            )
        value = int.from_bytes(msg.data[offset:offset + width], "little")
        self._write_reg(walker, action.dst, value)
        return _OK

    def _op_read_data(self, walker, action, msg) -> ExecResult:
        sector = self._resolve(walker, msg, action.a)
        width = int(action.attr("width", 8))
        raw = self.c.dataram.read_sectors(sector, sector + 1)
        value = int.from_bytes(raw[:width], "little")
        self._write_reg(walker, action.dst, value)
        return _OK

    def _op_write_data(self, walker, action, msg) -> ExecResult:
        sector = self._resolve(walker, msg, action.a)
        value = self._resolve(walker, msg, action.b)
        width = int(action.attr("width", 8))
        self.c.dataram.write_sector(sector, value.to_bytes(8, "little")[:width])
        return _OK

    # ------------------------------------------------------------------
    # meta-tags
    # ------------------------------------------------------------------
    def _op_allocm(self, walker, action, msg) -> ExecResult:
        entry = self.c.metatags.allocate(walker.tag, self.c.sim.now)
        if entry is None:
            raise ActionError(
                f"allocM structural hazard for tag {walker.tag}: the "
                "front-end must not dispatch when no way is claimable"
            )
        if entry.sector_start >= 0:
            # Recycled entry that still owned sectors (evicted victim).
            self.c.dataram.free(entry.sector_start,
                                entry.sector_end - entry.sector_start)
            entry.sector_start = entry.sector_end = -1
        self.c.metatags.mark_active(entry)
        entry.ctx_id = walker.ctx.ctx_id
        walker.entry = entry
        self.c.note_allocm(walker)
        return _OK

    def _op_deallocm(self, walker, action, msg) -> ExecResult:
        if walker.entry is not None and walker.entry.tag == walker.tag:
            released = self.c.metatags.deallocate(walker.tag)
            if released.sector_start >= 0:
                self.c.dataram.free(
                    released.sector_start,
                    released.sector_end - released.sector_start,
                )
            walker.entry = None
        walker.found = False
        return _TERMINATED

    def _op_update(self, walker, action, msg) -> ExecResult:
        if walker.entry is None:
            raise ActionError("update before allocM")
        value = self._resolve(walker, msg, action.a)
        what = str(action.attr("what"))
        if what == "sector_start":
            walker.entry.sector_start = value
        elif what == "sector_end":
            walker.entry.sector_end = value
        else:
            raise ActionError(f"update target {what!r}")
        return _OK

    def _op_state(self, walker, action, msg) -> ExecResult:
        next_state = str(action.attr("state"))
        walker.state = next_state
        if walker.entry is not None:
            walker.entry.state = next_state
        done = bool(action.attr("done", False))
        if done:
            walker.found = True
            return _TERMINATED
        return _OK

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    def _branch(self, action, taken: bool) -> ExecResult:
        self._n_branches.value += 1
        if taken:
            self._n_branches_taken.value += 1
            return _branch_result(action.target)
        return _OK

    def _op_beq(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        b = self._resolve(walker, msg, action.b)
        return self._branch(action, a == b)

    def _op_bnz(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        return self._branch(action, a != 0)

    def _op_blt(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        b = self._resolve(walker, msg, action.b)
        return self._branch(action, a < b)

    def _op_bge(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        b = self._resolve(walker, msg, action.b)
        return self._branch(action, a >= b)

    def _op_ble(self, walker, action, msg):
        a = self._resolve(walker, msg, action.a)
        b = self._resolve(walker, msg, action.b)
        return self._branch(action, a <= b)

    def _op_bmiss(self, walker, action, msg):
        field = self._resolve(walker, msg, action.a)
        hit = self.c.metatags.lookup((field,)) is not None
        return self._branch(action, not hit)

    def _op_bhit(self, walker, action, msg):
        field = self._resolve(walker, msg, action.a)
        hit = self.c.metatags.lookup((field,)) is not None
        return self._branch(action, hit)

    # ------------------------------------------------------------------
    # data RAM
    # ------------------------------------------------------------------
    def _op_allocd(self, walker, action, msg) -> ExecResult:
        nsectors = self._resolve(walker, msg, action.a)
        start = self.c.dataram.alloc(nsectors)
        if start is None:
            self.c.reclaim_sectors(nsectors)
            start = self.c.dataram.alloc(nsectors)
        if start is None:
            raise ActionError(
                f"data RAM cannot supply {nsectors} sectors even after "
                "reclaim; X-Cache is undersized for this walker"
            )
        self._write_reg(walker, action.dst, start)
        walker.owned_sectors.append((start, nsectors))
        return _OK

    def _op_deallocd(self, walker, action, msg) -> ExecResult:
        start = self._resolve(walker, msg, action.a)
        nsectors = self._resolve(walker, msg, action.b)
        self.c.dataram.free(start, nsectors)
        walker.owned_sectors = [
            (s, n) for s, n in walker.owned_sectors if s != start
        ]
        return _OK

    def _op_read(self, walker, action, msg) -> ExecResult:
        return self._op_read_data(walker, action, msg)

    def _op_write(self, walker, action, msg) -> ExecResult:
        sector = self._resolve(walker, msg, action.a)
        nbytes = int(action.attr("nbytes", 8))
        sector_bytes = self.c.dataram.sector_bytes
        if action.attr("from_msg", False):
            # Copy up to nbytes of the fill payload (ranged fills deliver
            # only the requested slice of the final block).
            offset = self._resolve(walker, msg, action.b)
            payload = msg.data[offset:offset + nbytes]
            if not payload:
                raise ActionError(
                    f"write from msg offset {offset}: no payload available"
                )
        else:
            value = self._resolve(walker, msg, action.b)
            payload = value.to_bytes(8, "little")[:nbytes]
        # Copy sector-by-sector through the banked crossbar: the data RAM
        # accepts #wlen words (sectors) per executor slot.
        sectors = 0
        pos = 0
        while pos < len(payload):
            chunk = payload[pos:pos + sector_bytes]
            self.c.dataram.write_sector(sector + pos // sector_bytes, chunk)
            pos += sector_bytes
            sectors += 1
        wlen = max(1, self.c.config.wlen)
        return _cost_result(max(1, (sectors + wlen - 1) // wlen))
