"""The X-Action microcode ISA.

Figure 8 of the paper lists five categories of 1-cycle atomic actions,
each steering one hardware module:

=========  ==========================================================
AGEN       add, and, or, xor, addi, inc, dec, shl, shr, sra, srl, not,
           allocR
Queues     enq, deq, read-data, write-data, peek
Meta-tags  allocM, deallocM, update, state
Control    bmiss, bhit, beq, bnz, blt, bge, ble
DataRAM    allocD, deallocD, read, write
=========  ==========================================================

Operands can be explicit (immediates), implicit (the DRAM queue), or
DSA-specific (message fields). This module defines the opcode space and
the operand encoding; :mod:`repro.core.actions` gives them semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "ActionCategory",
    "Opcode",
    "Operand",
    "R",
    "IMM",
    "MSG",
    "Action",
    "OPCODE_CATEGORY",
]


class ActionCategory(enum.Enum):
    """Which hardware module an action drives (energy/area accounting)."""

    AGEN = "agen"
    QUEUE = "queue"
    META = "meta"
    CONTROL = "control"
    DATA = "data"


class Opcode(enum.Enum):
    # AGEN (address generation / ALU)
    ADD = "add"
    AND = "and"
    OR = "or"
    XOR = "xor"
    ADDI = "addi"
    INC = "inc"
    DEC = "dec"
    SHL = "shl"
    SHR = "shr"
    SRA = "sra"
    SRL = "srl"
    NOT = "not"
    ALLOCR = "allocR"
    # message queues
    ENQ = "enq"
    DEQ = "deq"
    READ_DATA = "read-data"
    WRITE_DATA = "write-data"
    PEEK = "peek"
    # meta-tags
    ALLOCM = "allocM"
    DEALLOCM = "deallocM"
    UPDATE = "update"
    STATE = "state"
    # control flow
    BMISS = "bmiss"
    BHIT = "bhit"
    BEQ = "beq"
    BNZ = "bnz"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    # data RAM
    ALLOCD = "allocD"
    DEALLOCD = "deallocD"
    READ = "read"
    WRITE = "write"


OPCODE_CATEGORY: Dict[Opcode, ActionCategory] = {
    Opcode.ADD: ActionCategory.AGEN,
    Opcode.AND: ActionCategory.AGEN,
    Opcode.OR: ActionCategory.AGEN,
    Opcode.XOR: ActionCategory.AGEN,
    Opcode.ADDI: ActionCategory.AGEN,
    Opcode.INC: ActionCategory.AGEN,
    Opcode.DEC: ActionCategory.AGEN,
    Opcode.SHL: ActionCategory.AGEN,
    Opcode.SHR: ActionCategory.AGEN,
    Opcode.SRA: ActionCategory.AGEN,
    Opcode.SRL: ActionCategory.AGEN,
    Opcode.NOT: ActionCategory.AGEN,
    Opcode.ALLOCR: ActionCategory.AGEN,
    Opcode.ENQ: ActionCategory.QUEUE,
    Opcode.DEQ: ActionCategory.QUEUE,
    Opcode.READ_DATA: ActionCategory.QUEUE,
    Opcode.WRITE_DATA: ActionCategory.QUEUE,
    Opcode.PEEK: ActionCategory.QUEUE,
    Opcode.ALLOCM: ActionCategory.META,
    Opcode.DEALLOCM: ActionCategory.META,
    Opcode.UPDATE: ActionCategory.META,
    Opcode.STATE: ActionCategory.META,
    Opcode.BMISS: ActionCategory.CONTROL,
    Opcode.BHIT: ActionCategory.CONTROL,
    Opcode.BEQ: ActionCategory.CONTROL,
    Opcode.BNZ: ActionCategory.CONTROL,
    Opcode.BLT: ActionCategory.CONTROL,
    Opcode.BGE: ActionCategory.CONTROL,
    Opcode.BLE: ActionCategory.CONTROL,
    Opcode.ALLOCD: ActionCategory.DATA,
    Opcode.DEALLOCD: ActionCategory.DATA,
    Opcode.READ: ActionCategory.DATA,
    Opcode.WRITE: ActionCategory.DATA,
}

# declaration order matches repro.obs.events.ACTION_CATEGORIES, the
# canonical index space for per-category cost tuples
_CATEGORY_ORDER: Dict[ActionCategory, int] = {
    cat: i for i, cat in enumerate(ActionCategory)
}


@dataclass(frozen=True)
class Operand:
    """A typed microcode operand.

    ``kind`` is one of:

    * ``"r"``    — X-register index within the walker's context
    * ``"imm"``  — explicit immediate
    * ``"msg"``  — field of the message that triggered the routine
                   (a DSA-specific implicit operand)
    """

    kind: str
    value: Union[int, str]

    def __post_init__(self) -> None:
        if self.kind not in ("r", "imm", "msg"):
            raise ValueError(f"unknown operand kind {self.kind!r}")
        if self.kind == "r" and (not isinstance(self.value, int) or self.value < 0):
            raise ValueError(f"register operand needs a non-negative index")
        if self.kind == "msg" and not isinstance(self.value, str):
            raise ValueError("msg operand needs a field name")

    def __repr__(self) -> str:
        if self.kind == "r":
            return f"R{self.value}"
        if self.kind == "imm":
            return f"#{self.value}"
        return f"msg.{self.value}"


def R(index: int) -> Operand:
    """X-register operand."""
    return Operand("r", index)


def IMM(value: int) -> Operand:
    """Immediate operand."""
    return Operand("imm", value)


def MSG(name: str) -> Operand:
    """Triggering-message field operand."""
    return Operand("msg", name)


@dataclass(frozen=True)
class Action:
    """One microcode word.

    Fields are interpreted per-opcode (see :mod:`repro.core.actions`):

    * ``dst``      — destination register (AGEN results, PEEK, ALLOCD...)
    * ``a``, ``b`` — source operands
    * ``target``   — intra-routine branch target (action index)
    * ``queue``    — queue name for ENQ/DEQ (``"dram"``, ``"resp"``,
                     ``"self"``)
    * ``attrs``    — opcode-specific literal attributes (e.g. the event
                     name an internal ENQ raises, a message template).
    """

    op: Opcode
    dst: Optional[Operand] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    target: Optional[int] = None
    queue: Optional[str] = None
    attrs: Tuple[Tuple[str, object], ...] = ()
    # resolved once at construction: index into the canonical category
    # order (repro.obs.events.ACTION_CATEGORIES). The armed profiling
    # path charges ``costs[action.cat_index]`` per executed action, and
    # an enum-keyed dict lookup there costs a Python-level __hash__.
    cat_index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cat_index",
                           _CATEGORY_ORDER[OPCODE_CATEGORY[self.op]])

    @property
    def category(self) -> ActionCategory:
        return OPCODE_CATEGORY[self.op]

    def attr(self, name: str, default: object = None) -> object:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def with_target(self, target: int) -> "Action":
        return Action(self.op, self.dst, self.a, self.b, target,
                      self.queue, self.attrs)

    def __repr__(self) -> str:
        parts = [self.op.value]
        for label, val in (("dst", self.dst), ("a", self.a), ("b", self.b)):
            if val is not None:
                parts.append(f"{label}={val!r}")
        if self.target is not None:
            parts.append(f"->{self.target}")
        if self.queue is not None:
            parts.append(f"q={self.queue}")
        for key, value in self.attrs:
            parts.append(f"{key}={value!r}")
        return f"<{' '.join(parts)}>"


def make_action(op: Opcode, **kwargs) -> Action:
    """Keyword-friendly action constructor used by the walker DSL."""
    attrs = tuple(sorted(kwargs.pop("attrs", {}).items()))
    return Action(op, attrs=attrs, **kwargs)
