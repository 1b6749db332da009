"""X-Cache core: meta-tags, microcoded walkers, the programmable controller.

The paper's three ideas map to:

* meta-tags            → :mod:`repro.core.metatag`
* X-Actions (microcode) → :mod:`repro.core.isa`, :mod:`repro.core.actions`
* X-Routines (coroutine walkers) → :mod:`repro.core.walker`,
  :mod:`repro.core.controller`
"""

from .config import TABLE3, XCacheConfig, table3_config
from .isa import IMM, MSG, Action, ActionCategory, Opcode, Operand, R
from .messages import (
    DEFAULT_STATE,
    EV_FILL,
    EV_META_LOAD,
    EV_META_STORE,
    VALID_STATE,
    Message,
)
from .metatag import MetaTagArray, MetaTagEntry
from .dataram import DataRAM
from .xregs import XContext, XRegisterFile
from .microcode import MicrocodeError, MicrocodeRAM, Routine, RoutineTable
from .walker import CompiledWalker, Transition, WalkerSpec, compile_walker, op
from .controller import Controller, MetaResponse, WalkerRun
from .disasm import ProgramStats, disassemble, program_stats
from .lint import LintFinding, check_context, lint_walker, max_register
from .xcache import XCacheSystem
from .threadctrl import ThreadController, WalkStep
from .energy import EnergyBreakdown, EnergyModel, EnergyParams
from .area import ASIC_REFERENCE, FPGA_REFERENCE, AreaReport, SynthesisModel
from .hierarchy import CacheBackedMemory, MetaL1, StreamBuffer

__all__ = [
    "XCacheConfig", "TABLE3", "table3_config",
    "Action", "ActionCategory", "Opcode", "Operand", "R", "IMM", "MSG",
    "Message", "EV_META_LOAD", "EV_META_STORE", "EV_FILL",
    "DEFAULT_STATE", "VALID_STATE",
    "MetaTagArray", "MetaTagEntry", "DataRAM", "XContext", "XRegisterFile",
    "Routine", "RoutineTable", "MicrocodeRAM", "MicrocodeError",
    "WalkerSpec", "Transition", "CompiledWalker", "compile_walker", "op",
    "Controller", "MetaResponse", "WalkerRun", "XCacheSystem",
    "disassemble", "program_stats", "ProgramStats",
    "lint_walker", "check_context", "max_register",
    "LintFinding",
    "ThreadController", "WalkStep",
    "EnergyModel", "EnergyParams", "EnergyBreakdown",
    "SynthesisModel", "AreaReport", "FPGA_REFERENCE", "ASIC_REFERENCE",
    "CacheBackedMemory", "MetaL1", "StreamBuffer",
]
