"""X-register contexts.

Routines "allocate temporary X-register to store the access key and the
address of the DRAM refill being waited on" (§4.2). A context is the
*only* per-walker state held across yields, which is what makes
coroutines three orders of magnitude cheaper than blocking threads in
the paper's occupancy study (Figure 7).

The file tracks an occupancy integral: Σ active-registers × bytes ×
lifetime-cycles — exactly the paper's metric — so the Figure-7
comparison is a measurement, not an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["XContext", "XRegisterFile"]

_REG_BYTES = 8


@dataclass
class XContext:
    """One walker's temporaries."""

    ctx_id: int
    regs: List[int]
    allocated_at: int = 0
    regs_touched: int = 0

    def read(self, index: int) -> int:
        if not 0 <= index < len(self.regs):
            raise IndexError(f"X-register R{index} outside context "
                             f"(size {len(self.regs)})")
        return self.regs[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < len(self.regs):
            raise IndexError(f"X-register R{index} outside context "
                             f"(size {len(self.regs)})")
        self.regs[index] = value & 0xFFFFFFFFFFFFFFFF
        if index + 1 > self.regs_touched:
            self.regs_touched = index + 1


class XRegisterFile:
    """``num_active`` contexts of ``regs_per`` 64-bit temporaries."""

    def __init__(self, num_active: int, regs_per: int) -> None:
        if num_active <= 0 or regs_per <= 0:
            raise ValueError("num_active and regs_per must be positive")
        self.num_active = num_active
        self.regs_per = regs_per
        self._free: List[int] = list(range(num_active - 1, -1, -1))
        self._live: Dict[int, XContext] = {}
        # occupancy accounting
        self.total_allocations = 0
        self.alloc_failures = 0
        self.occupancy_byte_cycles = 0
        self.resident_byte_cycles = 0
        self._last_update = 0

    # ------------------------------------------------------------------
    # occupancy integrals
    # ------------------------------------------------------------------
    # Two integrals, matching the paper's Figure-7 methodology:
    #
    # * ``occupancy_byte_cycles`` — *pipeline-active* occupancy: a
    #   coroutine holds controller resources only while its routines
    #   execute; every yield releases the pipeline. Charged per executed
    #   action slot via :meth:`charge_active`.
    # * ``resident_byte_cycles`` — context residency including dormant
    #   stalls (what a blocking thread would pin); closed at release.
    def charge_active(self, ctx: XContext, slots: int) -> None:
        self.occupancy_byte_cycles += ctx.regs_touched * _REG_BYTES * slots

    def _close(self, ctx: XContext, now: int) -> None:
        lifetime = max(0, now - ctx.allocated_at)
        self.resident_byte_cycles += ctx.regs_touched * _REG_BYTES * lifetime

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    @property
    def free_contexts(self) -> int:
        return len(self._free)

    @property
    def live_contexts(self) -> int:
        return len(self._live)

    def allocate(self, now: int) -> Optional[XContext]:
        """Admit a walker; None when all contexts are busy (back-pressure)."""
        if not self._free:
            self.alloc_failures += 1
            return None
        ctx_id = self._free.pop()
        ctx = XContext(ctx_id, [0] * self.regs_per, allocated_at=now)
        self._live[ctx_id] = ctx
        self.total_allocations += 1
        return ctx

    def release(self, ctx: XContext, now: int) -> None:
        if ctx.ctx_id not in self._live:
            raise KeyError(f"context {ctx.ctx_id} not live")
        self._close(ctx, now)
        del self._live[ctx.ctx_id]
        self._free.append(ctx.ctx_id)

    def finalize(self, now: int) -> None:
        """Close the occupancy integral at end of simulation."""
        for ctx in self._live.values():
            self._close(ctx, now)
        self._last_update = now

    def __repr__(self) -> str:  # pragma: no cover
        return (f"XRegisterFile(live={self.live_contexts}/"
                f"{self.num_active}, regs_per={self.regs_per})")
