"""Banked DRAM timing model (the reproduction's DRAMsim2 stand-in).

The model captures the first-order behaviour the paper's results depend
on: row-buffer locality, bank-level parallelism, and a shared data bus
that bounds bandwidth. Requests are block-granular (one cache line). A
request's service time is::

    wait-for-bank  +  (row hit ? tCL : tRP + tRCD + tCL)  +  burst

and the burst additionally serializes on the channel data bus.

Data is *functionally* backed by a :class:`~repro.mem.layout.MemoryImage`
so fills return real bytes for the walkers to parse.

The response path is allocation-free on the steady state: completed
:class:`MemResponse` objects are recycled through a small pool and are
themselves the scheduled event (no per-request completion closure).
When the observability bus is armed, the response also carries its own
``DRAMComplete`` event and publishes it right after the callback — one
kernel event per completion instead of two. Responses are therefore
*transient* — consume the fields inside the callback and copy anything
you need to retain (``data`` is an ordinary bytes object and is always
safe to keep).

Bank state is struct-of-arrays (``_bank_open_row`` / ``_bank_free_at``
indexed by bank number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs.events import DRAMComplete, DRAMIssue
from ..sim import Component, Simulator
from .layout import MemoryImage

__all__ = ["DRAMConfig", "MemRequest", "MemResponse", "DRAMModel"]

_RESP_POOL_MAX = 128


@dataclass(frozen=True)
class DRAMConfig:
    """Timing/geometry knobs (defaults ~ DDR3-1600 at a 1 GHz DSA clock)."""

    num_banks: int = 8
    row_bytes: int = 2048
    block_bytes: int = 64
    t_cl: int = 11              # column access (row already open)
    t_rcd: int = 11             # activate
    t_rp: int = 11              # precharge
    burst_cycles: int = 4       # data-bus occupancy per block
    queue_depth: int = 32       # per-bank request queue

    def __post_init__(self) -> None:
        if self.num_banks & (self.num_banks - 1):
            raise ValueError("num_banks must be a power of two")
        if self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a power of two")
        if self.row_bytes % self.block_bytes:
            raise ValueError("row_bytes must be a multiple of block_bytes")


class MemRequest:
    """A block-granular DRAM request."""

    __slots__ = ("addr", "is_write", "data", "tag", "issued_at", "walk_id")

    def __init__(self, addr: int, is_write: bool = False,
                 data: Optional[bytes] = None, tag: object = None,
                 issued_at: int = 0, walk_id: int = -1) -> None:
        self.addr = addr
        self.is_write = is_write
        self.data = data          # payload for writes
        self.tag = tag            # opaque requester cookie
        self.issued_at = issued_at
        self.walk_id = walk_id    # owning walk episode (obs correlation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "write" if self.is_write else "read"
        return f"MemRequest({kind} @{self.addr:#x}, tag={self.tag!r})"


class MemResponse:
    """Completion for a :class:`MemRequest`.

    Doubles as its own completion event: the DRAM model schedules the
    response object directly and ``__call__`` fires the requester's
    callback, publishes the piggybacked ``DRAMComplete`` (when the bus
    is armed), then returns the object to the model's pool. Pool-owned
    responses are only valid for the duration of the callback.
    """

    __slots__ = ("addr", "data", "tag", "latency", "_callback", "_pool",
                 "_bus", "_complete")

    def __init__(self, addr: int, data: bytes, tag: object = None,
                 latency: int = 0) -> None:
        self.addr = addr
        self.data = data
        self.tag = tag
        self.latency = latency
        self._callback: Optional[Callable[["MemResponse"], None]] = None
        self._pool: Optional[List["MemResponse"]] = None
        self._bus = None
        self._complete: Optional[DRAMComplete] = None

    def __call__(self) -> None:
        callback = self._callback
        self._callback = None
        callback(self)
        bus = self._bus
        if bus is not None:
            # published after the callback, matching the order the old
            # separately-scheduled completion event produced
            self._bus = None
            event = self._complete
            self._complete = None
            bus.publish(event)
        pool = self._pool
        if pool is not None:
            self._pool = None
            if len(pool) < _RESP_POOL_MAX:
                self.data = b""
                self.tag = None
                pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemResponse(@{self.addr:#x}, {len(self.data)}B, "
                f"lat={self.latency})")


class DRAMModel(Component):
    """Block-granular banked DRAM with row-buffer timing.

    Requests arrive through :meth:`request` with a completion callback.
    The model computes the completion cycle analytically (no per-cycle
    ticking), which keeps simulation fast while preserving queueing,
    row-buffer, and bus-serialization effects. Bank state is
    struct-of-arrays: ``_bank_open_row[b]`` / ``_bank_free_at[b]`` are
    plain integer lists indexed by bank number.
    """

    def __init__(self, sim: Simulator, image: MemoryImage,
                 config: DRAMConfig = DRAMConfig(), name: str = "dram") -> None:
        super().__init__(sim, name)
        self.image = image
        self.config = config
        self._bank_open_row: List[int] = [-1] * config.num_banks
        self._bank_free_at: List[int] = [0] * config.num_banks
        self._bus_free_at = 0
        self._resp_pool: List[MemResponse] = []
        # every request bumps these: bound once, not probed by name
        stats = self.stats
        self._n_row_hits = stats.counter("row_hits")
        self._n_row_misses = stats.counter("row_misses")
        self._n_row_conflicts = stats.counter("row_conflicts")
        self._n_reads = stats.counter("reads")
        self._n_writes = stats.counter("writes")
        self._n_bytes = stats.counter("bytes")
        self._latency_hist = stats.histogram("latency")

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr & ~(self.config.block_bytes - 1)

    def bank_of(self, addr: int) -> int:
        # Row-interleaved banks: consecutive rows map to different banks.
        return (addr // self.config.row_bytes) & (self.config.num_banks - 1)

    def row_of(self, addr: int) -> int:
        return addr // (self.config.row_bytes * self.config.num_banks)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def request(self, req: MemRequest,
                callback: Callable[[MemResponse], None]) -> int:
        """Issue a block request; returns the completion cycle.

        ``callback`` fires at the completion cycle with the response
        (fill data for reads; echo for writes). The response object is
        recycled after the callback returns — copy fields to retain.
        """
        cfg = self.config
        block = self.block_of(req.addr)
        bank_index = self.bank_of(block)
        row = self.row_of(block)
        now = self.sim.now
        req.issued_at = now

        start = max(now, self._bank_free_at[bank_index])
        open_row = self._bank_open_row[bank_index]
        if open_row == row:
            access = cfg.t_cl
            row_stat = "row_hits"
            self._n_row_hits.value += 1
        elif open_row < 0:
            access = cfg.t_rcd + cfg.t_cl
            row_stat = "row_misses"
            self._n_row_misses.value += 1
        else:
            access = cfg.t_rp + cfg.t_rcd + cfg.t_cl
            row_stat = "row_conflicts"
            self._n_row_conflicts.value += 1
        self._bank_open_row[bank_index] = row

        data_ready = start + access
        burst_start = max(data_ready, self._bus_free_at)
        done = burst_start + cfg.burst_cycles
        # bank can pipeline next access
        self._bank_free_at[bank_index] = data_ready
        self._bus_free_at = done

        if req.is_write:
            self._n_writes.value += 1
        else:
            self._n_reads.value += 1
        self._n_bytes.value += cfg.block_bytes
        self._latency_hist.add(done - now)

        if req.is_write:
            if req.data is not None:
                self.image.write_block(block, req.data[:cfg.block_bytes])
            payload = b""
        else:
            payload = self.image.read_block(block, cfg.block_bytes)

        pool = self._resp_pool
        if pool:
            resp = pool.pop()
            resp.addr = block
            resp.data = payload
            resp.tag = req.tag
            resp.latency = done - now
        else:
            resp = MemResponse(addr=block, data=payload, tag=req.tag,
                               latency=done - now)
        resp._callback = callback
        resp._pool = pool
        bus = self.bus
        if bus is not None:
            if bus.wants(DRAMIssue):
                bus.publish(DRAMIssue(cycle=now, component=self.name,
                                      addr=block, is_write=req.is_write,
                                      bank=bank_index, row_result=row_stat,
                                      complete_at=done,
                                      nbytes=cfg.block_bytes,
                                      walk_id=req.walk_id))
            # the completion event rides on the response (published at
            # ``done``, after the callback) so stream exporters see a
            # chronological event order without a second kernel event
            if bus.wants(DRAMComplete):
                resp._bus = bus
                resp._complete = DRAMComplete(
                    cycle=done, component=self.name, addr=block,
                    latency=done - now, walk_id=req.walk_id)
        self.sim.call_at(done, resp)
        return done

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return self.stats.get("reads") + self.stats.get("writes")

    def row_hit_rate(self) -> float:
        hits = self.stats.get("row_hits")
        total = hits + self.stats.get("row_misses") + self.stats.get("row_conflicts")
        return hits / total if total else 0.0
