"""SpArch and Gamma: sparse GEMM accelerators sharing one X-Cache.

Both DSAs multiply A×B with B in CSR and need rows of B on demand:

* **SpArch** (outer product) streams A in CSC; column k of A pairs with
  row k of B, so row k is reused once per nonzero of column k, and a
  decoupled preloader runs ahead caching upcoming rows (Figure 10b).
* **Gamma** (Gustavson) consumes A row-wise; row i of A needs row k of B
  for every nonzero A[i,k]. Reuse is dynamic and input-dependent —
  whenever later rows of A reference the same k.

The paper's point: both use the *same* X-Cache microarchitecture and
meta-tag (B's row id); only the controller program — here literally the
same :func:`~repro.dsa.walkers.build_row_walker` binary — is shared,
while the datapath's access order differs.

Variants:

* :class:`SpGEMMXCacheModel` (``algorithm="outer"|"gustavson"``) —
  meta-tagged row cache with preloading. ``ideal=True`` approximates the
  hardwired baseline (the DSA's custom row RAM; the paper finds X-Cache
  competitive).
* :class:`SpGEMMAddressModel` — address-tagged comparator: every element
  access must read ``row_ptr[k]`` (translate) before touching the row's
  blocks, even when the row's data is already cached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.config import XCacheConfig, table3_config
from ..core.controller import MetaResponse
from ..core.energy import EnergyModel
from ..core.xcache import XCacheSystem
from ..data.csr import CSRLayout, SparseMatrix, spgemm_gustavson
from ..mem.addrcache import AddressCache, CacheConfig
from ..mem.dram import DRAMConfig, DRAMModel
from ..mem.layout import MemoryImage
from ..sim import Simulator
from .base import RunResult
from .walkers import build_row_walker
from .widx import matched_cache_config

__all__ = ["SpGEMMXCacheModel", "SpGEMMAddressModel", "element_trace"]


def element_trace(a: SparseMatrix,
                  algorithm: str,
                  b: Optional[SparseMatrix] = None
                  ) -> List[Tuple[int, int, float]]:
    """The (k, i, a_val) access sequence the datapath generates.

    ``k`` is the cached B structure needed (a row for outer/Gustavson, a
    *column* for inner product), ``i`` the output row. Outer product
    iterates A's columns (CSC); Gustavson iterates A's rows; inner
    product (the paper's Figure-2 DSA) visits every candidate (i, j)
    output and intersects row i of A with column j of B — ``b`` is
    required to enumerate its nonempty columns.
    """
    trace: List[Tuple[int, int, float]] = []
    if algorithm == "outer":
        at = a.transpose()
        for k in range(at.rows):
            rows, vals = at.row(k)
            for i, v in zip(rows, vals):
                trace.append((k, i, v))
    elif algorithm == "gustavson":
        for i in range(a.rows):
            cols, vals = a.row(i)
            for k, v in zip(cols, vals):
                trace.append((k, i, v))
    elif algorithm == "inner":
        if b is None:
            raise ValueError("inner product needs B to enumerate columns")
        bt = b.transpose()
        nonempty_cols = [j for j in range(bt.rows) if bt.row_nnz(j)]
        for i in range(a.rows):
            if not a.row_nnz(i):
                continue
            for j in nonempty_cols:
                trace.append((j, i, 0.0))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return trace


def _matches_reference(a: SparseMatrix, b: SparseMatrix,
                       rows: Dict[int, Dict[int, float]]) -> bool:
    """Whether ``rows`` (``{i: {j: c_ij}}``) is the product A×B.

    The entries must be exactly the Gustavson reference's nonzeros, and
    each value within ``1e-6 * (1 + |ref|)`` of the reference's. Equal
    counts plus every reference entry present make the key sets equal.
    """
    ref = spgemm_gustavson(a, b)
    if sum(map(len, rows.values())) != ref.nnz:
        return False
    for i in range(ref.rows):
        cols, vals = ref.row(i)
        if not cols:
            continue
        got = rows.get(i, {})
        for j, want in zip(cols, vals):
            have = got.get(j)
            if have is None or not abs(want - have) < 1e-6 * (1 + abs(want)):
                return False
    return True


class SpGEMMXCacheModel:
    """SpArch/Gamma datapath over the shared row-walker X-Cache."""

    def __init__(self, a: SparseMatrix, b: SparseMatrix,
                 algorithm: str = "outer",
                 config: Optional[XCacheConfig] = None,
                 lookahead: int = 32, window: int = 16,
                 ideal: bool = False,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        if a.cols != b.rows:
            raise ValueError(f"shape mismatch {a.cols} != {b.rows}")
        self.a = a
        self.b = b
        self.algorithm = algorithm
        if algorithm == "outer":
            dsa = "sparch"
        elif algorithm == "gustavson":
            dsa = "gamma"
        elif algorithm == "inner":
            dsa = "inner"     # Figure 2's inner-product DSA
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        cfg = config if config is not None else table3_config(
            "sparch" if dsa == "inner" else dsa)
        if ideal:
            # Hardwired row-fetcher baseline: same geometry and walker
            # behaviour, but no microcode interpretation — modelled as a
            # doubled-width back-end.
            cfg = replace(cfg, num_exe=cfg.num_exe * 2,
                          name=f"hardwired-{dsa}")
        self.config = cfg
        self.ideal = ideal
        self.dsa = dsa
        self.lookahead = lookahead
        self.window = window
        self.system = XCacheSystem(cfg, build_row_walker(),
                                   dram_config=dram_config)
        # Inner product walks B's *columns*: lay B out in CSC (= the CSR
        # of its transpose) and tag by column id. Same walker binary.
        cached = b.transpose() if algorithm == "inner" else b
        self._cached_matrix = cached
        self.layout = CSRLayout.build(self.system.image, cached,
                                      packed=True)
        self.trace = element_trace(a, algorithm, b)
        self._a_rows = None
        if algorithm == "inner":
            self._a_rows = [dict(zip(*a.row(i))) for i in range(a.rows)]
        # distinct-tag runs, for the decoupled preloader
        self._runs: List[int] = []
        last = None
        for k, _i, _v in self.trace:
            if k != last:
                self._runs.append(k)
                last = k
        self._result: Dict[int, Dict[int, float]] = {}   # {i: {j: c_ij}}
        self._loads: Dict[int, Tuple[int, int, float]] = {}
        self._preloads: set = set()
        self._next_compute = 0
        self._next_run = 0
        self._outstanding = 0
        self._preloads_outstanding = 0
        self._done_elements = 0
        self._last_done = 0
        self._failures = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach handlers and seed preloader + compute pump."""
        self.system.on_response(self._on_response)
        self._walk_fields = {"row_ptr": self.layout.row_ptr_addr,
                             "pairs": self.layout.pairs_addr}
        self._advance_preloader()
        self._issue_computes()

    def run(self) -> RunResult:
        self.start()
        self.system.run()
        return self.finish()

    def finish(self) -> RunResult:
        """Assemble the result after the simulation has drained."""
        ctrl = self.system.controller
        energy = EnergyModel().xcache_breakdown(ctrl, self._last_done)
        stats = ctrl.stats
        checks = (self._failures == 0
                  and self._done_elements == len(self.trace)
                  and _matches_reference(self.a, self.b, self._result))
        return RunResult(
            dsa=self.dsa,
            variant="baseline" if self.ideal else "xcache",
            cycles=self._last_done,
            dram_reads=self.system.dram.stats.get("reads"),
            dram_writes=self.system.dram.stats.get("writes"),
            onchip_accesses=stats.get("tag_probes")
            + ctrl.dataram.stats.get("bytes_read") // 8
            + ctrl.dataram.stats.get("bytes_written") // 8,
            hits=stats.get("hits"),
            misses=stats.get("misses"),
            requests=len(self.trace),
            energy=energy,
            checks_passed=checks,
            extras={
                "miss_merges": float(stats.get("miss_merges")),
                "capacity_evictions": float(stats.get("capacity_evictions")),
                "flops": 2.0 * sum(map(len, self._result.values())),
            },
        )

    # ------------------------------------------------------------------
    # decoupled preloader (runs `lookahead` distinct rows ahead)
    # ------------------------------------------------------------------
    def _advance_preloader(self) -> None:
        while (self._preloads_outstanding < self.lookahead
               and self._next_run < len(self._runs)):
            k = self._runs[self._next_run]
            self._next_run += 1
            self._preloads_outstanding += 1
            msg = self.system.load((k,), walk_fields=self._walk_fields,
                                   preload=True)
            self._preloads.add(msg.uid)

    # ------------------------------------------------------------------
    # compute pump
    # ------------------------------------------------------------------
    def _issue_computes(self) -> None:
        while (self._outstanding < self.window
               and self._next_compute < len(self.trace)):
            k, i, v = self.trace[self._next_compute]
            self._next_compute += 1
            self._outstanding += 1
            msg = self.system.load((k,), walk_fields=self._walk_fields)
            self._loads[msg.uid] = (k, i, v)

    def _on_response(self, resp: MetaResponse) -> None:
        self._last_done = max(self._last_done, resp.completed_at)
        uid = resp.request.uid
        if uid in self._preloads:
            self._preloads.discard(uid)
            self._preloads_outstanding -= 1
            self._advance_preloader()
            return
        k, i, a_val = self._loads.pop(uid)
        if not resp.found:
            self._failures += 1
        elif self.algorithm == "inner":
            # MATCH: intersect column k of B with row i of A.
            acc = 0.0
            hit = False
            a_row = self._a_rows[i]
            for row_idx, b_val in CSRLayout.parse_pairs(resp.data):
                v = a_row.get(row_idx)
                if v is not None:
                    acc += v * b_val
                    hit = True
            if hit and acc != 0.0:
                row = self._result.setdefault(i, {})
                row[k] = row.get(k, 0.0) + acc
        else:
            row = self._result.setdefault(i, {})
            for col, b_val in CSRLayout.parse_pairs(resp.data):
                row[col] = row.get(col, 0.0) + a_val * b_val
        self._done_elements += 1
        self._outstanding -= 1
        self._issue_computes()


class SpGEMMAddressModel:
    """Address-tagged comparator with an ideal walker.

    Per element (k, i): read ``row_ptr[k]`` (+``row_ptr[k+1]``) through
    the cache, then touch every block of row k's packed pairs. Address
    tags capture block reuse, but the translate step repeats on *every*
    access — "Address-caches walk even when the data is already in the
    cache" — and cold ``row_ptr`` blocks cost the extra DRAM access the
    paper calls out for SpArch/Gamma.
    """

    def __init__(self, a: SparseMatrix, b: SparseMatrix,
                 algorithm: str = "outer",
                 xcache_config: Optional[XCacheConfig] = None,
                 num_engines: Optional[int] = None,
                 dram_config: DRAMConfig = DRAMConfig()) -> None:
        if algorithm not in ("outer", "gustavson"):
            # no inner-product dataflow: that is X-Cache-only (Figure 2)
            raise ValueError(f"address model runs algorithm 'outer' or "
                             f"'gustavson', not {algorithm!r}")
        if a.cols != b.rows:
            raise ValueError(f"shape mismatch {a.cols} != {b.rows}")
        self.a = a
        self.b = b
        self.algorithm = algorithm
        self.dsa = "sparch" if algorithm == "outer" else "gamma"
        xcfg = xcache_config if xcache_config is not None \
            else table3_config(self.dsa)
        self.sim = Simulator()
        self.image = MemoryImage()
        self.dram = DRAMModel(self.sim, self.image, dram_config)
        self.cache = AddressCache(self.sim, self.dram,
                                  matched_cache_config(xcfg))
        self.layout = CSRLayout.build(self.image, b, packed=True)
        self.trace = element_trace(a, algorithm)
        self.num_engines = num_engines or xcfg.num_active
        self._result: Dict[int, Dict[int, float]] = {}   # {i: {j: c_ij}}
        self._next = 0
        self._done = 0
        self._agen_ops = 0
        self._last_done = 0

    def run(self) -> RunResult:
        for _ in range(self.num_engines):
            self._dispatch()
        self.sim.run()
        energy = EnergyModel().address_cache_breakdown(
            self.cache, self._last_done, agen_ops=self._agen_ops,
            hash_ops=0)
        checks = (self._done == len(self.trace)
                  and _matches_reference(self.a, self.b, self._result))
        return RunResult(
            dsa=self.dsa,
            variant="addr",
            cycles=self._last_done,
            dram_reads=self.dram.stats.get("reads"),
            dram_writes=self.dram.stats.get("writes"),
            onchip_accesses=self.cache.stats.get("accesses"),
            hits=self.cache.stats.get("hits"),
            misses=self.cache.stats.get("misses"),
            requests=len(self.trace),
            energy=energy,
            checks_passed=checks,
        )

    def _dispatch(self) -> None:
        if self._next >= len(self.trace):
            return
        k, i, a_val = self.trace[self._next]
        self._next += 1
        # translate: row_ptr[k] and row_ptr[k+1]
        ptr_addr = self.layout.row_ptr_entry(k)
        self._agen_ops += 2
        lo = self.b.indptr[k]
        hi = self.b.indptr[k + 1]
        first = self.layout.pairs_addr + CSRLayout.PAIR_BYTES * lo
        last = self.layout.pairs_addr + CSRLayout.PAIR_BYTES * hi - 1
        blocks: List[int] = []
        if hi > lo:
            blocks = list(range(first & ~63, (last & ~63) + 64, 64))

        def after_translate(_lat: int) -> None:
            self._walk_blocks(blocks, 0, k, i, a_val)

        extra = [] if (ptr_addr & 63) != 60 else [ptr_addr + 4]
        if extra:
            self.cache.access(
                ptr_addr, False,
                lambda _l: self.cache.access(extra[0], False, after_translate),
            )
        else:
            self.cache.access(ptr_addr, False, after_translate)

    def _walk_blocks(self, blocks: List[int], j: int, k: int, i: int,
                     a_val: float) -> None:
        if j >= len(blocks):
            cols, vals = self.b.row(k)
            row = self._result.setdefault(i, {})
            for col, b_val in zip(cols, vals):
                row[col] = row.get(col, 0.0) + a_val * b_val
            self._done += 1
            self._last_done = self.sim.now
            self._dispatch()
            return
        self._agen_ops += 1
        self.cache.access(blocks[j], False,
                          lambda _l: self._walk_blocks(blocks, j + 1, k, i,
                                                       a_val))
