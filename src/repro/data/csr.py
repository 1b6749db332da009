"""Compressed sparse matrices (CSR/CSC) and reference SpGEMM algorithms.

SpArch streams the multiplier in CSC and caches rows of B stored in CSR;
Gamma (Gustavson) consumes A row-wise and fetches the corresponding rows
of B. Both DSA models in :mod:`repro.dsa` are validated against the
reference algorithms here, and the matrices can be *laid out* into a
:class:`~repro.mem.layout.MemoryImage` so walkers chase real ``row_ptr``
metadata (the paper's META access).

Layout of a CSR matrix in the image (all little-endian)::

    row_ptr : (rows + 1) × u32      -- element offsets
    col_idx : nnz × u32
    values  : nnz × f64
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..mem.layout import MemoryImage

__all__ = [
    "SparseMatrix",
    "CSRLayout",
    "spgemm_inner",
    "spgemm_outer",
    "spgemm_gustavson",
]

_PAIR = struct.Struct("<I4xd")  # packed element record: u32 col, pad, f64 value


class SparseMatrix:
    """An immutable CSR sparse matrix of doubles.

    The same object serves as CSC by transposition: a matrix stored in
    CSC format is represented as the CSR of its transpose plus a flag at
    the use site. (The paper's SpArch streams A in CSC = columns of A =
    rows of Aᵀ.)
    """

    def __init__(self, rows: int, cols: int, indptr: Sequence[int],
                 indices: Sequence[int], values: Sequence[float]) -> None:
        if len(indptr) != rows + 1:
            raise ValueError(f"indptr length {len(indptr)} != rows+1 ({rows + 1})")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if len(indices) != len(values):
            raise ValueError("indices/values length mismatch")
        for i in range(rows):
            if indptr[i] > indptr[i + 1]:
                raise ValueError(f"indptr not monotonic at row {i}")
        for j in indices:
            if not 0 <= j < cols:
                raise ValueError(f"column index {j} outside [0, {cols})")
        self.rows = rows
        self.cols = cols
        self.indptr = list(indptr)
        self.indices = list(indices)
        self.values = [float(v) for v in values]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_triplets(cls, rows: int, cols: int,
                      triplets: Iterable[Tuple[int, int, float]]) -> "SparseMatrix":
        """Build from (row, col, value) triplets; duplicates are summed."""
        cells: Dict[Tuple[int, int], float] = {}
        for r, c, v in triplets:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"triplet ({r},{c}) outside {rows}x{cols}")
            cells[(r, c)] = cells.get((r, c), 0.0) + float(v)
        indptr = [0] * (rows + 1)
        ordered = sorted(cells.items())
        indices = []
        values = []
        for (r, c), v in ordered:
            indptr[r + 1] += 1
            indices.append(c)
            values.append(v)
        for i in range(rows):
            indptr[i + 1] += indptr[i]
        return cls(rows, cols, indptr, indices, values)

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[float]]) -> "SparseMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        trips = [(r, c, dense[r][c])
                 for r in range(rows) for c in range(cols) if dense[r][c] != 0.0]
        return cls.from_triplets(rows, cols, trips)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, list(range(n + 1)), list(range(n)), [1.0] * n)

    # ------------------------------------------------------------------
    # views and basics
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, r: int) -> Tuple[List[int], List[float]]:
        """Column indices and values of row ``r``."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_nnz(self, r: int) -> int:
        return self.indptr[r + 1] - self.indptr[r]

    def transpose(self) -> "SparseMatrix":
        """CSR of the transpose (equivalently: this matrix in CSC)."""
        counts = [0] * (self.cols + 1)
        for c in self.indices:
            counts[c + 1] += 1
        for i in range(self.cols):
            counts[i + 1] += counts[i]
        indptr = list(counts)
        indices = [0] * self.nnz
        values = [0.0] * self.nnz
        cursor = list(counts)
        for r in range(self.rows):
            for k in range(self.indptr[r], self.indptr[r + 1]):
                c = self.indices[k]
                pos = cursor[c]
                indices[pos] = r
                values[pos] = self.values[k]
                cursor[c] += 1
        return SparseMatrix(self.cols, self.rows, indptr, indices, values)

    def to_dense(self) -> List[List[float]]:
        dense = [[0.0] * self.cols for _ in range(self.rows)]
        for r in range(self.rows):
            for k in range(self.indptr[r], self.indptr[r + 1]):
                dense[r][self.indices[k]] += self.values[k]
        return dense

    def to_dict(self) -> Dict[Tuple[int, int], float]:
        out: Dict[Tuple[int, int], float] = {}
        for r in range(self.rows):
            for k in range(self.indptr[r], self.indptr[r + 1]):
                out[(r, self.indices[k])] = self.values[k]
        return out

    def equals(self, other: "SparseMatrix", tol: float = 1e-9) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b = self.to_dict(), other.to_dict()
        keys = set(a) | set(b)
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ----------------------------------------------------------------------
# reference SpGEMM algorithms (functional ground truth for the DSAs)
# ----------------------------------------------------------------------

def spgemm_inner(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Inner-product SpGEMM: C[i,j] = Σ_k A[i,k]·B[k,j].

    Walks A in CSR and B in CSC (Figure 2's DSA); every (i, j) pair
    intersects a row of A with a column of B.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.cols} != {b.rows}")
    bt = b.transpose()  # columns of B as rows
    trips: List[Tuple[int, int, float]] = []
    for i in range(a.rows):
        a_idx, a_val = a.row(i)
        if not a_idx:
            continue
        a_map = dict(zip(a_idx, a_val))
        for j in range(bt.rows):
            b_idx, b_val = bt.row(j)
            acc = 0.0
            hit = False
            for k, bv in zip(b_idx, b_val):
                av = a_map.get(k)
                if av is not None:
                    acc += av * bv
                    hit = True
            if hit and acc != 0.0:
                trips.append((i, j, acc))
    return SparseMatrix.from_triplets(a.rows, b.cols, trips)


def spgemm_outer(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Outer-product SpGEMM (SpArch): Σ_k col_k(A) ⊗ row_k(B)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.cols} != {b.rows}")
    at = a.transpose()  # columns of A as rows
    trips: List[Tuple[int, int, float]] = []
    for k in range(at.rows):
        a_rows, a_vals = at.row(k)
        if not a_rows:
            continue
        b_cols, b_vals = b.row(k)
        for i, av in zip(a_rows, a_vals):
            for j, bv in zip(b_cols, b_vals):
                trips.append((i, j, av * bv))
    return SparseMatrix.from_triplets(a.rows, b.cols, trips)


def spgemm_gustavson(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Gustavson (row-wise) SpGEMM (Gamma): row_i(C) = Σ_k A[i,k]·row_k(B).

    C's CSR arrays are built row by row: each row accumulates in a dict,
    then its columns are sorted and exact zeros dropped.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.cols} != {b.rows}")
    indptr = [0]
    indices: List[int] = []
    values: List[float] = []
    for i in range(a.rows):
        acc: Dict[int, float] = {}
        for kk in range(a.indptr[i], a.indptr[i + 1]):
            k = a.indices[kk]
            av = a.values[kk]
            for jj in range(b.indptr[k], b.indptr[k + 1]):
                j = b.indices[jj]
                acc[j] = acc.get(j, 0.0) + av * b.values[jj]
        for j in sorted(acc):
            v = acc[j]
            if v != 0.0:
                indices.append(j)
                values.append(v)
        indptr.append(len(indices))
    return SparseMatrix(a.rows, b.cols, indptr, indices, values)


# ----------------------------------------------------------------------
# memory-image layout
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CSRLayout:
    """Addresses of a CSR matrix laid out in a memory image.

    ``pairs_addr`` (optional) points to the *packed element array*: one
    16-byte record per nonzero — ``u32 col`` (padded to 8 B) + ``f64
    value`` — which is what the SpArch/Gamma row walker streams in. The
    paper's refill reads 12 B/element (4 B index + 8 B value); the 16 B
    packing keeps records block-friendly with the same traffic shape.
    """

    rows: int
    cols: int
    nnz: int
    row_ptr_addr: int
    col_idx_addr: int
    values_addr: int
    pairs_addr: int = 0

    ROW_PTR_BYTES = 4
    COL_IDX_BYTES = 4
    VALUE_BYTES = 8
    PAIR_BYTES = 16

    @classmethod
    def build(cls, image: MemoryImage, matrix: SparseMatrix,
              packed: bool = False) -> "CSRLayout":
        """Write ``matrix`` into ``image`` and return its addresses.

        ``row_ptr`` entries and the columns in ``col_idx`` and the packed
        records are u32, so nnz and every column index must fit: a wider
        value would alias silently.
        """
        if matrix.cols > 1 << 32:
            raise ValueError(f"cols {matrix.cols} > 2**32: column indices "
                             "do not fit the u32 col_idx field")
        if matrix.nnz >= 1 << 32:
            raise ValueError(f"nnz {matrix.nnz} does not fit the u32 "
                             "row_ptr field")
        row_ptr = image.alloc_u32_array(matrix.indptr)
        col_idx = image.alloc_u32_array(matrix.indices)
        values = image.alloc_f64_array(matrix.values)
        pairs = 0
        if packed:
            pairs = image.alloc(cls.PAIR_BYTES * matrix.nnz, align=64)
            records = bytearray(cls.PAIR_BYTES * matrix.nnz)
            for k, (col, val) in enumerate(zip(matrix.indices, matrix.values)):
                _PAIR.pack_into(records, cls.PAIR_BYTES * k, col, val)
            image.write_block(pairs, records)
        return cls(matrix.rows, matrix.cols, matrix.nnz, row_ptr, col_idx,
                   values, pairs)

    @staticmethod
    def parse_pairs(data: bytes) -> List[Tuple[int, float]]:
        """Decode a packed-pair byte string (a hit's data return).

        A trailing partial record is ignored.
        """
        whole = len(data) - len(data) % CSRLayout.PAIR_BYTES
        return list(_PAIR.iter_unpack(data[:whole]))

    # -- address arithmetic the walkers perform ------------------------
    def row_ptr_entry(self, r: int) -> int:
        return self.row_ptr_addr + self.ROW_PTR_BYTES * r

    def col_idx_entry(self, k: int) -> int:
        return self.col_idx_addr + self.COL_IDX_BYTES * k

    def value_entry(self, k: int) -> int:
        return self.values_addr + self.VALUE_BYTES * k

    # -- functional readback (used for validation) ---------------------
    def read_row(self, image: MemoryImage, r: int) -> Tuple[List[int], List[float]]:
        lo = image.read_u32(self.row_ptr_entry(r))
        hi = image.read_u32(self.row_ptr_entry(r + 1))
        idx = [image.read_u32(self.col_idx_entry(k)) for k in range(lo, hi)]
        val = [image.read_f64(self.value_entry(k)) for k in range(lo, hi)]
        return idx, val
