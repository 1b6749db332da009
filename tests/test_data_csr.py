"""Unit + property tests for sparse matrices and SpGEMM references."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import (
    CSRLayout,
    SparseMatrix,
    spgemm_gustavson,
    spgemm_inner,
    spgemm_outer,
)
from repro.mem import MemoryImage


def small():
    return SparseMatrix.from_dense([
        [1.0, 0.0, 2.0],
        [0.0, 0.0, 3.0],
        [4.0, 5.0, 0.0],
    ])


def test_from_dense_shape_and_nnz():
    m = small()
    assert (m.rows, m.cols, m.nnz) == (3, 3, 5)


def test_row_view():
    idx, vals = small().row(0)
    assert idx == [0, 2]
    assert vals == [1.0, 2.0]


def test_row_nnz():
    m = small()
    assert [m.row_nnz(r) for r in range(3)] == [2, 1, 2]


def test_from_triplets_sums_duplicates():
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.5)])
    assert m.nnz == 1
    assert m.to_dict()[(0, 0)] == 3.5


def test_triplet_bounds_checked():
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 2, [(2, 0, 1.0)])


def test_invalid_indptr_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])  # wrong indptr length


def test_column_bounds_checked():
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [0, 1], [5], [1.0])


def test_transpose_roundtrip():
    m = small()
    assert m.transpose().transpose().equals(m)


def test_transpose_values():
    t = small().transpose()
    assert t.to_dict()[(2, 1)] == 3.0


def test_identity():
    i = SparseMatrix.identity(4)
    assert i.nnz == 4
    assert i.to_dense()[2][2] == 1.0


def test_dense_roundtrip():
    dense = [[0.0, 1.5], [2.5, 0.0]]
    assert SparseMatrix.from_dense(dense).to_dense() == dense


def test_equals_tolerance():
    a = SparseMatrix.from_dense([[1.0]])
    b = SparseMatrix.from_dense([[1.0 + 1e-12]])
    assert a.equals(b)
    assert not a.equals(SparseMatrix.from_dense([[2.0]]))


# ----------------------------------------------------------------------
# SpGEMM references
# ----------------------------------------------------------------------

def dense_matmul(a, b):
    da, db = a.to_dense(), b.to_dense()
    n, k, m = a.rows, a.cols, b.cols
    return [[sum(da[i][x] * db[x][j] for x in range(k)) for j in range(m)]
            for i in range(n)]


def assert_matches_dense(result, a, b):
    expected = dense_matmul(a, b)
    got = result.to_dense()
    for row_e, row_g in zip(expected, got):
        for e, g in zip(row_e, row_g):
            assert g == pytest.approx(e, abs=1e-9)


def test_identity_multiplication():
    m = small()
    eye = SparseMatrix.identity(3)
    for algo in (spgemm_inner, spgemm_outer, spgemm_gustavson):
        assert algo(m, eye).equals(m)
        assert algo(eye, m).equals(m)


def test_three_algorithms_agree_small():
    a = small()
    b = small().transpose()
    r1 = spgemm_inner(a, b)
    r2 = spgemm_outer(a, b)
    r3 = spgemm_gustavson(a, b)
    assert r1.equals(r2)
    assert r2.equals(r3)
    assert_matches_dense(r3, a, b)


def test_shape_mismatch_rejected():
    a = SparseMatrix.identity(2)
    b = SparseMatrix.identity(3)
    for algo in (spgemm_inner, spgemm_outer, spgemm_gustavson):
        with pytest.raises(ValueError):
            algo(a, b)


def test_empty_matrix_product():
    a = SparseMatrix(2, 2, [0, 0, 0], [], [])
    b = SparseMatrix.identity(2)
    assert spgemm_gustavson(a, b).nnz == 0


@st.composite
def sparse_matrices(draw, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    n_triplets = draw(st.integers(0, rows * cols))
    trips = [
        (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)),
         draw(st.floats(min_value=-4, max_value=4,
                        allow_nan=False, allow_infinity=False)))
        for _ in range(n_triplets)
    ]
    return SparseMatrix.from_triplets(rows, cols, trips)


@settings(max_examples=30, deadline=None)
@given(sparse_matrices(), st.integers(1, 6))
def test_spgemm_algorithms_agree_property(a, cols):
    import random
    rng = random.Random(a.nnz * 31 + cols)
    trips = [(r, c, rng.uniform(-2, 2))
             for r in range(a.cols) for c in range(cols) if rng.random() < 0.5]
    b = SparseMatrix.from_triplets(a.cols, cols, trips)
    r_inner = spgemm_inner(a, b)
    r_outer = spgemm_outer(a, b)
    r_gus = spgemm_gustavson(a, b)
    assert r_inner.equals(r_outer, tol=1e-7)
    assert r_outer.equals(r_gus, tol=1e-7)


def triplet_spgemm_gustavson(a, b):
    """The triplet-list build that ``spgemm_gustavson`` replaced: the
    same loops, then a global sort through ``from_triplets``."""
    trips = []
    for i in range(a.rows):
        acc = {}
        for kk in range(a.indptr[i], a.indptr[i + 1]):
            k = a.indices[kk]
            av = a.values[kk]
            for jj in range(b.indptr[k], b.indptr[k + 1]):
                j = b.indices[jj]
                acc[j] = acc.get(j, 0.0) + av * b.values[jj]
        for j, v in acc.items():
            if v != 0.0:
                trips.append((i, j, v))
    return SparseMatrix.from_triplets(a.rows, b.cols, trips)


# small exact values make sums cancel to 0.0; 0.0 triplets give explicit
# zeros; arbitrary floats exercise rounding order
PRODUCT_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 2.0]),
    st.floats(min_value=-4, max_value=4,
              allow_nan=False, allow_infinity=False))


@st.composite
def triplet_matrices(draw, rows, cols):
    """A matrix from triplets, duplicates (summed) and empty rows and
    columns included."""
    trips = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                    st.integers(0, cols - 1),
                                    PRODUCT_VALUES),
                          max_size=2 * rows * cols))
    return SparseMatrix.from_triplets(rows, cols, trips)


@st.composite
def product_operands(draw):
    n, k, m = (draw(st.integers(1, 8)) for _ in range(3))
    return draw(triplet_matrices(n, k)), draw(triplet_matrices(k, m))


def f64_bits(values):
    return struct.pack(f"<{len(values)}d", *values)


# fixed, derandomized profile: the same operands on every run
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(product_operands())
@example((SparseMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]]),
          SparseMatrix.from_dense([[2.0, 1.0], [-2.0, 0.0]])))
def test_gustavson_matches_triplet_build(operands):
    a, b = operands
    got = spgemm_gustavson(a, b)
    want = triplet_spgemm_gustavson(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.indptr == want.indptr
    assert got.indices == want.indices
    assert f64_bits(got.values) == f64_bits(want.values)


def loop_parse_pairs(data):
    """The record-by-record decode that ``parse_pairs`` replaced."""
    out = []
    for off in range(0, len(data) - 15, CSRLayout.PAIR_BYTES):
        col = int.from_bytes(data[off:off + 4], "little")
        (val,) = struct.unpack_from("<d", data, off + 8)
        out.append((col, val))
    return out


F64_BYTES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(
        lambda v: struct.pack("<d", v)),
    st.sampled_from([struct.pack("<Q", bits) for bits in (
        0x7FF8000000000000,    # quiet NaN
        0xFFF8000000000001,    # negative NaN with a payload
        0x7FF0000000000001,    # signalling NaN
        0x7FF0000000000000,    # +inf
        0xFFF0000000000000,    # -inf
    )]),
    st.binary(min_size=8, max_size=8))

PACKED_RECORDS = st.builds(
    lambda col, pad, val: struct.pack("<I", col) + pad + val,
    st.integers(0, 2**32 - 1), st.binary(min_size=4, max_size=4), F64_BYTES)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.builds(lambda recs, tail: (b"".join(recs) + tail)[:100],
                 st.lists(PACKED_RECORDS, max_size=6),
                 st.binary(max_size=15)))
def test_parse_pairs_matches_record_loop(data):
    got = CSRLayout.parse_pairs(data)
    want = loop_parse_pairs(data)
    assert [col for col, _ in got] == [col for col, _ in want]
    assert (f64_bits([val for _, val in got])
            == f64_bits([val for _, val in want]))


@settings(max_examples=30, deadline=None)
@given(sparse_matrices())
def test_transpose_involution_property(m):
    assert m.transpose().transpose().equals(m)


# ----------------------------------------------------------------------
# memory-image layout
# ----------------------------------------------------------------------

def test_layout_roundtrip():
    image = MemoryImage()
    m = small()
    layout = CSRLayout.build(image, m)
    for r in range(m.rows):
        idx, vals = layout.read_row(image, r)
        eidx, evals = m.row(r)
        assert idx == eidx
        assert vals == pytest.approx(evals)


def test_layout_entry_addresses():
    image = MemoryImage()
    layout = CSRLayout.build(image, small())
    assert layout.row_ptr_entry(2) == layout.row_ptr_addr + 8
    assert layout.col_idx_entry(3) == layout.col_idx_addr + 12
    assert layout.value_entry(1) == layout.values_addr + 8


def test_packed_pairs_layout():
    image = MemoryImage()
    m = small()
    layout = CSRLayout.build(image, m, packed=True)
    assert layout.pairs_addr != 0
    # read back row 2's pairs
    lo, hi = m.indptr[2], m.indptr[3]
    raw = image.read_block(layout.pairs_addr + 16 * lo, 16 * (hi - lo))
    pairs = CSRLayout.parse_pairs(raw)
    assert pairs == [(0, pytest.approx(4.0)), (1, pytest.approx(5.0))]


def test_parse_pairs_empty():
    assert CSRLayout.parse_pairs(b"") == []


def test_layout_rejects_columns_beyond_u32():
    # col_idx and the packed records store u32 columns: column 2**32 + 5
    # used to be laid out as column 5
    wide = SparseMatrix(1, 2**32 + 8, [0, 1], [2**32 + 5], [3.0])
    with pytest.raises(ValueError, match="cols"):
        CSRLayout.build(MemoryImage(), wide, packed=True)
    # the widest column count that fits still lays out exactly
    edge = SparseMatrix(1, 2**32, [0, 1], [2**32 - 1], [3.0])
    image = MemoryImage()
    layout = CSRLayout.build(image, edge, packed=True)
    assert layout.read_row(image, 0) == ([2**32 - 1], [3.0])
    raw = image.read_block(layout.pairs_addr, CSRLayout.PAIR_BYTES)
    assert CSRLayout.parse_pairs(raw) == [(2**32 - 1, 3.0)]
