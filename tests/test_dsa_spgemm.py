"""Integration tests for SpArch/Gamma (shared SpGEMM X-Cache)."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import table3_config
from repro.data import SparseMatrix, spgemm_gustavson
from repro.dsa import (
    GammaAddressModel,
    GammaXCacheModel,
    SpArchAddressModel,
    SpArchXCacheModel,
    SpGEMMAddressModel,
    SpGEMMXCacheModel,
    element_trace,
)
from repro.dsa.spgemm import _matches_reference
from repro.workloads import dense_spgemm_input

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def matrices():
    return dense_spgemm_input(n=96, nnz_per_row=6, seed=9)


@pytest.fixture(scope="module")
def config():
    return table3_config("sparch", scale=0.125)


def test_element_trace_outer_is_column_major():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    trace = element_trace(a, "outer")
    # column 0 first (k=0), then column 1 (k=1) with both rows
    assert trace == [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)]


def test_element_trace_gustavson_is_row_major():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    trace = element_trace(a, "gustavson")
    assert trace == [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)]


def test_element_trace_rejects_unknown():
    with pytest.raises(ValueError):
        element_trace(SparseMatrix.identity(2), "bogus")


def test_sparch_produces_correct_product(matrices, config):
    a, b = matrices
    result = SpArchXCacheModel(a, b, config=config).run()
    assert result.checks_passed
    assert result.dsa == "sparch"


def test_gamma_produces_correct_product(matrices, config):
    a, b = matrices
    cfg = table3_config("gamma", scale=0.125)
    result = GammaXCacheModel(a, b, config=cfg).run()
    assert result.checks_passed
    assert result.dsa == "gamma"


def test_same_walker_binary_for_both(matrices, config):
    a, b = matrices
    sparch = SpArchXCacheModel(a, b, config=config)
    gamma = GammaXCacheModel(a, b, config=config)
    s_names = [r.name for r in sparch.system.controller.program.ram.routines]
    g_names = [r.name for r in gamma.system.controller.program.ram.routines]
    assert s_names == g_names  # literally the same program


def test_sparch_column_runs_reuse_rows(matrices, config):
    a, b = matrices
    result = SpArchXCacheModel(a, b, config=config).run()
    # every element after the first of a column run should hit or merge
    assert result.hits + result.extras["miss_merges"] > 0
    assert result.hit_rate > 0.3


def test_address_comparators_validate(matrices, config):
    a, b = matrices
    assert SpArchAddressModel(a, b, xcache_config=config).run().checks_passed
    assert GammaAddressModel(a, b, xcache_config=config).run().checks_passed


def test_shape_mismatch_rejected(config):
    a = SparseMatrix.identity(4)
    b = SparseMatrix.identity(5)
    with pytest.raises(ValueError):
        SpGEMMXCacheModel(a, b)
    with pytest.raises(ValueError):
        SpArchAddressModel(a, b)


def test_identity_product(config):
    eye = SparseMatrix.identity(16)
    result = SpArchXCacheModel(eye, eye, config=config).run()
    assert result.checks_passed


def test_empty_rows_handled(config):
    a = SparseMatrix.from_triplets(8, 8, [(0, 3, 1.0), (4, 3, 2.0)])
    b = SparseMatrix.from_triplets(8, 8, [(1, 1, 5.0)])  # row 3 empty
    result = SpArchXCacheModel(a, b, config=config).run()
    assert result.checks_passed
    ref = spgemm_gustavson(a, b)
    assert ref.nnz == 0


def test_preload_lookahead_reduces_latency(matrices, config):
    a, b = matrices
    no_pre = SpGEMMXCacheModel(a, b, "outer", config=config,
                               lookahead=1).run()
    with_pre = SpGEMMXCacheModel(a, b, "outer", config=config,
                                 lookahead=32).run()
    assert with_pre.checks_passed and no_pre.checks_passed
    assert with_pre.cycles <= no_pre.cycles * 1.05


def test_address_model_rejects_inner_product():
    # B is given, so the old "needs B" error misled: the address
    # comparator simply has no inner-product dataflow
    eye = SparseMatrix.identity(4)
    with pytest.raises(ValueError, match="'outer' or 'gustavson'"):
        SpGEMMAddressModel(eye, eye, algorithm="inner")


# ----------------------------------------------------------------------
# the row-wise product check against the tuple-keyed one it replaced
# ----------------------------------------------------------------------

def tuple_keyed_verdict(a, b, result):
    """The check both models ran on ``{(i, j): c_ij}`` products."""
    ref = spgemm_gustavson(a, b).to_dict()
    if set(ref) != set(result):
        return False
    return all(abs(ref[k] - result[k]) < 1e-6 * (1 + abs(ref[k]))
               for k in ref)


@pytest.fixture(scope="module")
def products():
    """Real row-wise products: an X-Cache SpArch run and an address
    Gamma run, so both models' result paths are covered."""
    a, b = dense_spgemm_input(n=48, nnz_per_row=4, seed=5)
    out = {}
    for name, model in (("sparch", SpArchXCacheModel(a, b)),
                        ("gamma-addr", GammaAddressModel(a, b))):
        assert model.run().checks_passed
        out[name] = (a, b, model._result)
    return out


def perturbed(rows, kind, pick, cols):
    """A copy of ``rows`` changed one way at the ``pick``-th entry."""
    rows = {i: dict(row) for i, row in rows.items()}
    entries = sorted((i, j) for i, row in rows.items() for j in row)
    i, j = entries[pick % len(entries)]
    c = rows[i][j]
    free = min(set(range(cols + 1)) - set(rows[i]))
    if kind == "off by 2e-6":
        rows[i][j] = c + 2e-6 * (1 + abs(c))
    elif kind == "off by 0.5e-6":
        rows[i][j] = c + 0.5e-6 * (1 + abs(c))
    elif kind == "nan":
        rows[i][j] = float("nan")
    elif kind == "missing entry":
        del rows[i][j]
    elif kind == "extra entry":
        rows[i][free] = c
    elif kind == "extra row":
        rows[max(rows) + 1] = {j: c}
    elif kind == "extra zero":
        rows[i][free] = 0.0
    return rows


VERDICTS = {"unchanged": True, "off by 2e-6": False, "off by 0.5e-6": True,
            "nan": False, "missing entry": False, "extra entry": False,
            "extra row": False, "extra zero": False}


# fixed, derandomized profile: the same perturbations on every run
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["sparch", "gamma-addr"]),
       st.sampled_from(sorted(VERDICTS)), st.integers(0, 10**6))
def test_row_check_matches_tuple_keyed_check(products, name, kind, pick):
    a, b, result = products[name]
    rows = perturbed(result, kind, pick, b.cols)
    keyed = {(i, j): v for i, row in rows.items() for j, v in row.items()}
    assert _matches_reference(a, b, rows) is VERDICTS[kind]
    assert tuple_keyed_verdict(a, b, keyed) is VERDICTS[kind]


def test_models_run_without_numpy():
    # the package declares no runtime dependency: a SpArch and a Gamma
    # run in a fresh interpreter must not import numpy
    code = (
        "import sys\n"
        "from repro.dsa import GammaXCacheModel, SpArchXCacheModel\n"
        "from repro.workloads import dense_spgemm_input\n"
        "a, b = dense_spgemm_input(n=32, nnz_per_row=4, seed=3)\n"
        "for model in (SpArchXCacheModel, GammaXCacheModel):\n"
        "    assert model(a, b).run().checks_passed\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
