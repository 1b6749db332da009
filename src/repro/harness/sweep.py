"""The ``ckpt:<dsa>`` job helpers: build and warm one DSA model, expand
a fork-override grid.

A parameter sweep over *fork-safe* knobs (back-end width, latencies,
scheduling window, DRAM timing — see
:data:`repro.sim.checkpoint.FORK_SAFE_FIELDS`) re-simulates the same
warmup N times under straight runs. A snapshot-fork sweep pays the
warmup **once**: run one model to a snapshot point, save it, then fork
the snapshot into each grid point — restore, apply the overrides, run
only the post-warmup tail. The end-to-end cost drops from
``N × (warmup + tail)`` to ``warmup + N × tail`` (benchmarked in
``benchmarks/bench_checkpoint_sweep.py``, gated ≥3x at 8 points).

Geometry-changing overrides are rejected up front with
:class:`~repro.sim.checkpoint.ForkOverrideError` — a warmed cache
cannot be reinterpreted under a different shape.

The service runs the sweep: ``svc sweep ckpt:<dsa>`` writes the warm
snapshot with :func:`write_warm_snapshot` (once, before any job) and
each job forks it::

    python -m repro.svc sweep ckpt:widx --profile quick \\
        --warmup-snapshot warm.ckpt --warm-frac 0.85 \\
        --grid num_exe=2,4,8 --grid dram.t_cl=8,11
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SWEEP_DSAS",
    "SWEEP_MODEL_CLASSES",
    "build_model",
    "straight_run",
    "write_warm_snapshot",
    "sweep_points",
    "parse_grid_entries",
]

#: the X-Cache model class :func:`build_model` builds for each DSA a
#: snapshot sweep can drive (the paper's five Table-3 designs); a
#: snapshot header records it as ``model_class``
SWEEP_MODEL_CLASSES = {
    "widx": "WidxXCacheModel",
    "dasx": "DasxXCacheModel",
    "sparch": "SpArchXCacheModel",
    "gamma": "GammaXCacheModel",
    "graphpulse": "GraphPulseXCacheModel",
}
SWEEP_DSAS = tuple(SWEEP_MODEL_CLASSES)


def build_model(dsa: str, profile: str = "ci",
                config_overrides: Optional[Mapping[str, Any]] = None):
    """A fresh, un-started X-Cache model of ``dsa`` at ``profile``.

    ``config_overrides`` replaces :class:`~repro.core.config
    .XCacheConfig` fields (``dram.*`` keys go to the DRAM config) —
    the straight-run comparator for a forked sweep point. Message uids
    are reset first so two builds issue identical traffic.
    """
    from ..core.messages import reset_ids
    from ..mem.dram import DRAMConfig
    from .profiles import get_profile

    if dsa not in SWEEP_DSAS:
        raise KeyError(f"unknown sweep dsa {dsa!r}; have {SWEEP_DSAS}")
    prof = get_profile(profile)
    xc: Dict[str, Any] = {}
    dr: Dict[str, Any] = {}
    for key, value in (config_overrides or {}).items():
        if key.startswith("dram."):
            dr[key[len("dram."):]] = value
        else:
            xc[key] = value
    config = replace(prof.xcache_config(dsa), **xc)
    dram_config = replace(DRAMConfig(), **dr)
    reset_ids()
    if dsa == "widx":
        from ..dsa.widx import WidxXCacheModel

        return WidxXCacheModel(prof.widx_workload("TPC-H-19"),
                               config=config, dram_config=dram_config)
    if dsa == "dasx":
        from ..dsa.dasx import DasxXCacheModel

        return DasxXCacheModel(prof.dasx_workload(), config=config,
                               dram_config=dram_config)
    if dsa in ("sparch", "gamma"):
        from ..dsa import GammaXCacheModel, SpArchXCacheModel
        from ..workloads.matrices import dense_spgemm_input

        a, b = dense_spgemm_input(n=prof.spgemm_n,
                                  nnz_per_row=prof.spgemm_nnz_per_row,
                                  seed=prof.seed)
        cls = SpArchXCacheModel if dsa == "sparch" else GammaXCacheModel
        return cls(a, b, config=config, dram_config=dram_config)
    from ..dsa.graphpulse import GraphPulseXCacheModel
    from ..workloads.graphgen import p2p_gnutella08

    graph = p2p_gnutella08(scale=prof.graph_scale, seed=prof.seed)
    return GraphPulseXCacheModel(graph, num_pes=prof.graph_pes,
                                 config=config, dram_config=dram_config)


def straight_run(dsa: str, profile: str = "ci",
                 config_overrides: Optional[Mapping[str, Any]] = None):
    """One full straight run; returns its RunResult (the comparator)."""
    return build_model(dsa, profile, config_overrides).run()


def write_warm_snapshot(path: str, dsa: str, profile: str = "ci",
                        warm_cycles: Optional[int] = None,
                        warm_frac: float = 0.85) -> Dict[str, Any]:
    """Warm one model and snapshot it to ``path``; returns the header.

    With ``warm_cycles`` (at least 1) the model warms to that exact
    cycle. Without it, a straight probe run measures the total first and
    the snapshot lands at ``warm_frac`` of it (the probe costs one run —
    pass ``warm_cycles`` when the total is already known).
    """
    from ..sim import checkpoint as ck

    if warm_cycles is not None and warm_cycles < 1:
        raise ValueError(f"warm_cycles must be >= 1, got {warm_cycles}")
    if warm_cycles is None:
        if not 0.0 < warm_frac < 1.0:
            raise ValueError("warm_frac must be in (0, 1)")
        probe = straight_run(dsa, profile)
        warm_cycles = max(1, int(probe.cycles * warm_frac))
    model = build_model(dsa, profile)
    ck.warm_model(model, warm_cycles)
    return ck.save_model(path, model)


def parse_grid_entries(entries: Sequence[str]) -> Dict[str, List[Any]]:
    """``field=v1,v2`` strings → {field: [typed values]} (JSON-typed)."""
    grid: Dict[str, List[Any]] = {}
    for entry in entries:
        field, _, values = entry.partition("=")
        if not values:
            raise ValueError(f"bad grid entry {entry!r} "
                             f"(want field=v1,v2,...)")
        typed: List[Any] = []
        for raw in values.split(","):
            try:
                typed.append(json.loads(raw))
            except json.JSONDecodeError:
                typed.append(raw)
        grid[field] = typed
    return grid


def sweep_points(grid: Mapping[str, Sequence[Any]]
                 ) -> List[Dict[str, Any]]:
    """Cartesian product of a fork-override grid, validated up front.

    Every field must be fork-safe; a geometry-changing field raises
    :class:`~repro.sim.checkpoint.ForkOverrideError` *before* any
    simulation runs.
    """
    from ..sim.checkpoint import check_fork_overrides

    check_fork_overrides(grid)
    points: List[Dict[str, Any]] = [{}]
    for field in sorted(grid):
        values = list(grid[field])
        if not values:
            raise ValueError(f"empty value list for grid field {field!r}")
        points = [{**p, field: v} for p in points for v in values]
    return points
