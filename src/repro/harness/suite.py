"""The Figure-14 run suite: 3 variants × every DSA/workload.

Figures 14, 15, and 16 all consume the same runs (runtime, traffic, and
energy of X-Cache vs the hardwired baseline vs the address-tagged
comparator), so the suite executes once per profile and is memoized in
a plain in-process dict. The memo never crosses a process boundary: the
parallel harness (``python -m repro.harness --parallel N``) runs
fig14/15/16 in the calling process, so the suite simulates once per run
and a capture observes exactly what a serial run observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..dsa import (
    DasxAddressModel,
    DasxBaselineModel,
    DasxXCacheModel,
    GammaAddressModel,
    GammaXCacheModel,
    GraphPulseAddressModel,
    GraphPulseXCacheModel,
    RunResult,
    SpArchAddressModel,
    SpArchXCacheModel,
    WidxAddressModel,
    WidxBaselineModel,
    WidxXCacheModel,
)
from ..workloads.graphgen import p2p_gnutella08
from ..workloads.matrices import dense_spgemm_input
from .profiles import Profile, get_profile

__all__ = ["VariantSet", "run_fig14_suite", "SUITE_WORKLOADS", "clear_cache"]

# workload labels, in the order Figure 14's x-axis lists them
SUITE_WORKLOADS: Tuple[str, ...] = (
    "TPC-H-19", "TPC-H-20", "TPC-H-22",   # Widx
    "dasx",
    "graphpulse",
    "sparch",
    "gamma",
)


@dataclass
class VariantSet:
    """The three Figure-14 bars for one workload."""

    label: str
    xcache: RunResult
    baseline: RunResult
    addr: RunResult

    @property
    def speedup_vs_baseline(self) -> float:
        return self.baseline.cycles / self.xcache.cycles

    @property
    def speedup_vs_addr(self) -> float:
        return self.addr.cycles / self.xcache.cycles

    @property
    def dram_ratio(self) -> float:
        """Address-cache memory accesses relative to X-Cache."""
        return self.addr.dram_accesses / max(1, self.xcache.dram_accesses)

    @property
    def all_checked(self) -> bool:
        return (self.xcache.checks_passed and self.baseline.checks_passed
                and self.addr.checks_passed)


_CACHE: Dict[tuple, Dict[str, VariantSet]] = {}


def clear_cache() -> None:
    """Forget memoized suite runs."""
    _CACHE.clear()


def _run_widx(label: str, profile: Profile) -> VariantSet:
    workload = profile.widx_workload(label)
    cfg = profile.xcache_config("widx")
    x = WidxXCacheModel(workload, config=cfg).run()
    base = WidxBaselineModel(workload, num_walkers=8,
                             cache_config=None).run()
    addr = WidxAddressModel(workload, xcache_config=cfg).run()
    return VariantSet(label, x, base, addr)


def _run_dasx(profile: Profile) -> VariantSet:
    workload = profile.dasx_workload()
    cfg = profile.xcache_config("dasx")
    x = DasxXCacheModel(workload, config=cfg).run()
    base = DasxBaselineModel(workload).run()
    addr = DasxAddressModel(workload, xcache_config=cfg).run()
    return VariantSet("dasx", x, base, addr)


def _run_graphpulse(profile: Profile) -> VariantSet:
    graph = p2p_gnutella08(scale=profile.graph_scale, seed=profile.seed)
    x = GraphPulseXCacheModel(graph, num_pes=profile.graph_pes).run()
    base = GraphPulseXCacheModel(graph, num_pes=profile.graph_pes,
                                 ideal=True).run()
    addr = GraphPulseAddressModel(graph, num_pes=profile.graph_pes).run()
    return VariantSet("graphpulse", x, base, addr)


def _run_spgemm(label: str, profile: Profile) -> VariantSet:
    a, b = dense_spgemm_input(n=profile.spgemm_n,
                              nnz_per_row=profile.spgemm_nnz_per_row,
                              seed=profile.seed)
    cfg = profile.xcache_config(label)
    if label == "sparch":
        x = SpArchXCacheModel(a, b, config=cfg).run()
        base = SpArchXCacheModel(a, b, config=cfg, ideal=True).run()
        addr = SpArchAddressModel(a, b, xcache_config=cfg).run()
    else:
        x = GammaXCacheModel(a, b, config=cfg).run()
        base = GammaXCacheModel(a, b, config=cfg, ideal=True).run()
        addr = GammaAddressModel(a, b, xcache_config=cfg).run()
    return VariantSet(label, x, base, addr)


def run_fig14_suite(profile: str = "full",
                    workloads: Optional[Tuple[str, ...]] = None
                    ) -> Dict[str, VariantSet]:
    """Run (or fetch memoized) the full comparison suite."""
    selected = workloads if workloads is not None else SUITE_WORKLOADS
    key = (profile, tuple(selected))
    if key in _CACHE:
        return _CACHE[key]
    prof = get_profile(profile)
    out: Dict[str, VariantSet] = {}
    for label in selected:
        if label.startswith("TPC-H"):
            out[label] = _run_widx(label, prof)
        elif label == "dasx":
            out[label] = _run_dasx(prof)
        elif label == "graphpulse":
            out[label] = _run_graphpulse(prof)
        elif label in ("sparch", "gamma"):
            out[label] = _run_spgemm(label, prof)
        else:
            raise KeyError(f"unknown suite workload {label!r}")
    _CACHE[key] = out
    return out
