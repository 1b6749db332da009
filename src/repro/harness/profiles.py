"""Workload/geometry profiles for the experiment drivers.

Three profiles ship:

* ``ci``    — sub-second runs for determinism tests (the golden-trace
  suite runs every experiment under two kernels). Too small for the
  paper's quantitative claims; use it when only cycle-level behaviour
  matters.
* ``quick`` — seconds-scale runs for CI and tests. Working sets are
  shrunk with cache geometry shrunk proportionally, so the qualitative
  relationships survive.
* ``full``  — the benchmark-harness profile: scaled-down analogues of
  the paper's setup (Table 3 geometry at 1/4 scale, working sets sized
  several times larger than the caches, like the paper's 100 GB TPC-H
  dataset vs a 256 KB cache).

Everything is deterministic by seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..core.config import XCacheConfig, table3_config
from ..dsa.widx import WidxWorkload
from ..workloads.tpch import TPCH_QUERIES, make_widx_workload

__all__ = ["Profile", "PROFILES", "get_profile", "derive_profile",
           "ensure_profile"]


@dataclass(frozen=True)
class Profile:
    """Sizing knobs shared by the figure drivers."""

    name: str
    cache_scale: float          # Table-3 geometry scale factor
    widx_keys: int
    widx_probes: int
    widx_skew: float
    dasx_keys: int
    dasx_probes: int
    graph_scale: float          # of p2p-Gnutella08 for GraphPulse
    spgemm_n: int               # SpGEMM matrix dimension (A, B are n x n)
    spgemm_nnz_per_row: int     # SpGEMM density (paper regime: multi-block rows)
    spgemm_cache_scale: float   # SpArch/Gamma geometry scale (data RAM must
                                # cover the preload window of multi-block rows)
    graph_pes: int
    seed: int = 7

    def xcache_config(self, dsa: str) -> XCacheConfig:
        if dsa in ("sparch", "gamma"):
            config = table3_config(dsa, scale=self.spgemm_cache_scale)
        else:
            config = table3_config(dsa, scale=self.cache_scale)
        return config

    def widx_workload(self, query: str) -> WidxWorkload:
        if query not in TPCH_QUERIES:
            raise KeyError(f"unknown query {query!r}")
        hash_cycles, skew, load_factor = TPCH_QUERIES[query]
        buckets = 1
        while buckets < self.widx_keys / load_factor:
            buckets *= 2
        return make_widx_workload(
            num_keys=self.widx_keys,
            num_probes=self.widx_probes,
            num_buckets=buckets,
            skew=skew + (self.widx_skew - 1.3),  # profile-level skew shift

            hash_cycles=hash_cycles,
            seed=self.seed,
            name=query,
        )

    def dasx_workload(self) -> WidxWorkload:
        return make_widx_workload(
            num_keys=self.dasx_keys,
            num_probes=self.dasx_probes,
            num_buckets=self.dasx_keys // 2,
            skew=1.3,
            hash_cycles=30,     # DASX couples hashing into the walk
            seed=self.seed + 1,
            name="dasx",
        )


PROFILES: Dict[str, Profile] = {
    "ci": Profile(
        name="ci",
        cache_scale=0.0625,
        widx_keys=1024,
        widx_probes=2048,
        widx_skew=1.4,
        dasx_keys=1024,
        dasx_probes=1024,
        graph_scale=0.04,
        spgemm_n=256,
        spgemm_nnz_per_row=8,
        spgemm_cache_scale=0.25,
        graph_pes=4,
    ),
    "quick": Profile(
        name="quick",
        cache_scale=0.0625,     # 512-entry Widx cache
        widx_keys=4096,
        widx_probes=8192,
        widx_skew=1.4,
        dasx_keys=4096,
        dasx_probes=4096,
        graph_scale=0.08,
        spgemm_n=512,
        spgemm_nnz_per_row=12,
        spgemm_cache_scale=0.25,
        graph_pes=8,
    ),
    "full": Profile(
        name="full",
        cache_scale=0.25,       # 2048-entry Widx cache, 64 KB data
        widx_keys=16384,
        widx_probes=24576,
        widx_skew=1.35,
        dasx_keys=16384,
        dasx_probes=16384,
        graph_scale=0.3,
        spgemm_n=2048,
        spgemm_nnz_per_row=12,
        spgemm_cache_scale=0.5,
        graph_pes=8,
    ),
}


def get_profile(name: str) -> Profile:
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; have {sorted(PROFILES)}")
    return PROFILES[name]


def derive_profile(base: str, overrides: Dict[str, object],
                   name: Optional[str] = None) -> Profile:
    """A named profile with some fields replaced — the service sweep's
    parameter-grid points.

    The derived name is deterministic in (base, overrides), so two
    workers materializing the same sweep point agree on it, and so the
    fig-14 suite cache (keyed by profile name + code version) stays
    correct across processes.
    """
    base_profile = get_profile(base)
    unknown = sorted(set(overrides) - set(Profile.__dataclass_fields__))
    if unknown:
        raise KeyError(f"unknown profile field(s) {unknown}; "
                       f"have {sorted(Profile.__dataclass_fields__)}")
    if name is None:
        from ..svc.store import digest_of

        name = f"{base}+{digest_of(sorted([k, v] for k, v in overrides.items()))[:8]}"
    return replace(base_profile, name=name, **overrides)


def ensure_profile(profile: Profile) -> str:
    """Register ``profile`` under its name (idempotent); returns the
    name, ready to hand to ``run_experiment``/``run_fig14_suite``."""
    existing = PROFILES.get(profile.name)
    if existing is not None and existing != profile:
        raise ValueError(f"profile name collision: {profile.name!r} is "
                         f"already registered with different values")
    PROFILES[profile.name] = profile
    return profile.name
