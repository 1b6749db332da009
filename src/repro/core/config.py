"""X-Cache configuration (the Chisel generator's parameter surface).

The paper's generator exposes: the meta-tag field set, `#Active` (number
of X-register contexts = concurrent walkers), `#Exe` (actions retired
per cycle), meta-tag geometry (ways × sets), data-RAM geometry (sectors,
`#wlen` words per hit), and the I/O set. Routine-table / microcode-RAM
sizes are derived from the compiled walker (§7.1: "implicitly set based
on the walker coroutines").

Table 3 presets are provided verbatim via :func:`table3_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

__all__ = ["XCacheConfig", "TABLE3", "table3_config"]


@dataclass(frozen=True)
class XCacheConfig:
    """Parameters of one X-Cache instance."""

    # controller
    num_active: int = 8        # #Active: X-register contexts / concurrent walkers
    num_exe: int = 4           # #Exe: actions retired per cycle
    xregs_per_walker: int = 8  # temporaries per context
    hit_latency: int = 3       # paper §4.2: 3-cycle load-to-use on a hit
    hit_ports: int = 1         # dedicated hit read ports (fully pipelined)
    sched_window: int = 8      # MetaIO entries the trigger stage scans per
    #                            cycle (1 = strict head-of-line blocking)

    # meta-tag array
    ways: int = 8
    sets: int = 64
    tag_fields: Tuple[str, ...] = ("key",)
    tag_bytes: int = 8         # meta-tag width in bytes (energy model)

    # data RAM
    sector_bytes: int = 8      # fixed sector granularity
    sectors_per_entry_max: int = 64
    data_sectors: int = 4096   # total data RAM capacity in sectors
    wlen: int = 4              # #Word: words supplied to the datapath per hit

    # DRAM interface
    block_bytes: int = 64
    max_outstanding_fills: int = 32

    name: str = "xcache"

    def __post_init__(self) -> None:
        if self.sets & (self.sets - 1):
            raise ValueError("sets must be a power of two")
        if self.num_active <= 0 or self.num_exe <= 0:
            raise ValueError("num_active and num_exe must be positive")
        if not self.tag_fields:
            raise ValueError("at least one meta-tag field is required")
        if self.data_sectors <= 0 or self.sector_bytes <= 0:
            raise ValueError("data RAM must have capacity")

    @property
    def entries(self) -> int:
        return self.ways * self.sets

    @property
    def data_bytes(self) -> int:
        return self.data_sectors * self.sector_bytes

    @property
    def meta_bytes(self) -> int:
        """Total meta-tag storage (tag + state/pointer overhead) in bytes."""
        # tag + 2 sector pointers (2B each) + state/valid/active byte
        return self.entries * (self.tag_bytes + 5)

    def scaled(self, factor: float) -> "XCacheConfig":
        """Scale geometry down for fast CI runs (sets and data sectors)."""
        if factor <= 0 or factor > 1:
            raise ValueError("factor must be in (0, 1]")
        new_sets = max(1, int(self.sets * factor))
        # keep power of two
        while new_sets & (new_sets - 1):
            new_sets += 1
        return replace(
            self,
            sets=new_sets,
            data_sectors=max(64, int(self.data_sectors * factor)),
        )


# Table 3 of the paper: pareto-optimal geometry per DSA.
# columns: #Active, #Exe, #Way, #Set, #Word
TABLE3: Dict[str, Tuple[int, int, int, int, int]] = {
    "widx": (16, 2, 8, 1024, 4),
    "dasx": (16, 4, 8, 1024, 4),
    "sparch": (32, 4, 8, 512, 4),
    "gamma": (32, 4, 8, 512, 4),
    "graphpulse": (16, 4, 1, 131072, 8),
}

_TAG_FIELDS: Dict[str, Tuple[str, ...]] = {
    "widx": ("key",),
    "dasx": ("key",),
    "sparch": ("row",),       # row id of matrix B (the paper's col idx of A)
    "gamma": ("row",),
    "graphpulse": ("vertex",),
}


def table3_config(dsa: str, scale: float = 1.0) -> XCacheConfig:
    """Return the paper's Table-3 geometry for ``dsa``.

    ``scale`` shrinks sets/data-RAM for CI-speed runs while preserving
    associativity and controller parallelism (the quantities the
    evaluation sweeps).
    """
    key = dsa.lower()
    if key not in TABLE3:
        raise KeyError(f"unknown DSA {dsa!r}; have {sorted(TABLE3)}")
    active, exe, ways, sets, word = TABLE3[key]
    config = XCacheConfig(
        num_active=active,
        num_exe=exe,
        xregs_per_walker=16,
        ways=ways,
        sets=sets,
        wlen=word,
        tag_fields=_TAG_FIELDS[key],
        # data RAM sized to hold every entry at one sector per word
        data_sectors=ways * sets * word,
        name=f"xcache-{key}",
    )
    if scale != 1.0:
        config = config.scaled(scale)
    return config
