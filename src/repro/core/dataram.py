"""The sectored data RAM.

"Logically, the data RAM is organized as fixed-granularity sectors.
Each data element can occupy multiple sectors depending on the size
(e.g., number of non-zeros in a row)." (§4.1 y6)

Sectors are allocated as contiguous [start, end) ranges so a meta-tag
entry can locate its payload with two pointers. Allocation is first-fit
over a free-range list; misses that cannot get sectors back-pressure the
walker (ALLOCD retries).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.stats import StatGroup

__all__ = ["DataRAM"]


class DataRAM:
    """Sector-granular on-chip data store."""

    def __init__(self, num_sectors: int, sector_bytes: int,
                 access_bytes: int = 32) -> None:
        if num_sectors <= 0 or sector_bytes <= 0:
            raise ValueError("data RAM needs positive geometry")
        self.num_sectors = num_sectors
        self.sector_bytes = sector_bytes
        # The physical access width (#wlen words): reads are charged in
        # units of this banked width (energy model).
        self.access_bytes = max(access_bytes, sector_bytes)
        self._storage = bytearray(num_sectors * sector_bytes)
        # free ranges as sorted, disjoint [start, end) pairs
        self._free: List[Tuple[int, int]] = [(0, num_sectors)]
        self.stats = StatGroup("data-ram")

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nsectors: int) -> Optional[int]:
        """First-fit allocate ``nsectors`` contiguous sectors.

        Returns the start sector, or None when no contiguous range fits
        (the walker must free or stall).
        """
        if nsectors <= 0:
            raise ValueError(f"allocation of {nsectors} sectors")
        for i, (start, end) in enumerate(self._free):
            if end - start >= nsectors:
                if end - start == nsectors:
                    self._free.pop(i)
                else:
                    self._free[i] = (start + nsectors, end)
                self.stats.inc("allocations")
                self.stats.inc("sectors_allocated", nsectors)
                return start
        self.stats.inc("alloc_failures")
        return None

    def can_alloc(self, nsectors: int) -> bool:
        """True when a contiguous range of ``nsectors`` is available."""
        return any(end - start >= nsectors for start, end in self._free)

    def free(self, start: int, nsectors: int) -> None:
        """Release [start, start+nsectors) and coalesce neighbours."""
        if nsectors <= 0:
            return
        end = start + nsectors
        if not (0 <= start < end <= self.num_sectors):
            raise ValueError(f"free range [{start},{end}) outside RAM")
        # insert keeping order, then coalesce
        ranges = self._free
        pos = 0
        while pos < len(ranges) and ranges[pos][0] < start:
            pos += 1
        if pos > 0 and ranges[pos - 1][1] > start:
            raise ValueError(f"double free overlapping {ranges[pos - 1]}")
        if pos < len(ranges) and ranges[pos][0] < end:
            raise ValueError(f"double free overlapping {ranges[pos]}")
        ranges.insert(pos, (start, end))
        # coalesce with previous / next
        merged: List[Tuple[int, int]] = []
        for r in ranges:
            if merged and merged[-1][1] == r[0]:
                merged[-1] = (merged[-1][0], r[1])
            else:
                merged.append(r)
        self._free = merged
        self.stats.inc("frees")
        self.stats.inc("sectors_freed", nsectors)

    @property
    def free_sectors(self) -> int:
        return sum(end - start for start, end in self._free)

    @property
    def used_sectors(self) -> int:
        return self.num_sectors - self.free_sectors

    # ------------------------------------------------------------------
    # data movement (tracked for the energy model)
    # ------------------------------------------------------------------
    def write_sector(self, sector: int, data: bytes, offset: int = 0) -> None:
        if not 0 <= sector < self.num_sectors:
            raise IndexError(f"sector {sector} outside RAM")
        if offset + len(data) > self.sector_bytes:
            raise ValueError(
                f"{len(data)}B at offset {offset} overflows "
                f"{self.sector_bytes}B sector"
            )
        base = sector * self.sector_bytes + offset
        self._storage[base:base + len(data)] = data
        self.stats.inc("bytes_written", len(data))

    def read_sectors(self, start: int, end: int) -> bytes:
        """Read sectors [start, end) — the hit-port data return."""
        if not (0 <= start <= end <= self.num_sectors):
            raise IndexError(f"range [{start},{end}) outside RAM")
        lo = start * self.sector_bytes
        hi = end * self.sector_bytes
        self.stats.inc("bytes_read", hi - lo)
        self.stats.inc("read_accesses",
                       max(1, -(-(hi - lo) // self.access_bytes)))
        return bytes(self._storage[lo:hi])

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DataRAM({self.num_sectors}x{self.sector_bytes}B, "
                f"used={self.used_sectors})")
