"""Lightweight statistics containers shared by all models.

Every timed component keeps a :class:`StatGroup` of named counters and
histograms. The experiment harness aggregates these into the rows the
paper's figures report (memory accesses, action counts, occupancy, energy
events).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "StatGroup",
    "geomean",
]


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A sparse histogram over integer-ish keys with basic moments."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = defaultdict(int)
        self.total = 0
        self.count = 0
        self.min_seen: int = 0
        self.max_seen: int = 0

    def add(self, value: int, weight: int = 1) -> None:
        self.buckets[value] += weight
        self.total += value * weight
        if self.count == 0:
            self.min_seen = self.max_seen = value
        else:
            if value < self.min_seen:
                self.min_seen = value
            if value > self.max_seen:
                self.max_seen = value
        self.count += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Return the smallest value covering fraction ``p`` of samples.

        An empty histogram reports 0 for any valid ``p`` (renderers show
        a placeholder instead of a misleading zero); an out-of-range
        ``p`` raises even when empty.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile {p} outside [0, 1]")
        if not self.count:
            return 0
        need = p * self.count
        seen = 0
        for value in sorted(self.buckets):
            seen += self.buckets[value]
            if seen >= need:
                return value
        return self.max_seen

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self.buckets.items())

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram's samples (order-independent)."""
        for value, weight in other.buckets.items():
            self.add(value, weight)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Histogram({self.name}, n={self.count}, mean={self.mean:.2f}, "
                f"range=[{self.min_seen},{self.max_seen}])")


class StatGroup:
    """A namespaced bag of counters and histograms."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def inc(self, name: str, amount: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        counter.value += amount

    def get(self, name: str, default: int = 0) -> int:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def as_dict(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self.counters.items())}

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatGroup({self.name}, {self.as_dict()})"


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, used for the paper's cross-DSA speedup summaries."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    log_sum = 0.0
    for v in vals:
        import math
        log_sum += math.log(v)
    import math
    return math.exp(log_sum / len(vals))
