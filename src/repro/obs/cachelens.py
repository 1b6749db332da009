"""Cache-contents observability (``repro.obs.cachelens``).

Everything before this module answers *where did the time go*; this one
answers *why did the cache miss*. A :class:`CacheLensProcessor` rides
the event bus next to the other processors and maintains, per
publishing cache (a meta-tag array or an
:class:`~repro.mem.addrcache.AddressCache`):

* a **miss taxonomy** — every classified miss is exactly one of
  *compulsory* (tag never seen before), *conflict* (a same-capacity
  fully-associative LRU shadow still holds the tag, so only the set
  mapping lost it), or *capacity* (even infinite associativity would
  have evicted it). ``compulsory + capacity + conflict == misses`` by
  construction;
* **would-have-hit-if** shadows — a 2×-ways and a 2×-sets
  set-associative LRU shadow answer the question a designer actually
  asks: would this miss have hit with more ways (conflict pressure) or
  with more sets (index pressure)?;
* **reuse-distance histograms** — Mattson stack distance over the FA
  shadow, in power-of-two buckets, grouped per cache and per tag-field
  class (``reuse_sample=N`` computes the O(distance) scan on every Nth
  access; the LRU order itself is maintained always, in O(1));
* **per-set heatmaps** — windowed occupancy / fill / eviction-pressure
  rows per set (CSV via
  :func:`repro.obs.timeseries.write_heatmap_csv`, Perfetto counter
  tracks via the exporter).

Shadow semantics: program-intent invalidations (``CacheEvict`` with
``reason="dealloc"`` — DEALLOCM, take-loads, sector reclaim) remove the
tag from every shadow, so a later re-access is classified *capacity*
(the entry was not lost to the set mapping). Replacement evictions
("conflict"/"replace") deliberately do **not** touch the FA shadow —
that asymmetry is the classifier.

Geometry arrives in-band as a :class:`~repro.obs.events.CacheModel`
event published before a cache's first access/fill, so the lens works
identically live on a bus and replaying a JSONL capture
(``python -m repro.obs.explain --misses``).

Summaries merge order-independently (plain counter sums) so
``--parallel`` captures and service workers fold without coordination:
see :meth:`CacheLensProcessor.summary` and :func:`merge_summaries`.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import indexOf
from typing import Callable, Dict, List, Optional, Tuple

from .events import (
    CacheAccess,
    CacheEvict,
    CacheFill,
    CacheModel,
    Hit,
    Merge,
    Miss,
    Tag,
)

__all__ = ["CacheLensProcessor", "ShadowCache", "merge_summaries",
           "why_miss_report", "MISS_CLASSES", "reuse_bucket_label",
           "DEFAULT_REUSE_SAMPLE"]

#: The three exclusive miss classes (conservation: they sum to misses).
MISS_CLASSES: Tuple[str, ...] = ("compulsory", "capacity", "conflict")

#: Default Mattson-scan sampling rate (1:N systematic; 1 = exact).
DEFAULT_REUSE_SAMPLE = 8

_FOLD = 0x9E3779B97F4A7C15


def _meta_set_fn(sets: int) -> Callable[[Tag], int]:
    """Replicates :meth:`repro.core.metatag.MetaTagArray.set_of` for an
    arbitrary (power-of-two) set count."""
    mask = sets - 1

    def set_of(tag: Tag) -> int:
        index = tag[0]
        for extra in tag[1:]:
            index ^= (extra * _FOLD) >> 16
        return index & mask

    return set_of


def _addr_set_fn(sets: int, block_bytes: int) -> Callable[[Tag], int]:
    """Replicates :meth:`repro.mem.addrcache.AddressCache._set_index`
    (the tag tuple carries the block address)."""
    mask = sets - 1

    def set_of(tag: Tag) -> int:
        return (tag[0] // block_bytes) & mask

    return set_of


class ShadowCache:
    """A set-associative LRU shadow directory (tags only, no data).

    ``access`` reports whether the tag was resident *before* making it
    MRU (installing and evicting LRU as needed) — one call is both the
    probe and the update, so classification can never observe its own
    side effect.
    """

    def __init__(self, ways: int, sets: int,
                 set_fn: Callable[[Tag], int]) -> None:
        self.ways = ways
        self.sets = sets
        self._set_fn = set_fn
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(sets)]

    def access(self, tag: Tag) -> bool:
        entries = self._sets[self._set_fn(tag)]
        hit = tag in entries
        if hit:
            entries.move_to_end(tag)
        else:
            entries[tag] = None
            if len(entries) > self.ways:
                entries.popitem(last=False)
        return hit

    def invalidate(self, tag: Tag) -> None:
        entries = self._sets[self._set_fn(tag)]
        entries.pop(tag, None)


class _FullyAssociative:
    """Same-capacity fully-associative LRU shadow (the Mattson stack).

    ``capacity=None`` (geometry not yet announced) never evicts; the
    stack is trimmed when the capacity arrives.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self._stack: OrderedDict = OrderedDict()   # LRU first, MRU last

    def __contains__(self, tag: Tag) -> bool:
        return tag in self._stack

    def set_capacity(self, capacity: int) -> None:
        self.capacity = capacity
        while len(self._stack) > capacity:
            self._stack.popitem(last=False)

    def distance(self, tag: Tag) -> int:
        """Stack distance from MRU (0 = re-reference of the MRU tag);
        -1 when the tag is not resident. O(distance) reverse scan,
        done in C via :func:`operator.indexOf` over the reversed view."""
        if tag not in self._stack:
            return -1
        return indexOf(reversed(self._stack), tag)

    def access(self, tag: Tag) -> bool:
        hit = tag in self._stack
        if hit:
            self._stack.move_to_end(tag)
        else:
            self._stack[tag] = None
            if self.capacity is not None and len(self._stack) > self.capacity:
                self._stack.popitem(last=False)
        return hit

    def invalidate(self, tag: Tag) -> None:
        self._stack.pop(tag, None)


def reuse_bucket_label(bucket: int) -> str:
    """Human label for a power-of-two reuse-distance bucket index."""
    if bucket < 0:
        return "inf"
    if bucket == 0:
        return "0"
    lo = 1 << (bucket - 1)
    hi = (1 << bucket) - 1
    return str(lo) if lo == hi else f"{lo}-{hi}"


class _LensState:
    """Everything the lens tracks for one publishing cache."""

    def __init__(self, component: str) -> None:
        self.component = component
        self.kind: Optional[str] = None       # "meta" | "addr"
        self.ways = 0
        self.sets = 0
        self.tag_class = ""
        # taxonomy counters
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.merges = 0
        self.nowalk = 0
        self.stalls = 0
        self.by_class: Dict[str, int] = {c: 0 for c in MISS_CLASSES}
        self.would_ways = 0                   # miss would hit with 2x ways
        self.would_sets = 0                   # miss would hit with 2x sets
        # shadows (sized when CacheModel arrives)
        self.seen: set = set()
        self.fa = _FullyAssociative()
        self.shadow_ways: Optional[ShadowCache] = None
        self.shadow_sets: Optional[ShadowCache] = None
        # reuse-distance histogram: power-of-two bucket index -> count,
        # -1 = infinite (first reference / post-invalidate)
        self.reuse: Dict[int, int] = {}
        self._sample_tick = 0
        # per-set conflict pressure (why-miss "top conflict sets")
        self.conflict_sets: Dict[int, int] = {}
        # heatmap: running per-set occupancy + per-window activity
        self.occupancy: Dict[int, int] = {}
        self.heat_rows: List[Dict[str, int]] = []
        self._hwin: Optional[int] = None
        self._fills_w: Dict[int, int] = {}
        self._evicts_w: Dict[int, int] = {}

    # -- geometry -------------------------------------------------------
    def set_geometry(self, ev: CacheModel) -> None:
        self.kind = ev.kind
        self.ways, self.sets = ev.ways, ev.sets
        self.tag_class = ev.tag_class or ev.kind
        self.fa.set_capacity(ev.ways * ev.sets)
        if ev.kind == "addr":
            block = max(ev.block_bytes, 1)
            make = lambda sets: _addr_set_fn(sets, block)  # noqa: E731
        else:
            make = _meta_set_fn
        self.shadow_ways = ShadowCache(2 * ev.ways, ev.sets,
                                       make(ev.sets))
        self.shadow_sets = ShadowCache(ev.ways, 2 * ev.sets,
                                       make(2 * ev.sets))

    # -- access/classification -----------------------------------------
    def _sample_reuse(self, tag: Tag, sample_every: int) -> None:
        self._sample_tick += 1
        if self._sample_tick % sample_every:
            return
        distance = self.fa.distance(tag)
        bucket = -1 if distance < 0 else distance.bit_length()
        self.reuse[bucket] = self.reuse.get(bucket, 0) + 1

    def touch(self, tag: Tag, sample_every: int) -> None:
        """A non-classified access (hit / merge): update every shadow.

        This is the armed hot path (one call per hit), so the FA and
        sampling bodies are inlined rather than delegated. Every tag in
        the FA stack is also in ``seen`` (both insert together;
        ``invalidate`` only removes from the stack), so the resident
        branch skips the set add.
        """
        self.accesses += 1
        fa = self.fa
        stack = fa._stack
        resident = tag in stack
        self._sample_tick += 1
        if not self._sample_tick % sample_every:
            if resident:
                # C-speed scan: ~3x a hand-rolled loop at fig-scale depths
                bucket = indexOf(reversed(stack), tag).bit_length()
            else:
                bucket = -1
            self.reuse[bucket] = self.reuse.get(bucket, 0) + 1
        if resident:
            stack.move_to_end(tag)
        else:
            self.seen.add(tag)
            stack[tag] = None
            capacity = fa.capacity
            if capacity is not None and len(stack) > capacity:
                stack.popitem(last=False)
        shadow = self.shadow_ways
        if shadow is not None:
            # both shadow updates inlined (ShadowCache.access without
            # the probe result): two calls per hit add up
            entries = shadow._sets[shadow._set_fn(tag)]
            if tag in entries:
                entries.move_to_end(tag)
            else:
                entries[tag] = None
                if len(entries) > shadow.ways:
                    entries.popitem(last=False)
            shadow = self.shadow_sets
            entries = shadow._sets[shadow._set_fn(tag)]
            if tag in entries:
                entries.move_to_end(tag)
            else:
                entries[tag] = None
                if len(entries) > shadow.ways:
                    entries.popitem(last=False)

    def classify(self, tag: Tag, set_index: int, sample_every: int) -> str:
        """A classified (primary) miss: probe-then-update every shadow."""
        self.accesses += 1
        self.misses += 1
        self._sample_reuse(tag, sample_every)
        if tag not in self.seen:
            self.seen.add(tag)
            cls = "compulsory"
        elif tag in self.fa:
            cls = "conflict"
        else:
            cls = "capacity"
        self.fa.access(tag)
        if self.shadow_ways is not None:
            if self.shadow_ways.access(tag) and cls != "compulsory":
                self.would_ways += 1
            if self.shadow_sets.access(tag) and cls != "compulsory":
                self.would_sets += 1
        self.by_class[cls] += 1
        if cls == "conflict" and set_index >= 0:
            self.conflict_sets[set_index] = (
                self.conflict_sets.get(set_index, 0) + 1)
        return cls

    def invalidate(self, tag: Tag) -> None:
        """Program-intent removal: the tag leaves every shadow (its next
        miss is capacity, not conflict), but stays in ``seen``."""
        self.fa.invalidate(tag)
        if self.shadow_ways is not None:
            self.shadow_ways.invalidate(tag)
            self.shadow_sets.invalidate(tag)

    # -- heatmap --------------------------------------------------------
    def _heat_roll(self, cycle: int, window: int) -> None:
        w = cycle // window
        if self._hwin is None:
            self._hwin = w
        while self._hwin < w:
            self._heat_flush(window)
            self._hwin += 1

    def _heat_flush(self, window: int) -> None:
        start = self._hwin * window
        live = {s for s, occ in self.occupancy.items() if occ > 0}
        for set_index in sorted(live | set(self._fills_w)
                                | set(self._evicts_w)):
            self.heat_rows.append({
                "window_start": start,
                "window_end": start + window,
                "set": set_index,
                "occupancy": self.occupancy.get(set_index, 0),
                "fills": self._fills_w.get(set_index, 0),
                "evicts": self._evicts_w.get(set_index, 0),
            })
        self._fills_w = {}
        self._evicts_w = {}

    def heat_fill(self, cycle: int, set_index: int, window: int) -> None:
        self._heat_roll(cycle, window)
        self.occupancy[set_index] = self.occupancy.get(set_index, 0) + 1
        self._fills_w[set_index] = self._fills_w.get(set_index, 0) + 1

    def heat_evict(self, cycle: int, set_index: int, window: int) -> None:
        self._heat_roll(cycle, window)
        occ = self.occupancy.get(set_index, 0)
        if occ > 0:
            self.occupancy[set_index] = occ - 1
        self._evicts_w[set_index] = self._evicts_w.get(set_index, 0) + 1

    def heat_close(self, window: int) -> None:
        if self._hwin is not None and (self._fills_w or self._evicts_w
                                       or self.occupancy):
            self._heat_flush(window)
            self._hwin += 1

    # -- reporting ------------------------------------------------------
    def hit_rate(self) -> float:
        if self.kind == "addr":
            total = self.hits + self.misses + self.merges + self.stalls
        else:
            # mirrors Controller.hit_rate(): merges are neither
            total = self.hits + self.misses + self.nowalk
        return self.hits / total if total else 0.0

    def summary(self) -> Dict[str, object]:
        misses = self.misses
        out: Dict[str, object] = {
            "kind": self.kind or "meta",
            "tag_class": self.tag_class,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": misses,
            "merges": self.merges,
            "nowalk": self.nowalk,
            "stalls": self.stalls,
            "hit_rate": self.hit_rate(),
            "conflict_share": (self.by_class["conflict"] / misses
                               if misses else 0.0),
            "would_hit_more_ways": self.would_ways,
            "would_hit_more_sets": self.would_sets,
            "reuse": {reuse_bucket_label(b): n
                      for b, n in sorted(self.reuse.items())},
            "conflict_sets": dict(self.conflict_sets),
        }
        out.update(self.by_class)
        return out


class CacheLensProcessor:
    """Folds the cache event streams into the lens state per cache.

    ``reuse_sample`` bounds the Mattson scan cost: the stack order is
    maintained on every access, the O(distance) distance computation
    runs on every Nth. The default (:data:`DEFAULT_REUSE_SAMPLE`) is a
    1:8 systematic sample — the histogram keeps its shape at a fraction
    of the scan cost; pass ``1`` for an exact profile. Sampling is
    deterministic per cache, so a JSONL replay at the same rate
    reproduces the live histogram bit for bit. ``heatmap_window`` is
    the per-set sampling window in cycles.
    """

    def __init__(self, reuse_sample: int = DEFAULT_REUSE_SAMPLE,
                 heatmap_window: int = 1000) -> None:
        if reuse_sample < 1:
            raise ValueError(f"reuse_sample must be >= 1, "
                             f"got {reuse_sample}")
        if heatmap_window < 1:
            raise ValueError(f"heatmap_window must be >= 1, "
                             f"got {heatmap_window}")
        self.reuse_sample = reuse_sample
        self.heatmap_window = heatmap_window
        self._states: "OrderedDict[str, _LensState]" = OrderedDict()
        self._closed = False

    def _state(self, component: str) -> _LensState:
        state = self._states.get(component)
        if state is None:
            state = self._states[component] = _LensState(component)
        return state

    # -- handlers: geometry --------------------------------------------
    def on_cache_model(self, ev: CacheModel) -> None:
        self._state(ev.component).set_geometry(ev)

    # -- handlers: the meta-tag access stream --------------------------
    def on_hit(self, ev: Hit) -> None:
        state = self._states.get(ev.component)   # hot path: skip the
        if state is None:                        # _state call per event
            state = self._state(ev.component)
        if not ev.status:
            state.nowalk += 1      # negative answer, nothing installed
            return
        state.hits += 1
        state.touch(ev.tag, self.reuse_sample)

    def on_miss(self, ev: Miss) -> None:
        self._state(ev.component).classify(ev.tag, ev.set_index,
                                           self.reuse_sample)

    def on_merge(self, ev: Merge) -> None:
        state = self._state(ev.component)
        state.merges += 1
        state.touch(ev.tag, self.reuse_sample)

    # -- handlers: the address-cache access stream ---------------------
    def on_cache_access(self, ev: CacheAccess) -> None:
        state = self._states.get(ev.component)
        if state is None:
            state = self._state(ev.component)
        if ev.outcome == "hit":
            state.hits += 1
            state.touch(ev.tag, self.reuse_sample)
        elif ev.outcome == "miss":
            state.classify(ev.tag, ev.set_index, self.reuse_sample)
        elif ev.outcome == "merge":
            state.merges += 1
            state.touch(ev.tag, self.reuse_sample)
        else:                      # "mshr_stall": the access will retry
            state.stalls += 1

    # -- handlers: contents churn (heatmap + invalidations) ------------
    def on_cache_fill(self, ev: CacheFill) -> None:
        state = self._state(ev.component)
        state.seen.add(ev.tag)     # warm preloads count as references
        state.fa.access(ev.tag)
        if state.shadow_ways is not None:
            state.shadow_ways.access(ev.tag)
            state.shadow_sets.access(ev.tag)
        state.heat_fill(ev.cycle, ev.set_index, self.heatmap_window)

    def on_cache_evict(self, ev: CacheEvict) -> None:
        state = self._state(ev.component)
        if ev.reason == "dealloc":
            state.invalidate(ev.tag)
        state.heat_evict(ev.cycle, ev.set_index, self.heatmap_window)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for state in self._states.values():
            state.heat_close(self.heatmap_window)

    # -- inspection -----------------------------------------------------
    @property
    def components(self) -> Tuple[str, ...]:
        return tuple(self._states)

    def state(self, component: str) -> Optional[_LensState]:
        return self._states.get(component)

    def heat_rows(self) -> List[Tuple[str, Dict[str, int]]]:
        """(component, row) pairs for the heatmap CSV writer."""
        self.close()
        return [(name, row) for name, state in self._states.items()
                for row in state.heat_rows]

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-cache summary dict (mergeable: :func:`merge_summaries`)."""
        return {name: state.summary()
                for name, state in self._states.items()}

    def top_conflict_sets(self, component: str, k: int = 5
                          ) -> List[Tuple[int, int]]:
        state = self._states.get(component)
        if state is None:
            return []
        return _rank_sets(state.conflict_sets, k)

    def report(self) -> str:
        """Text block for the harness report / explain CLI."""
        return why_miss_report(self.summary())


def _rank_sets(counts: Dict[int, int], k: int) -> List[Tuple[int, int]]:
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def why_miss_report(summary: Dict[str, Dict[str, object]],
                    k: int = 5) -> str:
    """Render the why-miss text block from a (possibly merged) summary.

    Works on live processor output and on
    :func:`merge_summaries`-folded dicts from ``--parallel`` workers;
    each cache's ``conflict_sets`` names its ``k`` hottest sets.
    """
    from repro.harness.report import why_miss_table

    lines = ["-- why-miss (repro.obs.cachelens) --"]
    total = sum(s["misses"] for s in summary.values())
    classified = sum(sum(s[c] for c in MISS_CLASSES)
                     for s in summary.values())
    lines.append(f"caches={len(summary)} misses={total} "
                 f"classified={classified} conservation="
                 + ("ok" if total == classified else "BROKEN"))
    table = why_miss_table(summary)
    if table:
        lines.append(table)
    for name in summary:
        top = _rank_sets(summary[name].get("conflict_sets", {}), k)
        if top:
            detail = " ".join(f"set{idx}={count}" for idx, count in top)
            lines.append(f"  {name} hottest conflict sets: {detail}")
    reuse = _merge_reuse(summary)
    for tag_class in sorted(reuse):
        hist = reuse[tag_class]
        rendered = " ".join(
            f"{label}:{hist[label]}"
            for label in sorted(hist, key=_reuse_sort_key))
        lines.append(f"  reuse[{tag_class}]: {rendered}")
    return "\n".join(lines)


def _reuse_sort_key(label: str) -> Tuple[int, int]:
    if label == "inf":
        return (1, 0)
    return (0, int(label.split("-")[0]))


def _merge_reuse(summary: Dict[str, Dict[str, object]]
                 ) -> Dict[str, Dict[str, int]]:
    """Reuse histograms aggregated per tag-field class."""
    out: Dict[str, Dict[str, int]] = {}
    for entry in summary.values():
        hist = out.setdefault(str(entry.get("tag_class", "")), {})
        for label, count in entry.get("reuse", {}).items():
            hist[label] = hist.get(label, 0) + count
    return out


#: summary counters that sum across runs/workers (everything else is
#: derived or configuration)
_SUM_KEYS = ("accesses", "hits", "misses", "merges", "nowalk", "stalls",
             "would_hit_more_ways", "would_hit_more_sets") + MISS_CLASSES


def merge_summaries(summaries) -> Dict[str, Dict[str, object]]:
    """Fold per-run :meth:`CacheLensProcessor.summary` dicts into one.

    Pure counter sums keyed by component name (the reuse histogram and
    per-set conflict counts included) — commutative and associative,
    so ``--parallel`` workers and repeated service jobs merge
    order-independently. Derived ratios (hit_rate, conflict_share) are
    recomputed from the summed counters.
    """
    merged: Dict[str, Dict[str, object]] = {}
    for summary in summaries:
        for name in summary:
            entry = summary[name]
            slot = merged.get(name)
            if slot is None:
                slot = merged[name] = {
                    "kind": entry.get("kind", "meta"),
                    "tag_class": entry.get("tag_class", ""),
                    "reuse": {},
                    "conflict_sets": {},
                }
                for key in _SUM_KEYS:
                    slot[key] = 0
            for key in _SUM_KEYS:
                slot[key] += entry.get(key, 0)
            for field in ("reuse", "conflict_sets"):
                counts = slot[field]
                for bucket, count in entry.get(field, {}).items():
                    counts[bucket] = counts.get(bucket, 0) + count
    for slot in merged.values():
        if slot["kind"] == "addr":
            total = (slot["hits"] + slot["misses"] + slot["merges"]
                     + slot["stalls"])
        else:
            total = slot["hits"] + slot["misses"] + slot["nowalk"]
        slot["hit_rate"] = slot["hits"] / total if total else 0.0
        slot["conflict_share"] = (slot["conflict"] / slot["misses"]
                                  if slot["misses"] else 0.0)
    return merged
