#!/usr/bin/env python
"""Why did the cache miss?  A guided tour of `repro.obs.cachelens`.

A deliberately tiny X-Cache (2 ways x 8 sets = 16 meta-tag entries)
is driven through three access phases with known behaviour:

1. **cold + warm** — 8 tags, one per set, touched twice: the first
   pass is all compulsory misses, the second all hits;
2. **conflict thrash** — 4 tags that all land in set 0 (the meta-tag
   set index is ``tag & (sets-1)``, so 32, 40, 48, 56 collide),
   cycled repeatedly: the working set fits the cache *capacity* with
   room to spare but not the 2 ways of one set, so every revisit is a
   conflict miss;
3. **capacity stream** — 24 distinct tags (1.5x the cache) cycled
   twice: the second pass misses even in a fully-associative cache of
   equal size, so those misses are capacity, not conflict.

The lens classifies every miss by replaying the same stream through
shadow caches (a fully-associative LRU of equal capacity plus
would-hit-if geometries at 2x ways / 2x sets), so at the end we can
check the taxonomy against what we engineered — and read off the
sizing answer ("would doubling ways have helped?") directly.

Run:  python examples/cache_insight_demo.py
"""

from repro.core import (
    EV_FILL,
    EV_META_LOAD,
    IMM,
    MSG,
    R,
    Transition,
    WalkerSpec,
    XCacheConfig,
    XCacheSystem,
    compile_walker,
    op,
)
from repro.obs.cachelens import CacheLensProcessor


def build_system():
    """One-block fetch walker over a 2-way x 8-set meta-tag cache."""
    spec = WalkerSpec(
        name="toy",
        transitions=(
            Transition("Default", EV_META_LOAD, (
                op.allocM(),
                op.mov(R(0), MSG("addr")),
                op.enq_dram(addr=R(0)),
                op.state("Wait"),
            )),
            Transition("Wait", EV_FILL, (
                op.and_(R(1), R(0), IMM(63)),
                op.allocD(R(2), IMM(1)),
                op.write(R(2), R(1), nbytes=8, from_msg=True),
                op.update("sector_start", R(2)),
                op.addi(R(3), R(2), 1),
                op.update("sector_end", R(3)),
                op.finish(),
            )),
        ),
    )
    config = XCacheConfig(ways=2, sets=8, data_sectors=256, num_active=4,
                          num_exe=2, xregs_per_walker=8)
    return XCacheSystem(config, compile_walker(spec))


def main():
    system = build_system()
    # reuse_sample=1: exact Mattson scan (the default 1:8 sample is for
    # production-size runs; at demo scale exactness is free)
    lens = system.observe(CacheLensProcessor(reuse_sample=1))
    cache = system.controller.name

    # one backing slot per tag we will ever touch
    tags = sorted({t for t in range(8)}            # phase 1: one per set
                  | {32, 40, 48, 56}               # phase 2: all -> set 0
                  | {100 + t for t in range(24)})  # phase 3: 1.5x capacity
    base = system.image.alloc_u64_array([7 * t for t in tags])
    slot = {t: base + 8 * i for i, t in enumerate(tags)}

    def touch(tag):
        system.load((tag,), walk_fields={"addr": slot[tag]})
        system.run()

    def counts():
        e = lens.summary()[cache]
        return {k: e[k] for k in ("accesses", "hits", "misses",
                                  "compulsory", "capacity", "conflict")}

    print("=" * 68)
    print("[1] geometry: 2 ways x 8 sets = 16 meta-tag entries;"
          " set = tag & 7")
    print("=" * 68)

    # -- phase 1: cold then warm ---------------------------------------
    for t in range(8):
        touch(t)
    for t in range(8):
        touch(t)
    after_1 = counts()
    print(f"\n[2] phase 1 (tags 0..7 twice):        {after_1}")
    assert after_1["compulsory"] == 8 and after_1["hits"] == 8

    # -- phase 2: four tags fighting over one set ----------------------
    for _ in range(6):
        for t in (32, 40, 48, 56):
            touch(t)
    after_2 = counts()
    print(f"    phase 2 (32,40,48,56 x 6 rounds): {after_2}")
    # round 1 is compulsory; every later round misses the 2-way set but
    # fits comfortably in the 16-entry FA shadow -> conflict
    assert after_2["compulsory"] == 12
    assert after_2["conflict"] == 20
    top = lens.top_conflict_sets(cache, k=1)
    assert top and top[0][0] == 0, f"expected set 0 hottest, got {top}"
    print(f"    hottest conflict set: set{top[0][0]}"
          f" ({top[0][1]} conflict misses)")

    # -- phase 3: working set 1.5x the whole cache ---------------------
    for _ in range(2):
        for t in range(24):
            touch(100 + t)
    after_3 = counts()
    print(f"    phase 3 (24 tags x 2 rounds):     {after_3}")
    # pass 2 misses even in the equal-capacity FA shadow -> capacity
    assert after_3["compulsory"] == 36
    assert after_3["capacity"] == 24

    # -- the lens report -----------------------------------------------
    print("\n[3] lens.report() — the same block the harness prints for"
          " --misses:\n")
    print(lens.report())

    # -- taxonomy conservation + the sizing answer ---------------------
    entry = lens.summary()[cache]
    assert (entry["compulsory"] + entry["capacity"] + entry["conflict"]
            == entry["misses"]), "taxonomy must partition the misses"
    assert entry["hit_rate"] == system.controller.hit_rate()
    would_ways = entry["would_hit_more_ways"]
    would_sets = entry["would_hit_more_sets"]
    # the phase-2 thrash fits in 4 ways (and spreads across 16 sets),
    # so both would-hit-if shadows convert those 20 conflict misses
    assert would_ways >= 20 and would_sets >= 20
    print("\n[4] sizing answer: of"
          f" {entry['misses']} misses, {would_ways} would hit with 2x"
          f" ways, {would_sets} with 2x sets — the conflict share"
          f" ({entry['conflict']} misses, all in set 0) is curable by"
          " associativity; the capacity share is not.")
    print("\nall assertions passed")


if __name__ == "__main__":
    main()
