"""The Widx and DASX models' functional reference.

Every variant fixes its expected answer per distinct probe key from the
index as built, before the simulation starts, and checks every response
against it.
"""

from collections import Counter

import pytest

from repro.core.config import table3_config
from repro.data import HashIndex
from repro.dsa import (
    DasxAddressModel,
    DasxBaselineModel,
    DasxXCacheModel,
    WidxAddressModel,
    WidxBaselineModel,
    WidxXCacheModel,
)
from repro.workloads import make_widx_workload

WIDX = table3_config("widx", scale=0.03125)
DASX = table3_config("dasx", scale=0.03125)

VARIANTS = {
    "widx-xcache": lambda wl: WidxXCacheModel(wl, config=WIDX),
    "widx-baseline": lambda wl: WidxBaselineModel(wl, num_walkers=2),
    "widx-addr": lambda wl: WidxAddressModel(wl, xcache_config=WIDX),
    "dasx-xcache": lambda wl: DasxXCacheModel(wl, config=DASX,
                                              round_size=32),
    "dasx-baseline": lambda wl: DasxBaselineModel(wl, round_size=32),
    "dasx-addr": lambda wl: DasxAddressModel(wl, xcache_config=DASX,
                                             round_size=32),
}


@pytest.fixture(scope="module")
def workload():
    # skewed, with absent keys: most probe keys repeat, some miss
    wl = make_widx_workload(num_keys=128, num_probes=384, num_buckets=64,
                            skew=1.2, hash_cycles=20, seed=5)
    assert len(set(wl.probes)) < len(wl.probes)
    return wl


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reference_probes_each_distinct_key_once(variant, workload,
                                                 monkeypatch):
    calls = Counter()
    for name in ("probe", "probe_with_walk"):
        original = getattr(HashIndex, name)

        def counted(self, key, _name=name, _original=original):
            calls[_name, key] += 1
            return _original(self, key)

        monkeypatch.setattr(HashIndex, name, counted)
    result = VARIANTS[variant](workload).run()
    assert result.checks_passed
    assert calls, "the model never consulted the index"
    assert max(calls.values()) == 1, calls.most_common(3)


@pytest.mark.parametrize("variant", ["widx-xcache", "dasx-xcache"])
def test_memory_changed_after_construction_fails_check(variant, workload):
    model = VARIANTS[variant](workload)
    present = {key for key, _rid in workload.pairs}
    key = next(k for k in workload.probes if k in present)
    rid, walk = model.index.probe_with_walk(key)
    model.system.image.write_u64(walk[-1] + HashIndex.RID_OFF, rid + 1)
    assert not model.run().checks_passed
