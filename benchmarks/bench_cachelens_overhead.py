"""Cache-lens overhead: miss taxonomy must ride along nearly for free.

The cache-contents lens (``repro.obs.cachelens``) does real per-event
work when armed — seen-set membership, a fully-associative LRU touch,
two 2x shadow probes, and windowed heatmap bookkeeping — so unlike the
unarmed publish sites (a single ``bus is None`` test, gated by
``bench_obs_overhead``) it cannot be literally free.  The discipline
this bench enforces is that the work stays a small fraction of the
simulation it observes:

* **unarmed vs armed** — the same ci experiment run end to end inside
  the capture scope of (a) an inactive :class:`CaptureSpec`
  (no bus attached anywhere — the default harness path) and (b)
  ``CaptureSpec(misses=True)`` (a :class:`CacheLensProcessor` on every
  system bus, classifying every miss and profiling every reuse).  Runs
  interleave unarmed/armed/unarmed/armed so machine drift hits both
  sides equally, are timed in **CPU seconds** (``time.process_time``)
  so scheduler noise on shared runners is not mistaken for lens cost,
  and the memo cache is cleared before every run so each one simulates
  fully.  ``cachelens_overhead_x`` (armed/unarmed, lower is better,
  1.0 = free; reported unclamped, so a value below 1.0 shows the
  noise floor) is the gated metric: CI holds it via an explicit
  ``--tolerance`` and the full (non-smoke) pytest run asserts the 1.11
  ceiling directly, i.e. an armed run keeps >=90% of unarmed
  throughput.
* **lens events/sec** — raw classification rate of a synthetic
  miss+fill stream published on a bus with only the lens attached,
  sizing the per-event cost in isolation (default 1:8 reuse sampling).

Run standalone to emit ``BENCH_cachelens.json``::

    PYTHONPATH=src python benchmarks/bench_cachelens_overhead.py \\
        --out BENCH_cachelens.json

Under pytest the module asserts the overhead bound directly (set
``REPRO_BENCH_SMOKE=1`` for a correctness-only smoke run, as CI does
on shared runners).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from repro.harness import run_experiment
from repro.harness.suite import clear_cache
from repro.obs.bus import EventBus
from repro.obs.capture import CaptureSpec, capture_scope
from repro.obs.cachelens import MISS_CLASSES, CacheLensProcessor
from repro.obs.events import CacheFill, CacheModel, Hit, Miss

EXPERIMENT = "fig04"
PROFILE = "ci"
DEFAULT_ROUNDS = 9
DEFAULT_EVENTS = 100_000
OVERHEAD_CEILING_X = 1.11      # armed keeps >= 90% of unarmed runtime
SMOKE_ENV = "REPRO_BENCH_SMOKE"


def drive(spec: CaptureSpec):
    """One fully-simulated run; returns (cpu-seconds, lens misses).

    The run and its rendered report are timed together, as a harness
    run pays for them. The miss count sums the capture's per-cache lens
    summary (0 when the lens is off). GC is collected before and
    disabled during the timed region so a collection triggered by the
    *previous* run's garbage doesn't land inside this run's
    measurement.
    """
    clear_cache()
    gc.collect()
    gc.disable()
    start = time.process_time()
    with capture_scope(spec) as capture:
        report = run_experiment(EXPERIMENT, PROFILE)
    report.render()
    elapsed = time.process_time() - start
    gc.enable()
    clear_cache()
    if capture is None:
        return elapsed, 0
    return elapsed, sum(entry["misses"]
                        for entry in capture.merged_cachelens().values())


def drive_lens_events(num_events: int) -> float:
    """Raw classification throughput of a synthetic event stream."""
    bus = EventBus()
    lens = bus.attach(CacheLensProcessor())
    bus.publish(CacheModel(cycle=0, component="bench", kind="meta",
                           ways=4, sets=64, tag_class="key"))
    # 3:1 hit:miss mix over a footprint just past the modelled capacity,
    # so every taxonomy branch (compulsory/capacity/conflict) runs
    footprint = 4 * 64 + 32
    events = []
    for i in range(num_events):
        tag = (i % footprint,)
        if i & 3:
            events.append(Hit(cycle=i, component="bench", tag=tag))
        else:
            setidx = tag[0] & 63
            events.append(Miss(cycle=i, component="bench", tag=tag,
                               set_index=setidx))
            events.append(CacheFill(cycle=i, component="bench", tag=tag,
                                    set_index=setidx, way=0))
    publish = bus.publish
    start = time.perf_counter()
    for event in events:
        publish(event)
    elapsed = time.perf_counter() - start
    entry = lens.summary()["bench"]
    assert sum(entry[c] for c in MISS_CLASSES) == entry["misses"]
    return len(events) / elapsed


def compare(rounds: int = DEFAULT_ROUNDS,
            num_events: int = DEFAULT_EVENTS) -> dict:
    unarmed_times, armed_times = [], []
    misses_holder = [0]

    def pairs(n: int) -> None:
        # alternate within-pair order each round so slow drift never
        # lands on whichever side consistently runs second
        for i in range(n):
            if i % 2 == 0:
                unarmed_times.append(drive(CaptureSpec())[0])
                elapsed, misses_holder[0] = drive(CaptureSpec(misses=True))
                armed_times.append(elapsed)
            else:
                elapsed, misses_holder[0] = drive(CaptureSpec(misses=True))
                armed_times.append(elapsed)
                unarmed_times.append(drive(CaptureSpec())[0])

    # one unmeasured pair first so allocator/import warmup hits neither
    drive(CaptureSpec())
    drive(CaptureSpec(misses=True))
    # take the MIN per side: for CPU-bound work every perturbation
    # (noisy neighbour, frequency dip) only ever adds time, so the
    # minimum converges on the true cost from above. A ratio over the
    # ceiling after few rounds usually means the min has not converged
    # yet on one side — extend the sample once before believing it.
    pairs(rounds)
    extensions = 0
    while (min(armed_times) / min(unarmed_times) > OVERHEAD_CEILING_X
           and extensions < 3):
        pairs(rounds)
        extensions += 1
    unarmed = min(unarmed_times)
    armed = min(armed_times)
    misses = misses_holder[0]
    assert misses > 0, "armed run classified no misses"
    return {
        "benchmark": "cachelens_overhead",
        "experiment": EXPERIMENT,
        "profile": PROFILE,
        "rounds": rounds,
        "lens_events": num_events,
        "misses_classified": misses,
        "unarmed_runs_per_sec": round(1.0 / unarmed, 3),
        "armed_runs_per_sec": round(1.0 / armed, 3),
        "cachelens_overhead_x": round(armed / unarmed, 4),
        "lens_events_per_sec": round(drive_lens_events(num_events)),
    }


def test_cachelens_overhead():
    """An armed lens keeps >=90% of unarmed end-to-end throughput."""
    smoke = bool(os.environ.get(SMOKE_ENV))
    rounds = 1 if smoke else DEFAULT_ROUNDS
    num_events = 20_000 if smoke else DEFAULT_EVENTS
    result = compare(rounds, num_events)
    print()
    print(json.dumps(result, indent=2))
    assert result["misses_classified"] > 0
    assert result["lens_events_per_sec"] > 0
    if not smoke:
        assert result["cachelens_overhead_x"] <= OVERHEAD_CEILING_X, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--out", default=None,
                        help="write the result record as JSON here")
    args = parser.parse_args(argv)
    result = compare(args.rounds, args.events)
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
