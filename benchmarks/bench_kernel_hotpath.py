"""Event-kernel hot path: events/sec of the bucketed :class:`Simulator`.

Drives the kernel through a synthetic event mix shaped like a Widx run
at the ``full`` profile:

* ~70 % of events reschedule at delay 1 (back-to-back controller ticks,
  queue hand-offs, hash-unit pipelining);
* ~20 % at short DSA latencies (hash completion, walk steps) — delays
  drawn from {11, 15, 22, 26, 37};
* ~10 % at DRAM-fill distance (delay 60, beyond the cache hit path).

The delay sequence is precomputed so the benchmark times the kernel —
schedule + dispatch — rather than the RNG. 64 concurrent event chains
model a loaded system (Widx runs #Active=16 walkers per engine across
several engines and queues).

Run standalone to emit ``BENCH_kernel.json``::

    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py --out BENCH_kernel.json

Under pytest the module runs the mix to completion and prints the
record (``REPRO_BENCH_SMOKE=1`` shrinks it to a quick smoke run, as CI
does). ``bucket_events_per_sec`` is the baseline ``bench_obs_overhead.py``
holds its unarmed-bus throughput against; ``python -m repro.obs.regress``
gates fresh records against the committed ``BENCH_kernel.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.sim import Simulator

CHAINS = 64          # concurrent event chains (walkers x engines + queues)
DEFAULT_EVENTS = 500_000
SMOKE_ENV = "REPRO_BENCH_SMOKE"

_SHORT_DELAYS = (11, 15, 22, 26, 37)


def make_delays(num_events: int, seed: int = 1):
    """Precompute the Widx-shaped delay sequence (one entry per event)."""
    rng = random.Random(seed)
    delays = []
    for _ in range(num_events):
        r = rng.random()
        if r < 0.70:
            delays.append(1)
        elif r < 0.90:
            delays.append(rng.choice(_SHORT_DELAYS))
        else:
            delays.append(60)
    return delays


def drive(sim, num_events: int, delays) -> float:
    """Run ``num_events`` callbacks through ``sim``; return events/sec."""
    budget = [num_events]
    cursor = [0]

    def chain() -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        i = cursor[0]
        cursor[0] = i + 1
        sim.call_after(delays[i % len(delays)], chain)

    start = time.perf_counter()
    for _ in range(CHAINS):
        chain()
    sim.run()
    elapsed = time.perf_counter() - start
    executed = sim.events_executed
    assert executed >= num_events, (executed, num_events)
    return executed / elapsed


def measure(num_events: int = DEFAULT_EVENTS, seed: int = 1) -> dict:
    """Benchmark the kernel on the mix; return the result record."""
    delays = make_delays(num_events, seed)
    # warm-up pass so allocator/JIT-free timing is steady
    drive(Simulator(), min(num_events, 50_000), delays)
    bucket_eps = drive(Simulator(), num_events, delays)
    return {
        "benchmark": "kernel_hotpath",
        "events": num_events,
        "chains": CHAINS,
        "seed": seed,
        "bucket_events_per_sec": round(bucket_eps),
    }


def test_kernel_hotpath():
    """The kernel runs the Widx-shaped mix to completion."""
    smoke = bool(os.environ.get(SMOKE_ENV))
    result = measure(50_000 if smoke else DEFAULT_EVENTS)
    print()
    print(json.dumps(result, indent=2))
    assert result["bucket_events_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write the result record as JSON here")
    args = parser.parse_args(argv)
    result = measure(args.events, args.seed)
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
