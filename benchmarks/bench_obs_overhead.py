"""Observability overhead: the event bus must be free when nobody looks.

Drives the bucketed kernel through the same Widx-shaped event mix as
``bench_kernel_hotpath``, with an obs publish site inside every chain
callback, under three configurations:

* ``no_bus`` — ``bus is None``: the publish site is a single attribute
  test, the PR-1 hot path. This is the number that must stay within
  noise of ``BENCH_kernel.json``'s ``bucket_events_per_sec``.
* ``noop_processor`` — an :class:`EventBus` with a type-subscribed
  no-op processor (an ``on_hit`` that does nothing): event construction
  + dict lookup + one call.
* ``jsonl_export`` — a :class:`JsonlExporter` streaming every event to
  disk: the worst case anyone pays, and only when they asked for it.

Run standalone to emit ``BENCH_obs.json``::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --out BENCH_obs.json

Under pytest the module asserts the ``no_bus`` configuration is within
noise of the recorded kernel baseline (``REPRO_BENCH_SMOKE=1`` loosens
the bound for CI's shared, noisy runners).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.obs.bus import EventBus
from repro.obs.events import Hit
from repro.obs.export import JsonlExporter
from repro.sim import Simulator

from bench_kernel_hotpath import make_delays

CHAINS = 64
DEFAULT_EVENTS = 200_000
SMOKE_ENV = "REPRO_BENCH_SMOKE"
# no_bus must keep >= this fraction of BENCH_kernel.json's recorded
# bucket_events_per_sec (full mode); smoke mode only sanity-checks,
# because CI runners differ wildly from the machine that recorded it
NOISE_FLOOR = 0.80
SMOKE_FLOOR = 0.10

_TAG = (7,)


def drive(sim, num_events: int, delays, bus) -> float:
    """Run ``num_events`` chain callbacks, publishing one Hit each when
    the bus is armed; return events/sec."""
    budget = [num_events]
    cursor = [0]

    def chain() -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        i = cursor[0]
        cursor[0] = i + 1
        if bus is not None:
            bus.publish(Hit(cycle=sim.now, component="bench", tag=_TAG,
                            store=False, take=False, load_to_use=i & 0xFF))
        sim.call_after(delays[i % len(delays)], chain)

    start = time.perf_counter()
    for _ in range(CHAINS):
        chain()
    sim.run()
    elapsed = time.perf_counter() - start
    executed = sim.events_executed
    assert executed >= num_events, (executed, num_events)
    return executed / elapsed


class _NoopProcessor:
    """Takes every Hit and does nothing with it."""

    def on_hit(self, event) -> None:
        pass


def _noop_bus() -> EventBus:
    bus = EventBus()
    bus.attach(_NoopProcessor())
    return bus


def compare(num_events: int = DEFAULT_EVENTS, seed: int = 1) -> dict:
    """Benchmark the three configurations; return the result record."""
    delays = make_delays(num_events, seed)
    warm = min(num_events, 25_000)

    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        jsonl_path = os.path.join(tmp, "events.jsonl")

        # warm-up passes so allocator behaviour is steady
        drive(Simulator(), warm, delays, None)
        drive(Simulator(), warm, delays, _noop_bus())

        no_bus_eps = drive(Simulator(), num_events, delays, None)
        noop_eps = drive(Simulator(), num_events, delays, _noop_bus())

        export_bus = EventBus()
        exporter = JsonlExporter(jsonl_path)
        export_bus.attach(exporter)
        export_eps = drive(Simulator(), num_events, delays, export_bus)
        exporter.close()
        assert exporter.events_written >= num_events

    return {
        "benchmark": "obs_overhead",
        "events": num_events,
        "chains": CHAINS,
        "seed": seed,
        "no_bus_events_per_sec": round(no_bus_eps),
        "noop_processor_events_per_sec": round(noop_eps),
        "jsonl_export_events_per_sec": round(export_eps),
        "noop_overhead_x": round(no_bus_eps / noop_eps, 2),
        "export_overhead_x": round(no_bus_eps / export_eps, 2),
    }


def _kernel_baseline() -> int:
    """The recorded bucket-kernel events/sec from BENCH_kernel.json."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_kernel.json")
    with open(path) as fh:
        return json.load(fh)["bucket_events_per_sec"]


def test_obs_overhead_no_bus_within_noise():
    """An unarmed publish site keeps kernel-hotpath throughput."""
    smoke = bool(os.environ.get(SMOKE_ENV))
    events = 50_000 if smoke else DEFAULT_EVENTS
    result = compare(events)
    print()
    print(json.dumps(result, indent=2))
    assert result["noop_processor_events_per_sec"] > 0
    assert result["jsonl_export_events_per_sec"] > 0
    baseline = _kernel_baseline()
    floor = SMOKE_FLOOR if smoke else NOISE_FLOOR
    assert result["no_bus_events_per_sec"] >= floor * baseline, (
        f"no-bus throughput {result['no_bus_events_per_sec']} fell below "
        f"{floor:.0%} of the recorded kernel baseline {baseline}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write the result record as JSON here")
    args = parser.parse_args(argv)
    result = compare(args.events, args.seed)
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
