#!/usr/bin/env python
"""Watching an X-Cache run through the `repro.obs` event plane.

Three ways to observe the same Widx hash-probe run:

1. a custom processor — a plain class that subclasses nothing: write
   ``on_<event>`` methods and the bus delivers exactly those event
   types, nothing else;
2. a stock :class:`MetricsProcessor` — hit-rate plus load-to-use and
   miss-latency percentiles, fed from the same stream;
3. a :class:`PerfettoExporter` — a Chrome-trace JSON you can drop into
   https://ui.perfetto.dev, with walker contexts as tracks and DRAM
   transactions as async slices.

All three attach with one call (``system.observe(...)``) and cost
nothing when absent: the publish sites are a single ``is None`` test.

Run:  python examples/observability_demo.py
"""

import json
import os
import tempfile

from repro.core.config import table3_config
from repro.dsa import WidxXCacheModel
from repro.obs import MetricsProcessor, PerfettoExporter
from repro.workloads import make_widx_workload


class WalkScoreboard:
    """Counts walker activity and tracks the deepest DRAM round-trip."""

    def __init__(self):
        self.dispatches = 0
        self.retires = 0
        self.found = 0
        self.longest_walk = 0
        self.worst_dram = 0

    def on_walker_dispatch(self, event):
        self.dispatches += 1

    def on_walker_retire(self, event):
        self.retires += 1
        self.found += bool(event.found)
        if event.lifetime > self.longest_walk:
            self.longest_walk = event.lifetime

    def on_dram_complete(self, event):
        if event.latency > self.worst_dram:
            self.worst_dram = event.latency


def main():
    workload = make_widx_workload(num_keys=1024, num_probes=2048,
                                  num_buckets=512, skew=1.1, seed=7)
    model = WidxXCacheModel(workload,
                            config=table3_config("widx", scale=0.0625))

    # attach the observers BEFORE running — one shared bus, three views
    scoreboard = model.system.observe(WalkScoreboard())
    metrics = model.system.observe(MetricsProcessor())
    trace_path = os.path.join(tempfile.gettempdir(),
                              "xcache_widx_trace.json")
    perfetto = model.system.observe(PerfettoExporter(trace_path))

    result = model.run()
    perfetto.close()

    print("Widx hash-probe run under full observation")
    print(f"  cycles={result.cycles} hit-rate={result.hit_rate:.2f} "
          f"validated={result.checks_passed}\n")

    print("1. custom processor (WalkScoreboard):")
    print(f"   walkers dispatched={scoreboard.dispatches} "
          f"retired={scoreboard.retires} found={scoreboard.found}")
    print(f"   longest walk={scoreboard.longest_walk} cycles, "
          f"worst DRAM round-trip={scoreboard.worst_dram} cycles\n")

    print("2. stock MetricsProcessor:")
    print(metrics.summary())
    print()

    with open(trace_path) as fh:
        trace = json.load(fh)
    spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print("3. PerfettoExporter:")
    print(f"   wrote {trace_path} ({len(trace['traceEvents'])} trace "
          f"events, {spans} spans)")
    print("   open it at https://ui.perfetto.dev — each walker context "
          "is a track;\n   DRAM transactions render as async slices")

    assert scoreboard.dispatches >= scoreboard.retires > 0
    assert spans > 0


if __name__ == "__main__":
    main()
