"""Fidelity and trace tests of the end-to-end benchmark.

Tier-1 collects only ``tests/``; run this file explicitly (about two
minutes, every workload at its ``--smoke`` size)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bench_e2e
import compare
from repro.harness import suite
from repro.harness.profiles import ensure_profile

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SUITES = [name for name, wl in bench_e2e.WORKLOADS.items() if wl is not None]


def run_cli(workload: str, trace: int, trace_dir: Path = None) -> dict:
    cmd = [sys.executable, str(HERE / "bench_e2e.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--smoke"]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", SUITES)
def test_suite_workload_matches_run_fig14_suite(name):
    """The benchmark's copy of suite.py's recipe gives suite.py's
    results. suite-observed runs armed, so this also shows the obs bus
    does not perturb the model."""
    wl = bench_e2e.WORKLOADS[name]
    outcome = bench_e2e.run_workload(name, 7, 0.0, False, smoke=True,
                                     min_passes=1)
    assert outcome.failed == 0
    profile = ensure_profile(bench_e2e.suite_profile(wl, 7, smoke=True))
    suite.clear_cache()
    reference = suite.run_fig14_suite(profile, wl.labels)
    want = {f"{label}/{variant}": bench_e2e.run_fields(getattr(vs, variant))
            for label, vs in reference.items()
            for variant in ("xcache", "baseline", "addr")}
    assert {op.key: op.result for op in outcome.ops} == want


def test_end_to_end_metrics_printed_with_units():
    record = run_cli("svc-sweep", 0)
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == bench_e2e.SVC_BATCH
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == want
    assert all(v["value"] > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("name", list(bench_e2e.WORKLOADS))
def test_trace_conserves_time_and_counts_repeat(name, tmp_path):
    first = run_cli(name, 1, tmp_path / "a")
    second = run_cli(name, 1, tmp_path / "b")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for record in (first, second):
        assert record["correct"]
        metrics = {k: v["value"] for k, v in record["metrics"].items()}
        assert {k: v["unit"] for k, v in record["metrics"].items()} == want
        split = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        profiled = metrics["trace.profiled_s"]
        assert abs(split - profiled) <= 0.01 * profiled
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    layers_doc = json.loads((tmp_path / "a" / "layers.json").read_text())
    assert layers_doc["metrics"]["trace.profiled_s"] > 0
    spans = json.loads((tmp_path / "a" / "spans.json").read_text())
    assert {e["cat"] for e in spans["traceEvents"]} >= {"pass", "check"}


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no worse"
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "worse"
