"""Tests for the perf-regression gate (`python -m repro.obs.regress`)."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.obs.regress import compare_records, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINES = [REPO_ROOT / "BENCH_kernel.json", REPO_ROOT / "BENCH_obs.json"]


# ----------------------------------------------------------------------
# metric classification / thresholds
# ----------------------------------------------------------------------
def test_throughput_gated_higher_better():
    base = {"benchmark": "b", "x_per_sec": 1000}
    ok = compare_records({"benchmark": "b", "x_per_sec": 800}, base)
    bad = compare_records({"benchmark": "b", "x_per_sec": 700}, base)
    assert ok[0].ok and not bad[0].ok


def test_overhead_gated_lower_better():
    base = {"benchmark": "b", "noop_overhead_x": 4.0}
    ok = compare_records({"benchmark": "b", "noop_overhead_x": 4.9}, base)
    bad = compare_records({"benchmark": "b", "noop_overhead_x": 5.5}, base)
    assert ok[0].ok and not bad[0].ok
    assert ok[0].note == "lower-better"


def test_improvements_always_pass():
    base = {"benchmark": "b", "x_per_sec": 1000, "speedup": 2.0,
            "cost_x": 5.0}
    checks = compare_records(
        {"benchmark": "b", "x_per_sec": 9000, "speedup": 4.0,
         "cost_x": 1.0}, base)
    assert all(c.ok for c in checks)


def test_config_keys_must_match_exactly():
    base = {"benchmark": "b", "events": 500, "x_per_sec": 1000}
    checks = compare_records(
        {"benchmark": "b", "events": 100, "x_per_sec": 1000}, base)
    config = [c for c in checks if c.note == "config mismatch"]
    assert len(config) == 1 and not config[0].ok
    # smoke mode runs a smaller workload on purpose
    smoke = compare_records(
        {"benchmark": "b", "events": 100, "x_per_sec": 1000}, base,
        smoke=True)
    assert all(c.ok for c in smoke)


def test_smoke_sanity_checks_throughput_but_gates_ratios():
    base = {"benchmark": "b", "x_per_sec": 1000, "speedup": 2.6}
    # throughput collapse passes in smoke (different machine)...
    slow = compare_records(
        {"benchmark": "b", "x_per_sec": 3, "speedup": 2.5}, base,
        smoke=True)
    assert all(c.ok for c in slow)
    # ...but a machine-portable ratio collapse still fails
    degraded = compare_records(
        {"benchmark": "b", "x_per_sec": 1000, "speedup": 0.9}, base,
        smoke=True)
    assert any(not c.ok for c in degraded)
    # and a zero throughput is never ok
    dead = compare_records(
        {"benchmark": "b", "x_per_sec": 0, "speedup": 2.6}, base,
        smoke=True)
    assert any(not c.ok for c in dead)


def test_tolerance_override():
    base = {"benchmark": "b", "x_per_sec": 1000}
    checks = compare_records(
        {"benchmark": "b", "x_per_sec": 950}, base,
        tolerances={"x_per_sec": 0.01})
    assert not checks[0].ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_committed_baselines_self_compare_clean(capsys):
    """Acceptance: the gate passes on the committed BENCH_*.json."""
    code = main(["--baseline", str(REPO_ROOT)]
                + [str(p) for p in BASELINES])
    assert code == 0
    out = capsys.readouterr().out
    assert "within thresholds" in out
    assert "FAIL" not in out


def test_degraded_record_fails(tmp_path, capsys):
    """Acceptance: a synthetically degraded record exits nonzero."""
    record = json.loads((REPO_ROOT / "BENCH_kernel.json").read_text())
    record["bucket_events_per_sec"] = int(
        record["bucket_events_per_sec"] * 0.5)
    fresh = tmp_path / "BENCH_kernel.json"
    fresh.write_text(json.dumps(record))

    code = main(["--baseline", str(REPO_ROOT), str(fresh)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "regressed" in out
    # a ratio regression also fails under the relaxed smoke gate
    record = json.loads((REPO_ROOT / "BENCH_obs.json").read_text())
    record["noop_overhead_x"] *= 2
    fresh = tmp_path / "BENCH_obs.json"
    fresh.write_text(json.dumps(record))
    assert main(["--baseline", str(REPO_ROOT), "--smoke",
                 str(fresh)]) == 1
    capsys.readouterr()


def test_report_json_written(tmp_path, capsys):
    report = tmp_path / "regress.json"
    code = main(["--baseline", str(REPO_ROOT),
                 "--report", str(report),
                 str(REPO_ROOT / "BENCH_kernel.json")])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["failed"] == 0
    assert {c["metric"] for c in payload["checks"]} >= {
        "bucket_events_per_sec"}
    capsys.readouterr()


def test_missing_baseline_is_usage_error(tmp_path, capsys):
    fresh = tmp_path / "BENCH_unknown.json"
    fresh.write_text(json.dumps({"benchmark": "unknown"}))
    with pytest.raises(SystemExit) as exc:
        main(["--baseline", str(REPO_ROOT), str(fresh)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_benchmark_name_mismatch_is_usage_error(tmp_path, capsys):
    fresh = tmp_path / "BENCH_kernel.json"
    fresh.write_text(json.dumps({"benchmark": "other"}))
    with pytest.raises(SystemExit) as exc:
        main(["--baseline", str(REPO_ROOT), str(fresh)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_record_is_usage_error(tmp_path, capsys):
    fresh = tmp_path / "BENCH_kernel.json"
    fresh.write_text("not json")
    with pytest.raises(SystemExit) as exc:
        main(["--baseline", str(REPO_ROOT), str(fresh)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_entrypoint_runs(tmp_path):
    """`python -m repro.obs.regress` works end to end."""
    shutil.copy(REPO_ROOT / "BENCH_obs.json", tmp_path / "BENCH_obs.json")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.regress",
         "--baseline", str(REPO_ROOT),
         str(tmp_path / "BENCH_obs.json")],
        capture_output=True, text=True,
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "within thresholds" in proc.stdout

# ----------------------------------------------------------------------
# SLO mode (--slo)
# ----------------------------------------------------------------------
from repro.obs.regress import check_slo  # noqa: E402


def _span_summary(suite="fig14", p50=10, p99=200, requests=500):
    return {"suite": suite, "components": {
        "dsa-a": {"requests": requests, "latency_p50": p50,
                  "latency_p99": p99, "latency_mean": 42.0,
                  "latency_max": p99 * 2,
                  "blame": {"dram": 1}, "outcomes": {"hit": requests}}}}


def test_check_slo_within_budget():
    policy = {"suites": {"fig14": {"latency_p50": 20, "latency_p99": 300,
                                   "min_requests": 100}}}
    checks = check_slo(_span_summary(), policy)
    assert [c.metric for c in checks] == [
        "dsa-a.requests", "dsa-a.latency_p50", "dsa-a.latency_p99"]
    assert all(c.ok for c in checks)


def test_check_slo_breach_and_component_override():
    policy = {"suites": {"fig14": {
        "latency_p99": 300,
        "components": {"dsa-a": {"latency_p99": 100}}}}}
    checks = check_slo(_span_summary(p99=200), policy)
    assert len(checks) == 1
    assert checks[0].metric == "dsa-a.latency_p99"
    assert checks[0].baseline == 100 and not checks[0].ok


def test_check_slo_min_requests_guards_empty_suite():
    policy = {"suites": {"fig14": {"min_requests": 100}}}
    bad = check_slo(_span_summary(requests=3), policy)
    assert len(bad) == 1 and not bad[0].ok
    assert bad[0].note == "slo: higher-better"


def test_check_slo_default_suite_fallback():
    policy = {"suites": {"default": {"latency_p50": 20}}}
    checks = check_slo(_span_summary(suite="anything"), policy)
    assert len(checks) == 1 and checks[0].ok


def test_check_slo_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        check_slo(_span_summary(suite="ungated"), {"suites": {"fig14": {}}})
    assert exc.value.code == 2


def test_slo_cli_pass_fail_and_report(tmp_path, capsys):
    slo = tmp_path / "SLO.json"
    slo.write_text(json.dumps(
        {"suites": {"fig14": {"latency_p50": 20, "latency_p99": 300}}}))
    summary = tmp_path / "spans.fig14.json"
    summary.write_text(json.dumps(_span_summary()))
    report = tmp_path / "report.json"

    code = main(["--slo", str(slo), "--report", str(report), str(summary)])
    out = capsys.readouterr().out
    assert code == 0
    assert "within budget" in out and "FAIL" not in out
    payload = json.loads(report.read_text())
    assert payload["failed"] == 0
    assert all(c["suite"] == "fig14" for c in payload["checks"])

    summary.write_text(json.dumps(_span_summary(p99=999)))
    code = main(["--slo", str(slo), str(summary)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "breached" in out


def test_slo_smoke_does_not_loosen_budgets(tmp_path, capsys):
    """Latencies are simulated cycles: --smoke must not change verdicts."""
    slo = tmp_path / "SLO.json"
    slo.write_text(json.dumps({"suites": {"fig14": {"latency_p99": 100}}}))
    summary = tmp_path / "spans.fig14.json"
    summary.write_text(json.dumps(_span_summary(p99=101)))
    assert main(["--slo", str(slo), str(summary)]) == 1
    assert main(["--slo", str(slo), "--smoke", str(summary)]) == 1
    capsys.readouterr()


def test_slo_malformed_inputs_are_usage_errors(tmp_path, capsys):
    slo = tmp_path / "SLO.json"
    slo.write_text("not json")
    summary = tmp_path / "spans.json"
    summary.write_text(json.dumps(_span_summary()))
    with pytest.raises(SystemExit) as exc:
        main(["--slo", str(slo), str(summary)])
    assert exc.value.code == 2

    slo.write_text(json.dumps({"suites": {"fig14": {}}}))
    summary.write_text(json.dumps({"no": "components"}))
    with pytest.raises(SystemExit) as exc:
        main(["--slo", str(slo), str(summary)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_baseline_required_unless_slo(tmp_path, capsys):
    summary = tmp_path / "spans.json"
    summary.write_text(json.dumps(_span_summary()))
    with pytest.raises(SystemExit) as exc:
        main([str(summary)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_committed_slo_gates_fresh_ci_summary(tmp_path, capsys):
    """Acceptance: a fresh ci-profile span summary passes SLO.json."""
    from repro.harness import run_experiment
    from repro.harness.suite import clear_cache
    from repro.obs.capture import CaptureSpec, capture_scope

    slo_path = REPO_ROOT / "SLO.json"
    clear_cache()
    spans = tmp_path / "spans.json"
    try:
        spec = CaptureSpec(spans_path=str(spans)).for_experiment("fig04")
        with capture_scope(spec):
            run_experiment("fig04", "ci")
    finally:
        clear_cache()
    code = main(["--slo", str(slo_path), str(tmp_path / "spans.fig04.json")])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
