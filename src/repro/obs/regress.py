"""Perf-regression gate over ``BENCH_*.json`` records.

Compares freshly produced benchmark records against the committed
baselines and exits nonzero when any gated metric regressed past its
threshold::

    python -m repro.obs.regress --baseline . fresh/BENCH_kernel.json

Metric policy is derived from the metric *name*, so new benchmarks
gate themselves without registry edits:

* ``*_per_sec``      — throughput, higher is better (tolerance 25%);
* ``speedup`` / ``*_speedup`` — ratio, higher is better (25%);
* ``*_overhead_x`` / ``*_x`` — ratio, lower is better (25%);
* anything else (``events``, ``seed``, ``chains``, …) is workload
  configuration: it must match the baseline exactly, because a record
  measured on a different workload is not comparable.

``--smoke`` relaxes the gate for shared-CI hardware, where absolute
throughput is noise: ``*_per_sec`` metrics are only sanity-checked
(> 0) and config keys may differ (CI runs a smaller event count),
while machine-portable ratios stay gated with doubled tolerance.
Per-metric overrides: ``--tolerance name=frac`` (repeatable). An
explicit override is exempt from smoke relaxation — it gates at
exactly the given fraction even under ``--smoke``, which is how
hard bounds like ``cachelens_overhead_x`` survive shared CI.

**SLO mode** (``--slo SLO.json``) gates *request-latency* budgets
instead of benchmark records: the positional files are span summaries
(written by ``--spans`` captures or ``python -m repro.obs.explain
--json``), and the policy file holds per-suite p50/p99 cycle budgets::

    python -m repro.obs.regress --slo SLO.json spans.fig14.json

Latencies are deterministic *simulated* cycles, so SLO budgets are
machine-portable: ``--smoke`` does not loosen them (it is accepted so
one CI invocation can mix both modes' flags).

Exit codes: 0 ok, 1 regression/SLO breach, 2 usage/IO error (missing
baseline, malformed record or policy, mismatched benchmark name).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = ["MetricCheck", "compare_records", "load_record",
           "check_slo", "main"]

DEFAULT_TOLERANCE = 0.25
SMOKE_SCALE = 2.0          # smoke mode doubles ratio tolerances


def _die(message: str) -> "SystemExit":
    print(message, file=sys.stderr)
    return SystemExit(2)


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of gating one metric."""

    metric: str
    baseline: float
    fresh: float
    limit: float           # the threshold `fresh` was held to
    ok: bool
    note: str              # "higher-better", "lower-better", ...


def _kind(name: str) -> Optional[str]:
    """Classify a metric name; None means workload configuration."""
    if name.endswith("_per_sec"):
        return "throughput"
    if name == "speedup" or name.endswith("_speedup"):
        return "higher"
    if name.endswith("_x"):
        return "lower"
    return None


def load_record(path: Path) -> Dict:
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise _die(f"regress: cannot read {path}: {exc}")
    if not isinstance(record, dict) or "benchmark" not in record:
        raise _die(f"regress: {path} is not a benchmark record "
                   f"(missing 'benchmark' key)")
    return record


def compare_records(fresh: Dict, baseline: Dict, *,
                    smoke: bool = False,
                    tolerances: Optional[Dict[str, float]] = None,
                    ) -> List[MetricCheck]:
    """Gate every shared metric; returns one check per gated metric."""
    tolerances = tolerances or {}
    checks: List[MetricCheck] = []
    for name in baseline:
        if name == "benchmark" or name not in fresh:
            continue
        base, new = baseline[name], fresh[name]
        kind = _kind(name)
        if kind is None:
            if not smoke and base != new:
                checks.append(MetricCheck(
                    name, _num(base), _num(new), _num(base), False,
                    "config mismatch"))
            continue
        if not isinstance(base, (int, float)) or \
                not isinstance(new, (int, float)):
            continue
        # an explicit --tolerance is a contract, not a default: it is
        # never smoke-scaled and never downgraded to a sanity check —
        # how machine-portable bounds (cachelens_overhead_x) stay
        # gated at full strength on shared CI hardware
        pinned = name in tolerances
        tol = tolerances.get(name, DEFAULT_TOLERANCE)
        if smoke and not pinned:
            if kind == "throughput":
                checks.append(MetricCheck(
                    name, base, new, 0.0, new > 0,
                    "smoke: sanity only"))
                continue
            tol *= SMOKE_SCALE
        if kind == "lower":
            limit = base * (1.0 + tol)
            checks.append(MetricCheck(
                name, base, new, limit, new <= limit, "lower-better"))
        else:
            limit = base * (1.0 - tol)
            checks.append(MetricCheck(
                name, base, new, limit, new >= limit, "higher-better"))
    return checks


def _num(value) -> float:
    return value if isinstance(value, (int, float)) else float("nan")


#: metrics a suite SLO entry may budget (all lower-is-better cycles,
#: except min_requests which guards against a silently empty suite)
SLO_METRICS = ("latency_p50", "latency_p99")

#: cache-contents budgets (summaries carry the fields when the capture
#: was lens-armed: ``--misses`` / ``explain --misses --json``)
SLO_MIN_METRICS = (("min_hit_rate", "hit_rate"),)
SLO_MAX_METRICS = (("max_conflict_share", "conflict_share"),)


def check_slo(summary: Dict, policy: Dict) -> List[MetricCheck]:
    """Gate one span summary against the SLO policy.

    ``summary`` is ``{"suite": ..., "components": {dsa: {latency_p50,
    latency_p99, requests, ...}}}``; ``policy`` is::

        {"suites": {"fig14": {"latency_p50": 80, "latency_p99": 900,
                              "min_requests": 10,
                              "min_hit_rate": 0.7,
                              "max_conflict_share": 0.1,
                              "components": {"dsa-name": {...overrides}}}}}

    Suite budgets apply to every component; a ``components`` entry
    overrides per DSA. The cache-contents budgets (``min_hit_rate``
    higher-better, ``max_conflict_share`` lower-better) gate only
    summaries that carry those fields — i.e. lens-armed captures. A suite absent from the policy raises (exit 2 at
    the CLI) — an ungated suite is a configuration error, not a pass.
    """
    suites = policy.get("suites")
    if not isinstance(suites, dict):
        raise _die("regress: SLO policy has no 'suites' mapping")
    suite = summary.get("suite", "")
    budgets = suites.get(suite, suites.get("default"))
    if budgets is None:
        raise _die(f"regress: no SLO budgets for suite {suite!r}")
    overrides = budgets.get("components", {})
    checks: List[MetricCheck] = []
    for name in sorted(summary.get("components", {})):
        entry = summary["components"][name]
        scoped = dict(budgets)
        scoped.pop("components", None)
        scoped.update(overrides.get(name, {}))
        min_requests = scoped.pop("min_requests", None)
        if min_requests is not None:
            count = entry.get("requests", 0)
            checks.append(MetricCheck(
                f"{name}.requests", min_requests, count, min_requests,
                count >= min_requests, "slo: higher-better"))
        for metric in SLO_METRICS:
            budget = scoped.get(metric)
            value = entry.get(metric)
            if budget is None or value is None:
                continue
            checks.append(MetricCheck(
                f"{name}.{metric}", _num(budget), _num(value),
                _num(budget), _num(value) <= _num(budget),
                "slo: lower-better"))
        for budget_key, field in SLO_MIN_METRICS:
            budget = scoped.get(budget_key)
            value = entry.get(field)
            if budget is None or value is None:
                continue
            checks.append(MetricCheck(
                f"{name}.{field}", _num(budget), _num(value),
                _num(budget), _num(value) >= _num(budget),
                "slo: higher-better"))
        for budget_key, field in SLO_MAX_METRICS:
            budget = scoped.get(budget_key)
            value = entry.get(field)
            if budget is None or value is None:
                continue
            checks.append(MetricCheck(
                f"{name}.{field}", _num(budget), _num(value),
                _num(budget), _num(value) <= _num(budget),
                "slo: lower-better"))
    return checks


def _parse_tolerances(pairs: Sequence[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        name, _, frac = pair.partition("=")
        try:
            out[name] = float(frac)
        except ValueError:
            raise _die(f"regress: bad --tolerance {pair!r} "
                       f"(want name=fraction)")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Gate fresh BENCH_*.json records against baselines, "
                    "or span summaries against an SLO policy (--slo).")
    parser.add_argument("fresh", nargs="+", metavar="RECORD.json",
                        help="fresh benchmark record(s), or span "
                             "summaries with --slo")
    parser.add_argument("--baseline", metavar="DIR",
                        help="directory holding committed baselines "
                             "(matched by file name; required unless "
                             "--slo)")
    parser.add_argument("--slo", metavar="SLO.json",
                        help="gate span summaries against this SLO "
                             "policy instead of benchmark baselines")
    parser.add_argument("--smoke", action="store_true",
                        help="shared-CI mode: gate ratios loosely, "
                             "sanity-check throughput only (SLO cycle "
                             "budgets stay exact)")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=FRAC",
                        help="per-metric tolerance override (repeatable)")
    parser.add_argument("--report", metavar="PATH",
                        help="also write the checks as JSON")
    args = parser.parse_args(argv)

    if args.slo:
        return _main_slo(args)
    if not args.baseline:
        parser.error("--baseline is required (unless gating with --slo)")

    tolerances = _parse_tolerances(args.tolerance)
    baseline_dir = Path(args.baseline)
    all_checks: List[Dict] = []
    failed = 0

    for fresh_path in (Path(p) for p in args.fresh):
        base_path = baseline_dir / fresh_path.name
        if not base_path.is_file():
            raise _die(
                f"regress: no baseline {base_path} for {fresh_path}")
        fresh = load_record(fresh_path)
        baseline = load_record(base_path)
        if fresh["benchmark"] != baseline["benchmark"]:
            raise _die(
                f"regress: benchmark mismatch for {fresh_path.name}: "
                f"{fresh['benchmark']!r} vs {baseline['benchmark']!r}")

        checks = compare_records(fresh, baseline, smoke=args.smoke,
                                 tolerances=tolerances)
        print(f"== {fresh['benchmark']} ({fresh_path.name}) ==")
        for check in checks:
            verdict = "ok  " if check.ok else "FAIL"
            print(f"  [{verdict}] {check.metric}: "
                  f"baseline={check.baseline:g} fresh={check.fresh:g} "
                  f"limit={check.limit:g} ({check.note})")
            if not check.ok:
                failed += 1
            all_checks.append(
                {"benchmark": fresh["benchmark"], **asdict(check)})
        if not checks:
            print("  (no gated metrics in common)")

    if args.report:
        Path(args.report).write_text(
            json.dumps({"smoke": args.smoke, "failed": failed,
                        "checks": all_checks}, indent=2) + "\n")

    if failed:
        print(f"regress: {failed} metric(s) regressed")
        return 1
    print(f"regress: {len(all_checks)} metric(s) within thresholds")
    return 0


def _main_slo(args) -> int:
    """``--slo`` branch: gate span summaries against cycle budgets."""
    slo_path = Path(args.slo)
    try:
        policy = json.loads(slo_path.read_text())
    except (OSError, ValueError) as exc:
        raise _die(f"regress: cannot read SLO policy {slo_path}: {exc}")

    all_checks: List[Dict] = []
    failed = 0
    for summary_path in (Path(p) for p in args.fresh):
        try:
            summary = json.loads(summary_path.read_text())
        except (OSError, ValueError) as exc:
            raise _die(f"regress: cannot read {summary_path}: {exc}")
        if not isinstance(summary, dict) or "components" not in summary:
            raise _die(f"regress: {summary_path} is not a span summary "
                       f"(missing 'components' key)")
        suite = summary.get("suite", "?")
        checks = check_slo(summary, policy)
        print(f"== slo {suite} ({summary_path.name}) ==")
        for check in checks:
            verdict = "ok  " if check.ok else "FAIL"
            print(f"  [{verdict}] {check.metric}: "
                  f"budget={check.baseline:g} actual={check.fresh:g} "
                  f"({check.note})")
            if not check.ok:
                failed += 1
            all_checks.append({"suite": suite, **asdict(check)})
        if not checks:
            print("  (no budgeted metrics)")

    if args.report:
        Path(args.report).write_text(
            json.dumps({"slo": str(slo_path), "failed": failed,
                        "checks": all_checks}, indent=2) + "\n")

    if failed:
        print(f"regress: {failed} SLO budget(s) breached")
        return 1
    print(f"regress: {len(all_checks)} SLO check(s) within budget")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
