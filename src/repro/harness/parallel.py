"""Parallel experiment execution (``python -m repro.harness --parallel N``).

Every experiment driver is an independent, deterministic function of
``(exp_id, profile)``, so the figure set fans out over worker processes.
Since the ``repro.svc`` service layer landed, the fan-out rides the
**warm worker pool** (:class:`repro.svc.service.Service`) instead of a
throwaway ``multiprocessing.Pool``. Two things make the parallel run
produce byte-identical reports to the serial one:

* results come back as *rendered report strings* and are printed in the
  caller's requested order, regardless of completion order;
* figs. 14/15/16 share one memoized suite (:mod:`repro.harness.suite`),
  so they run in the calling process, in request order, while the pool
  runs everything else: the suite simulates once, inside the capture
  scope of the first of them, exactly as in a serial run.

:func:`execute_one` is the single-experiment execution path shared by
the serial runner and the service workers: it runs one experiment inside
the capture scope of its :class:`~repro.obs.capture.CaptureSpec`, if
any, and appends the capture summary to the rendered report. A worker
arms nothing a serial run would not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..obs.capture import CaptureSpec, capture_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..svc.telemetry import MetricsRegistry

__all__ = ["run_serial", "run_parallel", "execute_one",
           "SHARED_SUITE_EXPERIMENTS"]

# experiments that consume the memoized fig-14 suite
SHARED_SUITE_EXPERIMENTS = ("fig14", "fig15", "fig16")


def execute_one(exp_id: str, profile: str,
                spec: Optional[CaptureSpec] = None,
                metrics: Optional["MetricsRegistry"] = None
                ) -> Tuple[str, bool]:
    """Run one experiment; return (rendered report, all_ok).

    When a :class:`CaptureSpec` rides along, the experiment runs inside
    a capture scope: every system it builds streams onto the obs bus,
    exports (JSONL, Perfetto, folded profiler stacks, time-series CSV)
    land in per-experiment files (``t.jsonl`` → ``t.<exp_id>.jsonl``),
    and the report text — metrics summary and/or per-DSA cycles
    breakdown, aggregated across the experiment's runs — is appended to
    the rendered report. This works identically in serial and pooled
    runs because each worker owns its experiment's capture end to end.

    Pass a :class:`~repro.svc.telemetry.MetricsRegistry` as ``metrics``
    to fold in what the capture observed beyond its file exports: one
    ``watchdog_warnings_total{kind}`` per warning and, with the cache
    lens armed, each cache's ``sim_cache_hit_rate``,
    ``sim_cache_conflict_share`` and ``sim_cache_misses_total`` — how
    the service worker reports harness-path pathologies and cache
    health.
    """
    from . import run_experiment

    with capture_scope(spec and spec.for_experiment(exp_id)) as capture:
        report = run_experiment(exp_id, profile)
    rendered = report.render()
    if capture is None:
        return rendered, report.all_ok
    if metrics is not None:
        for warning in capture.watchdog_warnings:
            metrics.inc("watchdog_warnings_total", kind=warning.kind)
        if capture.spec.wants_misses:
            lens = capture.merged_cachelens()
            for cache, entry in sorted(lens.items()):
                metrics.set("sim_cache_hit_rate", entry["hit_rate"],
                            cache=cache)
                metrics.set("sim_cache_conflict_share",
                            entry["conflict_share"], cache=cache)
                metrics.inc("sim_cache_misses_total", entry["misses"],
                            cache=cache)
    if capture.summary_text:
        rendered = f"{rendered}\n{capture.summary_text}"
    return rendered, report.all_ok


def run_serial(targets: Sequence[str], profile: str,
               capture: Optional[CaptureSpec] = None
               ) -> List[Tuple[str, bool]]:
    """Run experiments in order in this process."""
    return [execute_one(exp_id, profile, capture) for exp_id in targets]


def run_parallel(targets: Sequence[str], profile: str, jobs: int,
                 capture: Optional[CaptureSpec] = None
                 ) -> List[Tuple[str, bool]]:
    """Fan experiments out over a warm pool of ``jobs`` workers.

    Returns ``(rendered_report, all_ok)`` pairs in ``targets`` order —
    the same sequence :func:`run_serial` produces. The suite-sharing
    experiments run here, while the pool works through the rest.
    """
    pooled = [t for t in targets if t not in SHARED_SUITE_EXPERIMENTS]
    if jobs <= 1 or len(targets) <= 1 or not pooled:
        return run_serial(targets, profile, capture)

    from ..svc.jobs import JobSpec
    from ..svc.service import Service

    with Service(workers=min(jobs, len(pooled)), store=None,
                 max_pending=len(pooled)) as svc:
        handles = {t: svc.submit(JobSpec(experiment=t, profile=profile,
                                         capture=capture))
                   for t in pooled}
        local = iter(run_serial(
            [t for t in targets if t in SHARED_SUITE_EXPERIMENTS],
            profile, capture))
        results: List[Tuple[str, bool]] = []
        for t in targets:
            if t in handles:
                payload = handles[t].result()
                results.append((payload["rendered"], payload["all_ok"]))
            else:
                results.append(next(local))
    return results
