"""Parallel experiment execution (``python -m repro.harness --parallel N``).

Every experiment driver is an independent, deterministic function of
``(exp_id, profile)``, so the figure set fans out over worker processes.
Since the ``repro.svc`` service layer landed, the fan-out rides the
**warm worker pool** (:class:`repro.svc.service.Service`) instead of a
throwaway ``multiprocessing.Pool``: workers are long-lived, so repeated
suite runs in one process reuse the in-memory fig-14 suite memo and the
compiled microcode it carries, instead of paying the compile cost per
batch. Two things make the parallel run produce byte-identical reports
to the serial one:

* results come back as *rendered report strings* and are printed in the
  caller's requested order, regardless of completion order;
* the figs. 14/15/16 shared suite is simulated **once** (a ``suite``
  job submitted ahead of them) and published to a disk cache (see
  ``REPRO_SUITE_CACHE`` in :mod:`repro.harness.suite`) before the
  suite-consuming experiments dispatch, so the three workers that
  consume it reload the identical pickled runs instead of
  re-simulating.

:func:`execute_one` is the single-experiment execution path shared by
the serial runner and the service workers: it runs one driver inside an
optional capture scope and appends the capture summary to the rendered
report.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..obs.capture import Capture, CaptureSpec, use_capture
from .suite import SUITE_CACHE_ENV

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..svc.telemetry import MetricsRegistry

__all__ = ["run_serial", "run_parallel", "execute_one",
           "SHARED_SUITE_EXPERIMENTS"]

# experiments that consume the memoized fig-14 suite
SHARED_SUITE_EXPERIMENTS = ("fig14", "fig15", "fig16")


def execute_one(exp_id: str, profile: str,
                spec: Optional[CaptureSpec] = None,
                on_attach: Optional[Callable] = None,
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

    ``on_attach`` (see :class:`repro.obs.capture.Capture`) lets the
    service worker add its own processors — progress streaming, the
    health watchdog — to every system the driver builds; passing it
    forces a capture scope even when ``spec`` exports nothing.

    Pass a :class:`~repro.svc.telemetry.MetricsRegistry` as ``metrics``
    to fold in what the capture observed beyond its file exports: one
    ``watchdog_warnings_total{kind}`` per warning and, with the cache
    lens armed, each cache's ``sim_cache_hit_rate``,
    ``sim_cache_conflict_share`` and ``sim_cache_misses_total`` — how
    the service worker reports harness-path pathologies and cache
    health.
    """
    from . import run_experiment

    if (spec is None or not spec.active) and on_attach is None:
        report = run_experiment(exp_id, profile)
        return report.render(), report.all_ok
    scoped = (spec if spec is not None else CaptureSpec())
    capture = Capture(scoped.for_experiment(exp_id), on_attach=on_attach)
    try:
        with use_capture(capture):
            report = run_experiment(exp_id, profile)
    finally:
        summary = capture.finish()
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
    rendered = report.render()
    if summary:
        rendered = f"{rendered}\n{summary}"
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
    the same sequence :func:`run_serial` produces. The shared suite
    cache lives in a temporary directory removed afterwards.
    """
    if jobs <= 1 or len(targets) <= 1:
        return run_serial(targets, profile, capture)

    from ..svc.jobs import JobSpec
    from ..svc.service import Service

    cache_dir = tempfile.mkdtemp(prefix="repro-suite-cache-")
    previous = os.environ.get(SUITE_CACHE_ENV)
    # set before Service starts: workers inherit the environment
    os.environ[SUITE_CACHE_ENV] = cache_dir
    suite_targets = [t for t in targets if t in SHARED_SUITE_EXPERIMENTS]
    try:
        with Service(workers=min(jobs, len(targets)), store=None,
                     health=False,
                     max_pending=len(targets) + 1) as svc:
            # The shared suite simulates once, concurrently with the
            # non-suite experiments; fig14/15/16 dispatch only after it
            # lands on disk, then reload it instead of re-simulating.
            warm = (svc.submit(JobSpec(experiment="suite", profile=profile))
                    if suite_targets else None)
            handles = {
                t: svc.submit(JobSpec(experiment=t, profile=profile,
                                      capture=capture))
                for t in targets if t not in SHARED_SUITE_EXPERIMENTS}
            if warm is not None:
                warm.result()
                for t in suite_targets:
                    handles[t] = svc.submit(
                        JobSpec(experiment=t, profile=profile,
                                capture=capture))
            results: List[Tuple[str, bool]] = []
            for t in targets:
                payload = handles[t].result()
                results.append((payload["rendered"], payload["all_ok"]))
            return results
    finally:
        if previous is None:
            os.environ.pop(SUITE_CACHE_ENV, None)
        else:
            os.environ[SUITE_CACHE_ENV] = previous
        shutil.rmtree(cache_dir, ignore_errors=True)
