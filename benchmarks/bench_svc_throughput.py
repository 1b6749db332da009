"""Service-layer throughput: warm worker pool vs fresh-process runs,
plus content-addressed dedup service rates.

Two measurements, one record:

* **Warm pool vs fresh processes** — the same batch of distinct ci
  experiment jobs executed (a) one fresh spawned worker process per
  job, paying interpreter boot + simulator imports + walker assembly
  every time (what a service *without* a persistent pool would pay),
  and (b) through one long-lived :class:`repro.svc.service.Service`
  worker that boots once (boot excluded via ``wait_ready``) and then
  amortizes that setup across the batch. Both sides use one worker and
  the spawn start method, and the store is disabled, so ``pool_speedup``
  isolates process *warmth* — not parallelism, not dedup.
* **Dedup service rate** — after one simulation of a spec is stored,
  N identical submits resolve as store hits without touching a worker;
  ``dedup_hits_per_sec`` is the resolution rate and
  ``dedup_simulations`` (a config key: must stay exactly 1) is the
  counter-backed proof that N identical requests cost one simulation.

Run standalone to emit ``BENCH_svc.json``::

    PYTHONPATH=src python benchmarks/bench_svc_throughput.py --out BENCH_svc.json

Under pytest the module asserts the warm pool clears the issue's
>=1.3x-over-fresh-process bar (set ``REPRO_BENCH_SMOKE=1`` for a
correctness-only smoke run, as CI does on shared runners).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.svc.jobs import JobSpec
from repro.svc.pool import WorkerPool
from repro.svc.service import Service

DEFAULT_JOBS = 6
DEFAULT_DEDUP_REQUESTS = 200
EXPERIMENT = "fig04"
PROFILE = "ci"
POOL_SPEEDUP_FLOOR = 1.3       # acceptance bar from the issue
SMOKE_ENV = "REPRO_BENCH_SMOKE"


def make_specs(jobs: int):
    """Distinct jobs (per-job seed override) so nothing dedups and no
    in-worker memo crosses jobs — every job simulates fully."""
    return [JobSpec(experiment=EXPERIMENT, profile=PROFILE,
                    profile_overrides=(("seed", 7 + i),))
            for i in range(jobs)]


def run_fresh_process(spec: JobSpec) -> dict:
    """Execute one job on a worker spawned just for it (boot included)."""
    pool = WorkerPool(workers=1)
    pool.start()
    try:
        while True:
            for kind, handle, _job_id, payload in pool.poll(0.05):
                if kind == "ready":
                    pool.dispatch(handle, 1, spec)
                elif kind == "result":
                    assert payload["ok"], payload.get("error")
                    return payload
                elif kind == "died":  # pragma: no cover - bench guard
                    raise RuntimeError("bench worker died")
    finally:
        pool.stop()


def drive_cold(specs) -> float:
    """Jobs/sec with a fresh process per job."""
    start = time.perf_counter()
    for spec in specs:
        run_fresh_process(spec)
    return len(specs) / (time.perf_counter() - start)


def drive_warm(specs) -> float:
    """Jobs/sec through one long-lived service worker (boot excluded)."""
    service = Service(workers=1, store=None).start(wait_ready=True)
    try:
        start = time.perf_counter()
        handles = [service.submit(spec) for spec in specs]
        for job in handles:
            assert job.result(timeout=600)["all_ok"] is not None
        return len(specs) / (time.perf_counter() - start)
    finally:
        service.close()


def drive_dedup(requests: int) -> dict:
    """Store-hit resolution rate for identical submits after the first."""
    spec = JobSpec(experiment=EXPERIMENT, profile=PROFILE)
    service = Service(workers=1).start(wait_ready=True)
    try:
        service.submit(spec).result(timeout=600)  # the one simulation
        start = time.perf_counter()
        for _ in range(requests):
            job = service.submit(spec)
            assert job.from_store
            job.result(0)
        elapsed = time.perf_counter() - start
        stats = service.store.stats
        assert stats.hits == requests, stats.as_dict()
        return {"hits_per_sec": requests / elapsed,
                "simulations": stats.misses}
    finally:
        service.close()


def compare(jobs: int = DEFAULT_JOBS,
            dedup_requests: int = DEFAULT_DEDUP_REQUESTS) -> dict:
    specs = make_specs(jobs)
    cold_jps = drive_cold(specs)
    warm_jps = drive_warm(specs)
    dedup = drive_dedup(dedup_requests)
    return {
        "benchmark": "svc_throughput",
        "experiment": EXPERIMENT,
        "profile": PROFILE,
        "workers": 1,
        "jobs": jobs,
        "dedup_requests": dedup_requests,
        "dedup_simulations": dedup["simulations"],
        "cold_jobs_per_sec": round(cold_jps, 3),
        "warm_jobs_per_sec": round(warm_jps, 3),
        "pool_speedup": round(warm_jps / cold_jps, 2),
        "dedup_hits_per_sec": round(dedup["hits_per_sec"]),
    }


def test_warm_pool_speedup():
    """The warm pool clears 1.3x over fresh-process-per-job, and N
    identical requests cost exactly one simulation."""
    smoke = bool(os.environ.get(SMOKE_ENV))
    jobs = 2 if smoke else DEFAULT_JOBS
    dedup_requests = 20 if smoke else DEFAULT_DEDUP_REQUESTS
    result = compare(jobs, dedup_requests)
    print()
    print(json.dumps(result, indent=2))
    assert result["dedup_simulations"] == 1, result
    if smoke:
        assert result["warm_jobs_per_sec"] > 0
        assert result["dedup_hits_per_sec"] > 0
    else:
        assert result["pool_speedup"] >= POOL_SPEEDUP_FLOOR, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument("--dedup-requests", type=int,
                        default=DEFAULT_DEDUP_REQUESTS)
    parser.add_argument("--out", default=None,
                        help="write the result record as JSON here")
    args = parser.parse_args(argv)
    result = compare(args.jobs, args.dedup_requests)
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
