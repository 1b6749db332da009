#!/usr/bin/env python
"""The simulation service in ~30 lines: warm pool and dedup.

Spins up a private 2-worker service, then shows the two things the
service layer adds over running the harness directly:

1. identical submissions cost one simulation (coalescing + the
   content-addressed result store, with counters to prove it);
2. a finished digest resolves straight from the result store, no
   worker touched.

Run me: PYTHONPATH=src python examples/service_demo.py

(The ``__main__`` guard is load-bearing: service workers are *spawned*
processes, and spawn re-executes the launching script on import.)
"""

import time

from repro.svc import JobSpec, Service


def main() -> None:
    with Service(workers=2) as svc:
        # -- 1. dedup: five submissions, one simulation -----------------
        spec = JobSpec(experiment="tab01", profile="ci")
        jobs = [svc.submit(spec) for _ in range(5)]
        print(jobs[0].result(timeout=120)["rendered"])

        stats = svc.store.stats
        print(f"5 submissions -> {stats.misses} simulation "
              f"({stats.coalesced} coalesced, {stats.hits} store hits)")
        assert stats.misses == 1

        # -- 2. the store: a finished digest resolves without a worker --
        fig07 = JobSpec(experiment="fig07", profile="ci")
        cold = svc.submit(fig07).result(timeout=120)["metadata"]
        start = time.perf_counter()
        again = svc.submit(fig07)
        again.result(timeout=5)
        resolved_ms = (time.perf_counter() - start) * 1000
        assert again.from_store
        print(f"fig07 simulated in {cold['duration_s']*1000:.0f} ms; "
              f"identical resubmit resolved from the store in "
              f"{resolved_ms:.2f} ms")

        metrics = svc.metrics()
        print(f"service totals: submitted={metrics['submitted']} "
              f"completed={metrics['completed']} "
              f"coalesced={metrics['coalesced']} "
              f"store_hits={metrics['store_hits']} "
              f"worker_restarts={metrics['worker_restarts']}")


if __name__ == "__main__":
    main()
