"""``repro.svc`` — an in-process simulation service.

The service layer runs many experiment jobs from one process:
declarative :class:`~repro.svc.jobs.JobSpec` requests flow through a
FIFO queue into a **warm pool** of persistent worker
processes, results land in a **content-addressed store** keyed by
(config, workload, code version), and identical concurrent requests
**coalesce** onto one simulation. Its users are ``harness --parallel``,
``python -m repro.svc sweep`` and the run ledger that ``svc history``
and ``explain --ledger`` read. The service counts its jobs
(``Service.metrics()``); what a job's simulation did reaches the caller
only through the job's capture, as in a harness run. See ``DESIGN.md``
§5 and ``python -m repro.svc --help``.

Attribute access is lazy (PEP 562): ``repro.harness`` imports
``repro.svc`` pieces and vice versa, so the package body must not
import its submodules eagerly.
"""

from typing import Any

__all__ = [
    "Job",
    "JobCancelled",
    "JobFailed",
    "JobQueue",
    "JobSpan",
    "JobSpec",
    "JobState",
    "ResultStore",
    "RunLedger",
    "Service",
    "WorkerPool",
    "canonical_json",
    "code_version",
    "digest_of",
    "sweep_specs",
]

_EXPORTS = {
    "Job": "jobs",
    "JobCancelled": "jobs",
    "JobFailed": "jobs",
    "JobQueue": "jobs",
    "JobSpan": "telemetry",
    "JobSpec": "jobs",
    "JobState": "jobs",
    "ResultStore": "store",
    "RunLedger": "telemetry",
    "Service": "service",
    "WorkerPool": "pool",
    "canonical_json": "store",
    "code_version": "store",
    "digest_of": "store",
    "sweep_specs": "service",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
