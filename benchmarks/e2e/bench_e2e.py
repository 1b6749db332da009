#!/usr/bin/env python3
"""End-to-end benchmark of the X-Cache reproduction.

Five workloads drive the program through its public entry points only
(profile helpers, the DSA model constructors and ``.run()``,
``Capture``/``use_capture`` and ``Service``). One run of a workload
repeats a fixed unit of work -- a *pass* -- for ``--seconds`` of host
time (at least three passes), checks every output, and prints each
end-to-end metric by name and unit; the last line of standard output is
one JSON object::

    python3 benchmarks/e2e/bench_e2e.py --workload widx-chase --seed 7
    python3 benchmarks/e2e/bench_e2e.py --seed 7         # all five workloads,
                                                         # each in a fresh process
    python3 benchmarks/e2e/bench_e2e.py --workload graph-events --trace 1

``--trace 1`` adds one more pass run under cProfile and prints the
per-layer metrics instead (host self time per layer, exact call counts);
it writes ``layers.json`` and ``spans.json`` to ``--trace-dir``. See
README.md in this directory for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import cProfile
import faulthandler
import gc
import json
import math
import os
import pstats
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
EXPECTED_PATH = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (benchmark-local module, found through HERE)

#: expected.json holds per-op results for these seeds (7: development
#: seed; 11: held out)
EXPECTED_SEEDS = (7, 11)
MIN_PASSES = 3
#: svc-sweep closed loop: submits per pass, outstanding jobs, repeat share
SVC_BATCH = 8
SVC_WINDOW = 2
SVC_REPEATS = 2          # 25% of each batch repeats an earlier spec
SVC_BOOTS = 5            # service start-ups per run (setup_s median)
SVC_JOB_TIMEOUT_S = 60.0
SVC_EXPECTED_BATCHES = 16
RUN_DEADLINE_S = 90.0    # plus 3x --seconds, then a single run aborts

END_TO_END = (           # (metric, unit) printed by an untraced run
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass(frozen=True)
class SuiteWorkload:
    """Fig-14 labels run with suite.py's three-variant recipe."""

    labels: Tuple[str, ...]
    base: str                                  # profile the sizes derive from
    overrides: Tuple[Tuple[str, object], ...] = ()
    observed: bool = False                     # run inside an armed Capture


#: the sizes keep one pass near 1.5-2.5 s on a 2-core host, so a run of
#: ``--seconds 15`` measures about seven passes; ``--smoke`` runs the
#: workloads sized from ``quick`` at the ``ci`` profile instead
WORKLOADS: Dict[str, Optional[SuiteWorkload]] = {
    # hash-chain pointer chasing, index 8x the 512-entry Widx cache
    "widx-chase": SuiteWorkload(
        ("TPC-H-19", "TPC-H-20", "TPC-H-22", "dasx"), "quick",
        (("widx_probes", 2048), ("dasx_probes", 2048))),
    # multi-block row streaming through the controller back-end
    "spgemm-stream": SuiteWorkload(("sparch", "gamma"), "quick",
                                   (("spgemm_n", 256),)),
    # meta stores beside loads, almost no DRAM: front-end + kernel
    "graph-events": SuiteWorkload(("graphpulse",), "quick",
                                  (("graph_scale", 0.3),)),
    # every fig-14 label with the obs bus armed
    "suite-observed": SuiteWorkload(
        ("TPC-H-19", "TPC-H-20", "TPC-H-22", "dasx", "graphpulse",
         "sparch", "gamma"), "ci",
        (("widx_probes", 1024), ("dasx_probes", 512), ("spgemm_n", 128)),
        observed=True),
    # closed-loop fig04 jobs on a one-worker Service
    "svc-sweep": None,
}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class Recorder:
    """Chrome-trace spans recorded around the benchmark's calls into
    the program; kept in memory and written once at the end."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._t0 = time.perf_counter()
        # JobSpan stamps are time.monotonic(); map them onto this clock
        self._mono_offset = time.perf_counter() - time.monotonic()
        self._stack: List[int] = []

    def _us(self, t: float) -> float:
        return round((t - self._t0) * 1e6, 3)

    @contextmanager
    def span(self, name: str, cat: str, **args) -> Iterator[dict]:
        """Record ``name`` around the block; yields the event, whose
        ``seconds`` entry is filled in when the block ends."""
        event = {"name": name, "cat": cat, "ph": "X", "pid": 1, "tid": 1,
                 "args": dict(args, id=len(self.events),
                              parent=self._stack[-1] if self._stack
                              else None)}
        self.events.append(event)
        self._stack.append(event["args"]["id"])
        start = time.perf_counter()
        try:
            yield event
        finally:
            end = time.perf_counter()
            self._stack.pop()
            event["ts"] = self._us(start)
            event["dur"] = round((end - start) * 1e6, 3)
            event["seconds"] = end - start

    def job(self, span, label: str) -> None:
        """A svc job's lifecycle span with its JobSpan split laid out as
        consecutive children (queue_wait, sim_exec, dispatch,
        store_write) from admission."""
        if span.admitted is None or span.finished is None:
            return
        tid = 1000 + span.job_id
        start = span.admitted + self._mono_offset
        parent = len(self.events)
        self.events.append({
            "name": label, "cat": "job", "ph": "X", "pid": 1, "tid": tid,
            "ts": self._us(start), "dur": round(span.end_to_end * 1e6, 3),
            "args": {"id": parent, "parent": self._stack[-1]
                     if self._stack else None, "job": span.job_id,
                     "from_store": span.from_store}})
        split = span.split()
        cursor = start
        for part in ("queue_wait", "sim_exec", "dispatch", "store_write"):
            seconds = max(0.0, split[part])
            self.events.append({
                "name": part, "cat": "job", "ph": "X", "pid": 1, "tid": tid,
                "ts": self._us(cursor), "dur": round(seconds * 1e6, 3),
                "args": {"id": len(self.events), "parent": parent}})
            cursor += seconds

    def write(self, path: Path) -> None:
        events = [{k: v for k, v in e.items() if k != "seconds"}
                  for e in self.events]
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}) + "\n")


# ----------------------------------------------------------------------
# results of one pass
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One variant run or one service job."""

    key: str                       # e.g. "TPC-H-19/xcache" or "job 7003"
    latency_s: float
    ok: bool
    result: object = None          # RunResult fields or a result digest
    error: str = ""
    run: object = None             # the RunResult of a variant run


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    sim_s: float
    ops: List[Op] = field(default_factory=list)


def run_fields(result) -> Dict[str, object]:
    """The RunResult fields that expected.json pins per op."""
    return {"cycles": result.cycles, "dram_reads": result.dram_reads,
            "dram_writes": result.dram_writes,
            "onchip": result.onchip_accesses, "hits": result.hits,
            "misses": result.misses, "requests": result.requests,
            "checks": result.checks_passed}


def _fail(op: Op, why: str) -> None:
    op.ok = False
    op.error = op.error or why


# ----------------------------------------------------------------------
# suite workloads
# ----------------------------------------------------------------------

def suite_profile(wl: SuiteWorkload, seed: int, smoke: bool):
    """The seeded profile of one pass; ``smoke`` runs at ``ci`` size."""
    from repro.harness.profiles import derive_profile

    base, overrides = wl.base, dict(wl.overrides)
    if smoke and base != "ci":
        base, overrides = "ci", {}
    overrides["seed"] = seed
    return derive_profile(base, overrides)


def make_inputs(label: str, prof):
    """Generate one label's inputs, as repro.harness.suite does."""
    from repro.workloads.graphgen import p2p_gnutella08
    from repro.workloads.matrices import dense_spgemm_input

    if label.startswith("TPC-H"):
        return prof.widx_workload(label), prof.xcache_config("widx")
    if label == "dasx":
        return prof.dasx_workload(), prof.xcache_config("dasx")
    if label == "graphpulse":
        return p2p_gnutella08(scale=prof.graph_scale, seed=prof.seed), None
    matrices = dense_spgemm_input(n=prof.spgemm_n,
                                  nnz_per_row=prof.spgemm_nnz_per_row,
                                  seed=prof.seed)
    return matrices, prof.xcache_config(label)


def variants(label: str, prof, data, cfg) -> Sequence[Tuple[str, Callable]]:
    """suite.py's (xcache, baseline, addr) constructors for one label."""
    from repro import dsa

    if label.startswith("TPC-H"):
        return (("xcache", lambda: dsa.WidxXCacheModel(data, config=cfg)),
                ("baseline", lambda: dsa.WidxBaselineModel(
                    data, num_walkers=8, cache_config=None)),
                ("addr", lambda: dsa.WidxAddressModel(
                    data, xcache_config=cfg)))
    if label == "dasx":
        return (("xcache", lambda: dsa.DasxXCacheModel(data, config=cfg)),
                ("baseline", lambda: dsa.DasxBaselineModel(data)),
                ("addr", lambda: dsa.DasxAddressModel(
                    data, xcache_config=cfg)))
    if label == "graphpulse":
        pes = prof.graph_pes
        return (("xcache", lambda: dsa.GraphPulseXCacheModel(
                    data, num_pes=pes)),
                ("baseline", lambda: dsa.GraphPulseXCacheModel(
                    data, num_pes=pes, ideal=True)),
                ("addr", lambda: dsa.GraphPulseAddressModel(
                    data, num_pes=pes)))
    a, b = data
    if label == "sparch":
        xcache, address = dsa.SpArchXCacheModel, dsa.SpArchAddressModel
    else:
        xcache, address = dsa.GammaXCacheModel, dsa.GammaAddressModel
    return (("xcache", lambda: xcache(a, b, config=cfg)),
            ("baseline", lambda: xcache(a, b, config=cfg, ideal=True)),
            ("addr", lambda: address(a, b, xcache_config=cfg)))


def observed_spec(prof_dir: str):
    """metrics + misses + spans + prof + watchdog; no JSONL/Perfetto."""
    from repro.obs.capture import CaptureSpec

    return CaptureSpec(metrics=True, misses=True, spans=True,
                       prof_path=os.path.join(prof_dir, "prof.folded"),
                       watchdog=True)


def suite_pass(wl: SuiteWorkload, seed: int, smoke: bool, rec: Recorder,
               index: int, observe: bool, prof_dir: str) -> PassResult:
    """One pass: the seeded profile, then every label's inputs and its
    three variants."""
    from repro.core.messages import reset_ids
    from repro.obs.capture import Capture, use_capture

    reset_ids()   # number requests identically in every pass
    out = PassResult(0.0, 0.0, 0.0)
    capture = Capture(observed_spec(prof_dir)) if observe else None
    with rec.span(f"pass {index}", "pass") as pass_span:
        with rec.span("profile", "inputs") as s:
            prof = suite_profile(wl, seed, smoke)
        out.setup_s += s["seconds"]
        with use_capture(capture) if capture else nullcontext():
            for label in wl.labels:
                try:
                    with rec.span(f"{label} inputs", "inputs") as s:
                        data, cfg = make_inputs(label, prof)
                    out.setup_s += s["seconds"]
                    builders = variants(label, prof, data, cfg)
                except Exception:
                    traceback.print_exc()
                    out.ops += [Op(f"{label}/{v}", 0.0, False,
                                   error="input generation raised")
                                for v in ("xcache", "baseline", "addr")]
                    continue
                for variant, build in builders:
                    out.ops.append(_suite_op(label, variant, build, rec, out))
        if capture is not None:
            with rec.span("capture finish", "obs"):
                summary = capture.finish()
            if not summary or capture.systems_observed == 0:
                for op in out.ops:
                    _fail(op, "armed capture observed nothing")
    out.wall_s = pass_span["seconds"]
    return out


def _suite_op(label: str, variant: str, build: Callable, rec: Recorder,
              out: PassResult) -> Op:
    op = Op(f"{label}/{variant}", 0.0, True)
    # the previous op's cyclic garbage is collected here: inside the
    # pass, so wall_s pays for it, but outside setup_s and sim_s, where
    # a collection would land in one or the other by allocation count
    with rec.span(f"{op.key} gc", "gc"):
        gc.collect()
    try:
        with rec.span(f"{op.key} construct", "construct") as s:
            model = build()
        out.setup_s += s["seconds"]
        op.latency_s += s["seconds"]
        with rec.span(f"{op.key} run", "run") as s:
            result = model.run()
        out.sim_s += s["seconds"]
        op.latency_s += s["seconds"]
    except Exception:
        traceback.print_exc()
        _fail(op, "construct/run raised")
        return op
    with rec.span(f"{op.key} check", "check") as s:
        op.result = run_fields(result)
        op.run = result
        if not result.checks_passed:
            _fail(op, "functional check failed")
    op.latency_s += s["seconds"]
    return op


def simulated_summary(ops: Sequence[Op]) -> Dict[str, float]:
    """Simulated (not host) numbers of one pass: the modelled design."""
    by_key = {op.key: op.run for op in ops}
    labels = sorted({op.key.split("/")[0] for op in ops})
    cycles = 0
    ratios = []
    for label in labels:
        x = by_key.get(f"{label}/xcache")
        base = by_key.get(f"{label}/baseline")
        if x is None or base is None or x.cycles <= 0:
            continue
        cycles += x.cycles
        ratios.append(base.cycles / x.cycles)
    results = [r for r in by_key.values() if r is not None]

    def hit_rate(variant: str) -> float:
        runs = [r for r in results if r.variant == variant]
        return (sum(r.hits for r in runs)
                / max(1, sum(r.hits + r.misses for r in runs)))

    return {
        "sim_cycles": cycles,
        "xcache_speedup": (math.exp(sum(map(math.log, ratios)) / len(ratios))
                           if ratios else 0.0),
        "sim_requests": sum(r.requests for r in results),
        "core.controller.hit_rate": hit_rate("xcache"),
        "mem.addrcache.hit_rate": hit_rate("addr"),
        "mem.dram.accesses": sum(r.dram_accesses for r in results),
    }


# ----------------------------------------------------------------------
# svc-sweep
# ----------------------------------------------------------------------

class SvcSweep:
    """Closed-loop fig04 jobs: ``SVC_BATCH`` submits per pass with
    ``SVC_WINDOW`` outstanding, ``SVC_REPEATS`` of them repeating an
    earlier spec of the same batch (chosen by ``random.Random(seed)``).
    Fresh specs get their own seed (``seed * 1000 + k``), so a batch
    never hits results of an earlier one."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.fresh = 0

    def batch(self) -> List[Tuple[int, Optional[int]]]:
        """(job seed, position it repeats or None) per submit."""
        repeats = set(self.rng.sample(range(1, SVC_BATCH), SVC_REPEATS))
        out: List[Tuple[int, Optional[int]]] = []
        for pos in range(SVC_BATCH):
            if pos in repeats:
                earlier = [i for i, (_, rep) in enumerate(out) if rep is None]
                target = self.rng.choice(earlier)
                out.append((out[target][0], target))
            else:
                out.append((self.seed * 1000 + self.fresh, None))
                self.fresh += 1
        return out


def job_spec(job_seed: int):
    from repro.svc.jobs import JobSpec

    return JobSpec(experiment="fig04", profile="ci",
                   profile_overrides=(("seed", job_seed),))


def stop_children(timeout: float = 5.0) -> None:
    """End every process this one started and wait for each: the
    service's spawned workers, then multiprocessing's resource tracker.
    Spawned workers hold the tracker's pipe open, so it goes last, and
    without the explicit stop it would outlive this process briefly."""
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def boot_service(rec: Recorder, index: int):
    from repro.svc import Service

    with rec.span(f"service boot {index}", "setup") as s:
        svc = Service(workers=1)
        # not start(wait_ready=True): that polls the pool from this
        # thread while the control loop polls it too, and the two can
        # split one message between them and hang. Wait for the worker
        # before the loop starts instead.
        svc.pool.start()
        svc.pool.wait_ready()
        svc.start()
    return svc, s["seconds"]


@dataclass
class Submitted:
    op: Op
    job: object
    job_seed: int
    fresh: bool
    submitted: float          # time.monotonic(), the JobSpan clock


def svc_pass(svc, sweep: SvcSweep, rec: Recorder, index: int) -> PassResult:
    """One closed-loop batch, then its checks. A repeat of an earlier
    spec shares its op key, so check_ops compares the two results."""
    out = PassResult(0.0, 0.0, 0.0)
    plan = sweep.batch()
    before = svc.metrics()
    with rec.span(f"pass {index}", "pass") as pass_span:
        entries: List[Submitted] = []
        outstanding: List = []
        for job_seed, repeat_of in plan:
            while True:
                outstanding = [j for j in outstanding
                               if not j.state.finished]
                if len(outstanding) < SVC_WINDOW:
                    break
                if not outstanding[0].wait(SVC_JOB_TIMEOUT_S):
                    outstanding.pop(0)   # timed out; fails in the check
            op = Op(f"job {job_seed}", 0.0, True)
            out.ops.append(op)
            submitted = time.monotonic()
            try:
                with rec.span(f"submit {job_seed}", "submit"):
                    job = svc.submit(job_spec(job_seed))
            except Exception:       # AdmissionBusy or a rejected spec
                traceback.print_exc()
                _fail(op, "submit refused")
                continue
            outstanding.append(job)
            entries.append(Submitted(op, job, job_seed, repeat_of is None,
                                     submitted))
        with rec.span("drain", "wait"):
            for entry in entries:
                entry.job.wait(SVC_JOB_TIMEOUT_S)
        with rec.span("check", "check"):
            _check_batch(svc, entries, plan, before, rec, out)
    out.wall_s = pass_span["seconds"]
    return out


def _check_batch(svc, entries: List[Submitted], plan, before: dict,
                 rec: Recorder, out: PassResult) -> None:
    from repro.harness import run_experiment
    from repro.harness.profiles import derive_profile, ensure_profile

    spans_recorded = set()
    for entry in entries:
        op, job = entry.op, entry.job
        if not job.state.finished:
            _fail(op, "timed out")
            continue
        span = svc.job_span(job)
        op.latency_s = span.finished - entry.submitted
        try:
            payload = job.result(0)
        except Exception as exc:   # JobFailed / JobCancelled
            _fail(op, f"job ended {job.state.value}: {exc}")
            continue
        op.result = job.result_digest
        if "runs validated: True" not in payload["rendered"]:
            _fail(op, "functional check failed")
        if job.id not in spans_recorded:   # a coalesced repeat shares it
            spans_recorded.add(job.id)
            rec.job(span, op.key)
            if not span.from_store:
                out.sim_s += span.sim_exec
    after = svc.metrics()
    fresh = sum(1 for _, rep in plan if rep is None)
    simulated = after["admitted"] - before["admitted"]
    deduped = ((after["store_hits"] - before["store_hits"])
               + (after["coalesced"] - before["coalesced"]))
    if simulated != fresh or deduped != len(plan) - fresh:
        for op in out.ops:
            _fail(op, f"dedup broken: {simulated} simulations for "
                      f"{fresh} distinct specs, {deduped} deduped")
    # the service must return what the harness computes in-process
    first = next((e for e in entries if e.fresh and e.op.ok), None)
    if first is not None:
        with rec.span(f"reference {first.job_seed}", "reference"):
            name = ensure_profile(derive_profile("ci",
                                                 {"seed": first.job_seed}))
            rendered = run_experiment("fig04", name).render()
        if rendered != first.job.result(0)["rendered"]:
            _fail(first.op, "service result differs from the in-process "
                            "run")


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

def workload_sizes() -> Dict[str, object]:
    """What expected.json's entries depend on besides the seed."""
    out: Dict[str, object] = {}
    for name, wl in WORKLOADS.items():
        out[name] = ({"base": wl.base, "overrides": dict(wl.overrides)}
                     if wl is not None else
                     {"experiment": "fig04", "profile": "ci",
                      "batch": SVC_BATCH, "repeats": SVC_REPEATS})
    return out


def expected_for(name: str, seed: int, smoke: bool) -> Optional[dict]:
    """expected.json's ops of ``name`` at ``seed``, or None when the
    run is not at a recorded seed and size."""
    if smoke or seed not in EXPECTED_SEEDS:
        return None
    doc = json.loads(EXPECTED_PATH.read_text())
    if doc["sizes"].get(name) != workload_sizes()[name]:
        raise SystemExit(f"{EXPECTED_PATH.name} does not match the "
                         f"{name} sizes; regenerate it with "
                         f"--write-expected")
    return doc["seeds"][str(seed)][name]


def check_ops(ops: Sequence[Op], first: Dict[str, object],
              expected: Optional[dict]) -> None:
    """Every pass must reproduce the first pass and, at the recorded
    seeds, expected.json."""
    for op in ops:
        if not op.ok:
            continue
        if op.key in first and first[op.key] != op.result:
            _fail(op, "differs from this run's first pass")
        first.setdefault(op.key, op.result)
        if expected is not None and op.key in expected \
                and expected[op.key] != op.result:
            _fail(op, f"differs from {EXPECTED_PATH.name}")
        if expected is not None and op.key not in expected \
                and not op.key.startswith("job "):
            _fail(op, f"missing from {EXPECTED_PATH.name}")


@dataclass
class RunOutcome:
    name: str
    seed: int
    passes: List[PassResult]
    setup_samples: List[float]
    recorder: Recorder
    simulated: Dict[str, float] = field(default_factory=dict)
    profile: Optional[pstats.Stats] = None
    traced_wall_s: float = 0.0

    @property
    def ops(self) -> List[Op]:
        return [op for p in self.passes for op in p.ops]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def untraced(self) -> List[PassResult]:
        return self.passes[:-1] if self.profile is not None else self.passes

    def end_to_end(self) -> Dict[str, float]:
        untraced = self.untraced
        return {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "setup_s": statistics.median(self.setup_samples),
            "sim_s": statistics.median(p.sim_s for p in untraced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def latency_p50(self) -> Tuple[float, int]:
        """Median latency of the successful ops (one variant run, or one
        job from submit to result) and the sample count."""
        latencies = [op.latency_s for p in self.untraced for op in p.ops
                     if op.ok]
        return (statistics.median(latencies) if latencies else 0.0,
                len(latencies))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, expected: Optional[dict] = None,
                 observe: Optional[bool] = None,
                 min_passes: int = MIN_PASSES,
                 max_passes: Optional[int] = None) -> RunOutcome:
    """Measure ``name`` for ``seconds`` (at least ``min_passes``
    passes), then -- with ``trace`` -- one more pass under cProfile.
    Ops are checked against ``expected`` (one workload's entry of
    expected.json) when given; ``observe`` overrides whether the obs
    bus is armed."""
    import repro.dsa  # noqa: F401  (import cost stays out of the passes)
    import repro.harness  # noqa: F401

    wl = WORKLOADS[name]
    rec = Recorder()
    first: Dict[str, object] = {}
    outcome = RunOutcome(name, seed, [], [], rec)

    def keep_going() -> bool:
        n = len(outcome.passes)
        if max_passes is not None and n >= max_passes:
            return False
        return n < min_passes or time.perf_counter() - started < seconds

    if wl is None:
        sweep = SvcSweep(seed)
        svc = None
        try:
            for i in range(SVC_BOOTS):
                if svc is not None:
                    svc.close()
                svc, boot_s = boot_service(rec, i)
                outcome.setup_samples.append(boot_s)
            started = time.perf_counter()
            run_pass = lambda i: svc_pass(svc, sweep, rec, i)  # noqa: E731
            _measure(outcome, run_pass, keep_going, trace, first, expected)
        finally:
            try:
                if svc is not None:
                    svc.close()
            finally:
                stop_children()
        return outcome

    armed = wl.observed if observe is None else observe
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as prof_dir:
        started = time.perf_counter()
        run_pass = lambda i: suite_pass(wl, seed, smoke, rec,  # noqa: E731
                                        i, armed, prof_dir)
        _measure(outcome, run_pass, keep_going, trace, first, expected)
    outcome.setup_samples = [p.setup_s for p in outcome.untraced]
    outcome.simulated = simulated_summary(outcome.passes[0].ops)
    return outcome


def _measure(outcome: RunOutcome, run_pass, keep_going, trace: bool,
             first: dict, expected: Optional[dict]) -> None:
    while keep_going():
        # each pass starts without the previous passes' cyclic garbage,
        # so neither its time nor the peak RSS depends on how many
        # passes ran before it
        gc.collect()
        result = run_pass(len(outcome.passes))
        check_ops(result.ops, first, expected)
        outcome.passes.append(result)
    if trace:
        gc.collect()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = run_pass(len(outcome.passes))
        finally:
            profiler.disable()
        check_ops(result.ops, first, expected)
        outcome.passes.append(result)
        outcome.profile = pstats.Stats(profiler)
        outcome.traced_wall_s = result.wall_s


def per_layer(outcome: RunOutcome) -> Dict[str, float]:
    stats = outcome.profile
    self_times = layers.attribute(stats)
    untraced = statistics.median(p.wall_s for p in outcome.untraced)
    out: Dict[str, float] = {
        "trace.profiled_s": stats.total_tt,
        "trace.overhead_x": outcome.traced_wall_s / untraced,
    }
    out.update({f"{layer}.self_s": self_times[layer]
                for layer in layers.LAYERS})
    out.update(layers.counts(stats))
    return out


def per_layer_units() -> Dict[str, str]:
    units = {"trace.profiled_s": "s", "trace.overhead_x": "x"}
    units.update({f"{layer}.self_s": "s" for layer in layers.LAYERS})
    units.update({name: "count" for name in layers.COUNTS})
    return units


def write_trace(outcome: RunOutcome, metrics: Dict[str, float],
                trace_dir: Path) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    doc = {"workload": outcome.name, "seed": outcome.seed,
           "metrics": metrics, "simulated": outcome.simulated,
           "cumulative": layers.cumulative(outcome.profile),
           "top_functions": layers.top_functions(outcome.profile)}
    (trace_dir / "layers.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    outcome.recorder.write(trace_dir / "spans.json")


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def report(outcome: RunOutcome, trace_dir: Optional[Path]) -> dict:
    """Print the human-readable table and return the result record; a
    traced run (``trace_dir`` given) reports its per-layer metrics."""
    ops = outcome.ops
    print(f"== {outcome.name} seed={outcome.seed} "
          f"passes={len(outcome.passes)} ops={len(ops)} ==")
    for i, p in enumerate(outcome.passes):
        print(f"  pass {i}: wall {p.wall_s:.3f} s  setup {p.setup_s:.3f} s"
              f"  sim {p.sim_s:.3f} s  ops {len(p.ops)}")
    for op in ops:
        if not op.ok:
            print(f"  FAILED {op.key}: {op.error}")
    if trace_dir is not None:
        metrics = per_layer(outcome)
        units = per_layer_units()
        write_trace(outcome, metrics, trace_dir)
        print(f"  wrote {trace_dir / 'layers.json'} and spans.json")
    else:
        metrics = outcome.end_to_end()
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    latency, samples = outcome.latency_p50()
    print(f"  (info) op latency p50 {latency:.6f} s over {samples} ops")
    for name, value in outcome.simulated.items():
        print(f"  (simulated) {name:<24} {value:>16.6f}")
    print(f"  fail_rate {outcome.failed}/{len(ops)}")
    return {
        "correct": outcome.failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    records = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        records.append({"workload": name, "seed": args.seed,
                        "trace": args.trace, **record})
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {r["workload"]: r["metrics"] for r in records},
    }))
    return 0 if all(r["correct"] for r in records) else 1


def write_expected() -> int:
    """Record per-op results at the expected seeds (suites unarmed)."""
    doc: dict = {"sizes": workload_sizes(), "seeds": {}}
    for seed in EXPECTED_SEEDS:
        entry = doc["seeds"][str(seed)] = {}
        for name, wl in WORKLOADS.items():
            batches = SVC_EXPECTED_BATCHES if wl is None else 1
            outcome = run_workload(name, seed, 0.0, False, observe=False,
                                   min_passes=batches, max_passes=batches)
            if outcome.failed:
                print(f"{name} seed {seed}: {outcome.failed} ops failed",
                      file=sys.stderr)
                return 1
            entry[name] = {op.key: op.result for op in outcome.ops}
            print(f"recorded {name} seed {seed}: {len(entry[name])} ops",
                  flush=True)
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                             + "\n")
    return 0


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one cProfile'd pass, print per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", default=None,
                        help="where --trace 1 writes layers.json and "
                             "spans.json (default: out/<workload>-seed<N> "
                             "beside this script)")
    parser.add_argument("--smoke", action="store_true",
                        help="ci-profile sizes, one pass (tests)")
    parser.add_argument("--out", default=None,
                        help="also write the result record(s) as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help=f"regenerate {EXPECTED_PATH.name}")
    return parser.parse_args(argv)


def arm_deadline(seconds: float) -> None:
    """A hang inside the program ends the run after ``seconds`` with
    tracebacks, no result line and every child process stopped."""
    def expire() -> None:
        faulthandler.dump_traceback(all_threads=True)
        stop_children()
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    pinned = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if pinned:
        print(f"refusing to run with {', '.join(pinned)} set: the benchmark "
              f"measures the default program", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.write_expected:
        return write_expected()
    if args.workload == "all":
        return run_all(args)
    arm_deadline(RUN_DEADLINE_S + 3 * args.seconds)
    # a SIGTERM unwinds through the finally blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), smoke=args.smoke,
                               expected=expected_for(args.workload,
                                                     args.seed, args.smoke),
                               min_passes=1 if args.smoke else MIN_PASSES)
    finally:
        stop_children()
    trace_dir = None
    if args.trace:
        trace_dir = Path(args.trace_dir) if args.trace_dir else (
            OUT_DIR / f"{args.workload}-seed{args.seed}")
    record = report(outcome, trace_dir)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, **record}, indent=1) + "\n")
    print(json.dumps(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
