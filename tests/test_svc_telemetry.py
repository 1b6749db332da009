"""Service-plane telemetry: lifecycle spans, the metrics registry with
Prometheus exposition, the durable run ledger, and its ``explain
--ledger`` drilldown. Worker pools are real spawned processes, so tests
share small pools and lean on the synthetic ``sleep:`` experiment."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.svc.jobs import JobSpec
from repro.svc.pool import CRASH_ONCE_ENV, _execute_spec
from repro.svc.service import Service
from repro.svc.telemetry import (
    LEDGER_ENV,
    JobSpan,
    MetricsRegistry,
    RunLedger,
    format_history,
    render_prometheus,
)


def _series_value(snapshot, name, label_items=()):
    """Pull one series value out of a registry snapshot (wire form)."""
    for key, value in snapshot[name]["series"]:
        if tuple(tuple(item) for item in key) == tuple(label_items):
            return value
    raise KeyError((name, label_items))


# ----------------------------------------------------------------------
# job-lifecycle spans
# ----------------------------------------------------------------------

def test_span_split_tiles_end_to_end_exactly():
    """queue_wait + dispatch + sim_exec + store_write == end_to_end —
    not within tolerance: the dispatch residual makes it exact."""
    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="sleep:0.2"))
        job.result(timeout=30)
        span = svc.job_span(job)
    split = span.split()
    assert set(split) == {"queue_wait", "dispatch", "sim_exec",
                          "store_write"}
    assert abs(sum(split.values()) - span.end_to_end) < 1e-9
    # components are sane: the sleep dominates, everything measured
    assert span.end_to_end > 0
    assert split["sim_exec"] == pytest.approx(0.2, abs=0.15)
    assert split["queue_wait"] >= 0
    assert split["store_write"] >= 0
    assert span.state == "done"


def test_span_timestamps_ordered():
    with Service(workers=1) as svc:
        job = svc.submit(JobSpec(experiment="sleep:0"))
        job.result(timeout=30)
        ts = job.ts
    assert (ts["submitted"] <= ts["admitted"] <= ts["dispatched"]
            <= ts["finished"])


def test_store_hit_span_records_no_execution():
    with Service(workers=1) as svc:
        spec = JobSpec(experiment="sleep:0")
        svc.submit(spec).result(timeout=30)
        hit = svc.submit(spec)
        hit.result(timeout=5)
        span = svc.job_span(hit)
        assert hit.from_store
        assert span.from_store
        assert span.sim_exec == 0.0
        assert span.queue_wait == 0.0   # never dispatched


def test_job_span_residual_dispatch_never_hides_time():
    span = JobSpan(1, "d" * 64, "sleep:0")
    span.admitted, span.dispatched, span.finished = 0.0, 0.25, 1.0
    span.sim_exec, span.store_write = 0.5, 0.05
    split = span.split()
    assert split["queue_wait"] == pytest.approx(0.25)
    assert split["dispatch"] == pytest.approx(0.2)
    assert sum(split.values()) == pytest.approx(span.end_to_end)


# ----------------------------------------------------------------------
# metrics registry + Prometheus exposition
# ----------------------------------------------------------------------

def test_registry_counts_job_outcomes():
    with Service(workers=1) as svc:
        spec = JobSpec(experiment="sleep:0")
        svc.submit(spec).result(timeout=30)
        svc.submit(spec).result(timeout=5)          # store hit
        reg = svc.registry
        assert reg.value("jobs_submitted_total") == 2
        assert reg.value("jobs_completed_total") == 2
        assert reg.value("jobs_from_store_total") == 1
        snap = svc.telemetry_snapshot()
        # scrape-time sync pins store counters to the store's own stats
        assert _series_value(snap, "store_hits_total") == 1
        assert _series_value(snap, "store_misses_total") == 1
        assert _series_value(snap, "store_writes_total") == 1
        # the executed job fed the latency summaries; the store hit
        # did not (it ran no simulation)
        latency = _series_value(snap, "job_latency_seconds",
                                (("experiment", "sleep:0"),))
        assert latency["count"] == 1


def test_prometheus_rendering_golden():
    """The exposition format is deterministic — byte-for-byte."""
    reg = MetricsRegistry()
    reg.counter("jobs_completed_total", "Jobs finished DONE.")
    reg.gauge("queue_depth", "Jobs pending.")
    reg.summary("job_latency_seconds", "End-to-end wall latency.")
    reg.inc("jobs_completed_total", 3)
    reg.set("queue_depth", 2)
    reg.observe("job_latency_seconds", 0.5, experiment="fig04")
    reg.observe("job_latency_seconds", 1.0, experiment="fig04")
    golden = "\n".join([
        "# HELP repro_svc_job_latency_seconds End-to-end wall latency.",
        "# TYPE repro_svc_job_latency_seconds summary",
        'repro_svc_job_latency_seconds{experiment="fig04",'
        'quantile="0.5"} 0.5',
        'repro_svc_job_latency_seconds{experiment="fig04",'
        'quantile="0.95"} 1',
        'repro_svc_job_latency_seconds{experiment="fig04",'
        'quantile="0.99"} 1',
        'repro_svc_job_latency_seconds_sum{experiment="fig04"} 1.5',
        'repro_svc_job_latency_seconds_count{experiment="fig04"} 2',
        "# HELP repro_svc_jobs_completed_total Jobs finished DONE.",
        "# TYPE repro_svc_jobs_completed_total counter",
        "repro_svc_jobs_completed_total 3",
        "# HELP repro_svc_queue_depth Jobs pending.",
        "# TYPE repro_svc_queue_depth gauge",
        "repro_svc_queue_depth 2",
    ]) + "\n"
    assert reg.render() == golden
    # rendering a snapshot (the wire/merge form) gives the same bytes
    assert render_prometheus(reg.snapshot()) == golden


def test_registry_type_conflicts_rejected():
    reg = MetricsRegistry()
    reg.counter("thing_total")
    with pytest.raises(ValueError):
        reg.gauge("thing_total")


def test_summary_quantiles_survive_quantization():
    reg = MetricsRegistry()
    for ms in range(1, 101):
        reg.observe("lat", ms / 1000.0)
    snap = reg.snapshot()
    assert _series_value(snap, "lat")["count"] == 100
    # 2-significant-digit microsecond quantization keeps quantiles exact
    # for round inputs
    assert 'repro_svc_lat{quantile="0.5"} 0.05' in render_prometheus(snap)


def test_concurrent_registry_updates_are_safe():
    reg = MetricsRegistry()
    reg.counter("n_total")

    def spin():
        for _ in range(1000):
            reg.inc("n_total")
            reg.observe("lat", 0.001)

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.value("n_total") == 4000
    assert _series_value(reg.snapshot(), "lat")["count"] == 4000


#: one registry update: (method, family, label value or "", integer)
_UPDATES = st.tuples(
    st.sampled_from([("inc", "jobs_total"), ("inc", "misses_total"),
                     ("set", "depth"), ("set", "hit_rate"),
                     ("observe", "latency_seconds")]),
    st.sampled_from(["", "a", "b"]),
    st.integers(0, 3_000_000))


def _feed(reg, updates):
    for (method, family), label, n in updates:
        labels = {"shard": label} if label else {}
        if method == "inc":
            reg.inc(family, n, **labels)
        elif method == "set":
            reg.set(family, n / 1000, **labels)
        else:
            reg.observe(family, n / 1e6, **labels)
    return reg


def _declared(reg):
    reg.counter("jobs_total", "Jobs.")
    reg.gauge("depth", "Depth.")
    reg.summary("latency_seconds", "Latency.")
    return reg


# fixed, derandomized profile: the same sequences on every run
@settings(max_examples=300, derandomize=True, deadline=None)
@given(updates=st.lists(_UPDATES, max_size=40), data=st.data())
def test_merged_parts_render_like_one_registry(updates, data):
    """Split an update sequence, feed each part to its own registry and
    merge both snapshots in order: the result renders byte-for-byte
    like one registry fed the whole sequence — with or without the
    merging registry declaring families up front, as the service's
    does."""
    cut = data.draw(st.integers(0, len(updates)))
    declare = data.draw(st.booleans())
    start = _declared if declare else (lambda reg: reg)
    whole = _feed(start(MetricsRegistry()), updates)
    merged = start(MetricsRegistry())
    for part in (updates[:cut], updates[cut:]):
        merged.merge(_feed(MetricsRegistry(), part).snapshot())
    assert merged.render() == whole.render()


# ----------------------------------------------------------------------
# run ledger
# ----------------------------------------------------------------------

def test_ledger_replay_round_trip(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    with Service(workers=1, ledger=ledger) as svc:
        spec = JobSpec(experiment="sleep:0.05")
        first = svc.submit(spec)
        first.result(timeout=30)
        svc.submit(spec).result(timeout=5)           # store hit
        # flushed per entry: readable while the service still runs
        assert RunLedger.read(ledger)[-1]["from_store"] is True
    entries = RunLedger.read(ledger)
    assert [e["job"] for e in entries] == [first.id, first.id + 1]
    ran, hit = entries
    assert ran["state"] == "done" and ran["ok"] is True
    assert ran["from_store"] is False
    assert ran["digest"] == first.digest
    assert ran["result_digest"] == first.result_digest
    assert ran["worker_history"] == [1]
    timings = ran["timings"]
    assert timings["end_to_end"] == pytest.approx(
        sum(timings[k] for k in ("queue_wait", "dispatch", "sim_exec",
                                 "store_write")), abs=1e-5)
    assert hit["from_store"] is True
    assert hit["result_digest"] == ran["result_digest"]
    # the history table renders what the ledger wrote
    table = format_history(entries)
    assert "sleep:0.05" in table and "done" in table
    # a torn final line (coordinator killed mid-write) is skipped
    with open(ledger, "a") as fh:
        fh.write('{"kind": "job", "jo')
    assert len(RunLedger.read(ledger)) == 2
    assert RunLedger.find_job(ledger, first.id)["job"] == first.id
    assert RunLedger.find_job(ledger, -1) is None


def test_kill_mid_job_retry_chain_lands_in_ledger(tmp_path, monkeypatch):
    """A worker crash mid-job leaves both worker ids in the ledger's
    retry chain, and the job still completes on the replacement."""
    marker = tmp_path / "crash-once"
    monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
    ledger = tmp_path / "runs.jsonl"
    with Service(workers=1, ledger=ledger) as svc:
        job = svc.submit(JobSpec(experiment="sleep:0.1"))
        payload = job.result(timeout=60)
        assert payload["all_ok"] is True
        assert marker.exists()
        assert "repro_svc_worker_restarts_total 1" in svc.prometheus()
        assert svc.registry.value("jobs_retried_total") == 1
    entry = RunLedger.find_job(ledger, job.id)
    assert entry["state"] == "done"
    assert entry["attempts"] == 2
    assert entry["worker_history"] == [1, 2]   # crashed, then replacement
    assert entry["worker"] == 2
    (retry,) = entry["retries"]
    assert retry["worker"] == 1
    assert retry["exitcode"] == 13
    assert retry["lost_s"] >= 0


def test_ledger_env_var_arms_the_default(tmp_path, monkeypatch):
    path = tmp_path / "env-ledger.jsonl"
    monkeypatch.setenv(LEDGER_ENV, str(path))
    with Service(workers=1) as svc:
        svc.submit(JobSpec(experiment="sleep:0")).result(timeout=30)
    assert len(RunLedger.read(path)) == 1


# ----------------------------------------------------------------------
# watchdog and the metrics surfaces
# ----------------------------------------------------------------------

def test_watchdog_warnings_render_as_labeled_counters():
    reg = MetricsRegistry()
    Service._declare_metrics(reg)
    # what WorkerPool.poll merges as workers report per-job pathologies
    for kind, count in (("livelock", 2), ("mshr_saturation", 1),
                        ("livelock", 1)):
        job = MetricsRegistry()
        job.inc("watchdog_warnings_total", count, kind=kind)
        reg.merge(job.snapshot())
    assert reg.value("watchdog_warnings_total", kind="livelock") == 3
    rendered = reg.render()
    assert ('repro_svc_watchdog_warnings_total{kind="livelock"} 3'
            in rendered)
    assert ('repro_svc_watchdog_warnings_total{kind="mshr_saturation"} 1'
            in rendered)


def test_job_is_observed_only_through_its_capture(monkeypatch):
    """A job whose capture arms the watchdog counts every warning once,
    matching its rendered report; a job with no capture builds no event
    bus and reports no watchdog series."""
    from repro.obs.bus import EventBus
    from repro.obs.capture import CaptureSpec
    from repro.obs.watchdog import WatchdogProcessor

    # saturate at 2 outstanding DRAM transactions, so fig04 warns
    defaults = list(WatchdogProcessor.__init__.__defaults__)
    defaults[1] = 2
    monkeypatch.setattr(WatchdogProcessor.__init__, "__defaults__",
                        tuple(defaults))
    buses = []
    bus_init = EventBus.__init__

    def counting_init(self):
        buses.append(self)
        bus_init(self)

    monkeypatch.setattr(EventBus, "__init__", counting_init)

    def run(capture):
        payload = _execute_spec(
            JobSpec(experiment="fig04", capture=capture),
            send_progress=lambda _payload: None, jobs_before=0)
        reg = MetricsRegistry()
        reg.merge(payload["metrics"])
        return payload, reg.by_label("watchdog_warnings_total", "kind")

    payload, counts = run(CaptureSpec(watchdog=True))
    (line,) = [ln for ln in payload["rendered"].splitlines()
               if ln.startswith("warnings=")]
    reported = int(line.split("=", 1)[1])
    assert reported > 0
    assert sum(counts.values()) == reported
    assert buses

    buses.clear()
    payload, _ = run(None)
    assert buses == []
    assert "watchdog_warnings_total" not in payload["metrics"]


def test_job_records_the_capture_paths_it_writes(tmp_path):
    """A capture without job scoping is still scoped per experiment
    before the job records its paths, so the run ledger points at the
    files the run wrote."""
    from repro.obs.capture import CaptureSpec

    payload = _execute_spec(
        JobSpec(experiment="fig04",
                capture=CaptureSpec(events_path=str(tmp_path / "p.jsonl"))),
        send_progress=lambda _payload: None, jobs_before=0, job_id=5)
    written = tmp_path / "p.fig04.jsonl"
    assert payload["capture_paths"] == {"events": str(written)}
    assert written.exists()


def test_lens_armed_job_reports_cache_health():
    """execute_one folds a --misses capture's per-cache health into the
    registry it is given: what a worker returns for the pool to merge."""
    from repro.harness.parallel import execute_one
    from repro.obs.capture import CaptureSpec

    reg = MetricsRegistry()
    rendered, _ = execute_one("fig04", "ci", CaptureSpec(misses=True),
                              metrics=reg)
    (line,) = [ln for ln in rendered.splitlines()
               if ln.startswith("caches=")]
    reported = int(line.split()[1].split("=")[1])
    misses = reg.by_label("sim_cache_misses_total", "cache")
    hit_rate = reg.by_label("sim_cache_hit_rate", "cache")
    assert sum(misses.values()) == reported > 0
    assert set(hit_rate) == set(misses) == set(
        reg.by_label("sim_cache_conflict_share", "cache"))
    assert all(0.0 < rate <= 1.0 for rate in hit_rate.values())


def test_metrics_dict_carries_watchdog_and_snapshot():
    with Service(workers=1) as svc:
        svc.submit(JobSpec(experiment="sleep:0")).result(timeout=30)
        metrics = svc.metrics()
        snapshot = svc.telemetry_snapshot()
        prom = svc.prometheus()
    assert metrics["watchdog"] == {}
    assert _series_value(snapshot, "jobs_completed_total") == 1
    assert "repro_svc_jobs_submitted_total 1" in prom
    assert "repro_svc_jobs_completed_total 1" in prom
    assert "repro_svc_store_hits_total 0" in prom
    # pre-registered zero: rendered before any crash
    assert "repro_svc_worker_restarts_total 0" in prom


# ----------------------------------------------------------------------
# explain --ledger integration
# ----------------------------------------------------------------------

def test_explain_resolves_job_from_ledger(tmp_path, capsys):
    from repro.obs.capture import CaptureSpec
    from repro.obs.explain import main as explain_main

    ledger = tmp_path / "runs.jsonl"
    events = tmp_path / "t.jsonl"
    with Service(workers=1, ledger=ledger) as svc:
        job = svc.submit(JobSpec(
            experiment="fig04",
            capture=CaptureSpec(events_path=str(events), job_scoped=True)))
        assert job.result(timeout=300)["all_ok"]
    entry = RunLedger.find_job(ledger, job.id)
    scoped = entry["capture"]["events"]
    assert f"job{job.id}" in scoped and "fig04" in scoped
    rc = explain_main(["--ledger", str(ledger), "--job", str(job.id),
                       "--top", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"service job {job.id} (fig04/ci)" in out
    assert "host time: end_to_end=" in out
    assert "why-slow (repro.obs.critpath)" in out   # the in-sim report
    assert "blame:" in out


def test_explain_ledger_missing_job_exits_2(tmp_path, capsys):
    from repro.obs.explain import main as explain_main

    ledger = tmp_path / "runs.jsonl"
    ledger.write_text("")
    assert explain_main(["--ledger", str(ledger), "--job", "999999"]) == 2
    assert "not found" in capsys.readouterr().err


def test_explain_ledger_job_without_events_file_exits_2(tmp_path, capsys):
    """tab01 builds no system, so its recorded event capture is never
    written: one error line naming that path, not a traceback."""
    from repro.obs.capture import CaptureSpec
    from repro.obs.explain import main as explain_main

    ledger = tmp_path / "runs.jsonl"
    with Service(workers=1, ledger=ledger) as svc:
        job = svc.submit(JobSpec(
            experiment="tab01",
            capture=CaptureSpec(events_path=str(tmp_path / "p.jsonl"))))
        job.result(timeout=120)
    missing = tmp_path / "p.tab01.jsonl"
    assert not missing.exists()
    assert explain_main(["--ledger", str(ledger), "--job",
                         str(job.id)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err


def test_explain_missing_ledger_file_exits_2(tmp_path, capsys):
    """A ledger path that does not exist is one error line, not a
    traceback."""
    from repro.obs.explain import main as explain_main

    ledger = tmp_path / "nope.jsonl"
    assert explain_main(["--ledger", str(ledger), "--job", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(ledger) in err
