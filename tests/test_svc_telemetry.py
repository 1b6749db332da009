"""Service-plane telemetry: lifecycle spans, the job counts, the
durable run ledger, and its ``explain --ledger`` drilldown. Worker
pools are real spawned processes, so tests share small pools and lean
on the synthetic ``sleep:`` experiment."""

import pytest

from repro.svc.jobs import JobSpec
from repro.svc.pool import CRASH_ONCE_ENV, _execute_spec
from repro.svc.service import Service
from repro.svc.telemetry import (
    LEDGER_ENV,
    JobSpan,
    RunLedger,
    format_history,
)


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
# job counts
# ----------------------------------------------------------------------

def test_registry_counts_job_outcomes():
    with Service(workers=1) as svc:
        spec = JobSpec(experiment="sleep:0")
        svc.submit(spec).result(timeout=30)
        svc.submit(spec).result(timeout=5)          # store hit
        metrics = svc.metrics()
    assert metrics["submitted"] == 2
    assert metrics["completed"] == 2
    assert metrics["store_hits"] == 1
    store = metrics["store"]
    assert store["hits"] == 1
    assert store["misses"] == 1
    assert store["stores"] == 1


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
        metrics = svc.metrics()
    assert metrics["worker_restarts"] == 1
    assert metrics["retries"] == 1
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
# what a job reports, and the metrics dict
# ----------------------------------------------------------------------

def test_job_is_observed_only_through_its_capture(monkeypatch):
    """A job whose capture arms the watchdog reports its warnings in its
    rendered report; a job with no capture builds no event bus. Neither
    returns counts beside its report."""
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
        assert "metrics" not in payload
        return payload

    payload = run(CaptureSpec(watchdog=True))
    (line,) = [ln for ln in payload["rendered"].splitlines()
               if ln.startswith("warnings=")]
    assert int(line.split("=", 1)[1]) > 0
    assert buses

    buses.clear()
    run(None)
    assert buses == []


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


def test_metrics_dict_carries_watchdog_and_snapshot():
    """metrics() holds the eight job counts, the worker restarts and the
    store's stats, and nothing a job's capture observed."""
    with Service(workers=1) as svc:
        svc.submit(JobSpec(experiment="sleep:0")).result(timeout=30)
        metrics = svc.metrics()
    assert set(metrics) == {"submitted", "admitted", "store_hits",
                            "coalesced", "completed", "failed",
                            "cancelled", "retries", "worker_restarts",
                            "store"}
    assert metrics["submitted"] == metrics["completed"] == 1
    assert metrics["store"]["hits"] == 0
    assert metrics["worker_restarts"] == 0


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
