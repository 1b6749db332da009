"""End-to-end tests for the harness observability flags."""

import hashlib
import json

from repro.harness.__main__ import main
from repro.obs.capture import CaptureSpec, capture_scope, current_capture


# ----------------------------------------------------------------------
# CaptureSpec plumbing
# ----------------------------------------------------------------------
def test_capture_spec_activity():
    assert not CaptureSpec().active
    assert CaptureSpec(metrics=True).active
    assert CaptureSpec(events_path="x.jsonl").active
    assert CaptureSpec(perfetto_path="x.json").active
    assert CaptureSpec(prof_path="x.folded").active
    assert CaptureSpec(timeseries_path="x.csv").active


def test_capture_spec_namespaces_paths():
    spec = CaptureSpec(events_path="out/t.jsonl", perfetto_path="t.json",
                       prof_path="cycles.folded", timeseries_path="ts.csv")
    scoped = spec.for_experiment("fig07")
    assert scoped.events_path.endswith("t.fig07.jsonl")
    assert scoped.perfetto_path == "t.fig07.json"
    assert scoped.prof_path == "cycles.fig07.folded"
    assert scoped.timeseries_path == "ts.fig07.csv"


def test_capture_scope_inactive_spec_yields_none():
    with capture_scope(CaptureSpec()) as cap:
        assert cap is None
        assert current_capture() is None


def test_capture_scope_restores_previous():
    assert current_capture() is None
    with capture_scope(CaptureSpec(metrics=True)) as cap:
        assert current_capture() is cap
    assert current_capture() is None


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_metrics_summary_flag_fig07(capsys):
    code, out = _run_cli(capsys, "fig07", "--profile", "ci",
                         "--metrics-summary")
    assert code == 0
    assert "-- metrics summary (repro.obs) --" in out
    assert "hit-rate=" in out
    miss_line = next(l for l in out.splitlines()
                     if l.startswith("miss-latency"))
    assert "p50=" in miss_line and "p95=" in miss_line


def test_events_and_perfetto_flags(capsys, tmp_path):
    events = tmp_path / "t.jsonl"
    trace = tmp_path / "t.json"
    code, out = _run_cli(capsys, "fig07", "--profile", "ci",
                         "--events", str(events),
                         "--perfetto", str(trace))
    assert code == 0

    events_file = tmp_path / "t.fig07.jsonl"
    assert events_file.exists()
    lines = events_file.read_text().splitlines()
    assert lines
    kinds = set()
    for line in lines[:2000]:
        record = json.loads(line)
        assert "cycle" in record and "component" in record
        kinds.add(record["event"])
    assert {"request_arrive", "hit", "miss"} <= kinds

    payload = json.loads((tmp_path / "t.fig07.json").read_text())
    assert isinstance(payload["traceEvents"], list)
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_flags_compose_with_parallel(capsys, tmp_path):
    events = tmp_path / "p.jsonl"
    code, out = _run_cli(capsys, "fig04", "fig07", "--profile", "ci",
                         "--parallel", "2", "--metrics-summary",
                         "--events", str(events))
    assert code == 0
    assert out.count("-- metrics summary (repro.obs) --") == 2
    assert (tmp_path / "p.fig04.jsonl").exists()
    assert (tmp_path / "p.fig07.jsonl").exists()


def test_parallel_and_serial_metrics_agree(capsys):
    code, serial = _run_cli(capsys, "fig07", "--profile", "ci",
                            "--metrics-summary")
    assert code == 0
    code, parallel = _run_cli(capsys, "fig07", "tab01", "--profile", "ci",
                              "--parallel", "2", "--metrics-summary")
    assert code == 0

    def fig07_summary(text):
        lines = text.splitlines()
        start = lines.index("-- metrics summary (repro.obs) --")
        return lines[start:start + 5]

    assert fig07_summary(serial) == fig07_summary(parallel)


def test_prof_flag_writes_folded_and_table(capsys, tmp_path):
    folded = tmp_path / "cycles.folded"
    code, out = _run_cli(capsys, "fig07", "--profile", "ci",
                         "--prof", str(folded))
    assert code == 0
    assert "-- cycle attribution (repro.obs.prof) --" in out
    assert "conservation=conserved" in out
    assert "dram_wait" in out
    lines = (tmp_path / "cycles.fig07.folded").read_text().splitlines()
    assert lines
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        assert len(stack.split(";")) == 3 and int(count) > 0


def test_timeseries_flag_writes_csv(capsys, tmp_path):
    csv = tmp_path / "ts.csv"
    code, out = _run_cli(capsys, "fig07", "--profile", "ci",
                         "--timeseries", str(csv))
    assert code == 0
    lines = (tmp_path / "ts.fig07.csv").read_text().splitlines()
    assert lines[0].startswith("run,window_start,window_end,")
    assert len(lines) > 1
    # the capture samples 1000-cycle windows
    first = lines[1].split(",")
    header = lines[0].split(",")
    start = int(first[header.index("window_start")])
    end = int(first[header.index("window_end")])
    assert end - start == 1000


def test_prof_and_timeseries_compose_with_parallel(capsys, tmp_path):
    folded = tmp_path / "c.folded"
    csv = tmp_path / "ts.csv"
    code, out = _run_cli(capsys, "fig04", "fig07", "--profile", "ci",
                         "--parallel", "2",
                         "--prof", str(folded),
                         "--timeseries", str(csv))
    assert code == 0
    assert out.count("-- cycle attribution (repro.obs.prof) --") == 2
    for exp in ("fig04", "fig07"):
        assert (tmp_path / f"c.{exp}.folded").exists()
        assert (tmp_path / f"ts.{exp}.csv").exists()


def test_parallel_metric_digest_independent_of_worker_count(capsys):
    """Cross-system metric merging is deterministic: the rendered
    reports (metrics summaries included) hash identically no matter
    how many workers ran them."""
    targets = ["fig04", "fig07", "tab01"]
    digests = set()
    for jobs in (1, 2, 3):
        argv = targets + ["--profile", "ci", "--metrics-summary"]
        if jobs > 1:
            argv += ["--parallel", str(jobs)]
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        digests.add(hashlib.sha256(out.encode()).hexdigest())
    assert len(digests) == 1


def test_no_flags_means_no_capture(capsys, monkeypatch):
    # the default path must not arm any bus
    import repro.obs.capture as capture_mod

    def boom(*a, **k):  # pragma: no cover - should never fire
        raise AssertionError("capture created without flags")

    monkeypatch.setattr(capture_mod.Capture, "attach", boom)
    code, out = _run_cli(capsys, "tab01", "--profile", "ci")
    assert code == 0


# ----------------------------------------------------------------------
# span / watchdog capture
# ----------------------------------------------------------------------
def test_capture_spec_span_watchdog_activity():
    assert CaptureSpec(spans=True).active
    assert CaptureSpec(spans_path="s.json").wants_spans
    assert CaptureSpec(explain_top=3).wants_spans
    assert CaptureSpec(watchdog=True).active
    assert not CaptureSpec().wants_spans


def test_for_experiment_is_idempotent():
    """Regression: scoping twice must not double-suffix output paths."""
    spec = CaptureSpec(events_path="t.jsonl", spans_path="s.json")
    once = spec.for_experiment("fig04")
    assert once.events_path == "t.fig04.jsonl"
    assert once.spans_path == "s.fig04.json"
    assert once.for_experiment("fig04") is once
    assert once.for_experiment("fig07") is once    # already scoped


def test_spans_flag_writes_summary_and_why_slow_table(capsys, tmp_path):
    spans = tmp_path / "s.json"
    code, out = _run_cli(capsys, "fig04", "--profile", "ci",
                         "--spans", str(spans), "--explain-top", "2")
    assert code == 0
    assert "-- why-slow (repro.obs.critpath) --" in out
    assert "conservation=ok" in out
    assert "slowest 2 request(s):" in out
    assert "blame:" in out

    payload = json.loads((tmp_path / "s.fig04.json").read_text())
    assert payload["suite"] == "fig04"
    stats = next(iter(payload["components"].values()))
    assert stats["requests"] > 0
    assert stats["latency_p99"] >= stats["latency_p50"]
    assert sum(stats["blame"].values()) > 0


def test_explain_top_alone_implies_spans(capsys):
    code, out = _run_cli(capsys, "fig04", "--profile", "ci",
                         "--explain-top", "1")
    assert code == 0
    assert "-- why-slow (repro.obs.critpath) --" in out
    assert "slowest 1 request(s):" in out


def test_watchdog_flag_appends_section(capsys):
    code, out = _run_cli(capsys, "fig07", "--profile", "ci", "--watchdog")
    assert code == 0
    assert "-- watchdog (repro.obs.watchdog) --" in out
    assert "warnings=" in out


def test_spans_compose_with_parallel(capsys, tmp_path):
    spans = tmp_path / "s.json"
    code, out = _run_cli(capsys, "fig04", "fig07", "--profile", "ci",
                         "--parallel", "2", "--spans", str(spans))
    assert code == 0
    assert out.count("-- why-slow (repro.obs.critpath) --") == 2
    assert out.count("conservation=ok") == 2
    for exp in ("fig04", "fig07"):
        assert (tmp_path / f"s.{exp}.json").exists()


def test_why_slow_table_renders_blame_percentages():
    from repro.harness.report import why_slow_table

    table = why_slow_table({
        "dsa-a": {"requests": 10, "latency_p50": 3, "latency_p99": 80,
                  "blame": {"hit_path": 30, "sched_wait": 0, "exec": 20,
                            "dram": 50, "queue_stall": 0},
                  "outcomes": {"hit": 9, "walk": 1}},
    })
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "dsa"
    assert "hit_path" in lines[0] and "queue_stall" in lines[0]
    row = lines[2]
    assert "dsa-a" in row and "50.0%" in row and "30.0%" in row
    assert why_slow_table({}) == ""


def test_run_experiment_restarts_request_numbering():
    # Serial multi-experiment runs and --parallel workers must print
    # byte-identical reports, and --explain-top drilldowns surface raw
    # request ids — so uid numbering must depend only on the experiment
    # itself, not on what ran earlier in the process.
    from repro.core.messages import Message
    from repro.harness import run_experiment

    run_experiment("tab01", "ci")
    first = Message("probe").uid
    run_experiment("tab01", "ci")
    second = Message("probe").uid
    assert first == second
