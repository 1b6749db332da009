"""The ``python -m repro.svc`` CLI: ``sweep`` on its own in-process
service and ``history`` over the run ledger it writes. One module-wide
sweep of a ``sleep:`` job boots the only service these tests need."""

import contextlib
import io
import re

import pytest

from repro.svc.__main__ import main
from repro.svc.telemetry import LEDGER_ENV, RunLedger


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """(exit code, stdout, ledger path) of one tagged, repeated sweep
    with the run ledger armed through the environment."""
    ledger = tmp_path_factory.mktemp("svc-cli") / "runs.jsonl"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setenv(LEDGER_ENV, str(ledger))
        rc = main(["sweep", "sleep:0.01", "--workers", "1",
                   "--repeat", "2", "--tag", "nightly"])
    return rc, out.getvalue(), ledger


def test_sweep_repeat_runs_one_simulation(swept):
    rc, out, _ledger = swept
    assert rc == 0
    assert "sweep: 2 submissions (1 distinct points)" in out
    assert "submitted=2" in out
    assert "simulations=1" in out
    assert "worker_restarts=0" in out


def test_sweep_prints_one_line_per_job(capsys):
    """A coalesced repeat shares its leader's job, so it adds no result
    line of its own; the summary line still counts every submission."""
    assert main(["sweep", "sleep:0", "--workers", "1",
                 "--grid", "seed=1,2", "--repeat", "2"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if "all_ok=" in line]
    assert [line.split()[1:] for line in lines] == [
        ["==", "sleep:", "0s", "==", f"seed={seed}", "all_ok=True",
         "(ran,", "+1", "coalesced)"] for seed in (1, 2)]
    assert ("submitted=4 completed=2 coalesced=2 store_hits=0 "
            "simulations=2 worker_restarts=0") in out


def test_sweep_tag_reaches_the_ledger(swept):
    _rc, _out, ledger = swept
    entries = RunLedger.read(ledger)
    assert entries
    assert [e["tag"] for e in entries] == ["nightly"] * len(entries)


def test_history_renders_the_sweep(swept, capsys):
    _rc, _out, ledger = swept
    assert main(["history", "--ledger", str(ledger)]) == 0
    table = capsys.readouterr().out
    for entry in RunLedger.read(ledger):
        row = [line for line in table.splitlines()
               if line.endswith(entry["digest"][:12])]
        assert len(row) == 1
        assert row[0].split()[:3] == [str(entry["job"]), "done",
                                      "sleep:0.01"]


def test_history_missing_ledger_file_exits_2(tmp_path, capsys):
    ledger = tmp_path / "nope.jsonl"
    assert main(["history", "--ledger", str(ledger)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(ledger) in captured.err


def test_history_without_a_ledger_exits_2(monkeypatch, capsys):
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    assert main(["history"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and LEDGER_ENV in captured.err


def _no_service(*_args, **_kwargs):
    raise AssertionError("a Service was built for a bad command line")


def _no_warmup(*_args, **_kwargs):
    raise AssertionError("a warmup snapshot was written for a bad "
                         "command line")


def _usage_error_line(argv, capsys) -> str:
    """Run ``argv``: it must exit 2 with the usage and one error line,
    which is returned."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: repro.svc {argv[0]} ")
    errors = [line for line in captured.err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    return errors[0]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sweep", "sleep:0", "--workers", "0"],
                 "--workers must be >= 1", id="workers-0"),
    pytest.param(["sweep", "sleep:0", "--repeat", "0"],
                 "--repeat must be >= 1", id="repeat-0"),
    pytest.param(["sweep", "sleep:0", "--repeat", "-2"],
                 "--repeat must be >= 1", id="repeat-negative"),
    pytest.param(["sweep", "ckpt:widx", "--checkpoint-every", "-5",
                  "--checkpoint-dir", "ck", "--warmup-snapshot",
                  "warm.ckpt"],
                 "--checkpoint-every must be >= 0",
                 id="checkpoint-every-negative"),
    pytest.param(["sweep", "ckpt:widx", "--warm-cycles", "-5",
                  "--workers", "1", "--warmup-snapshot", "warm.ckpt"],
                 "--warm-cycles must be >= 1", id="warm-cycles-negative"),
    pytest.param(["sweep", "ckpt:widx", "--warm-cycles", "0",
                  "--warmup-snapshot", "warm.ckpt"],
                 "--warm-cycles must be >= 1", id="warm-cycles-0"),
    pytest.param(["history", "--ledger", "runs.jsonl", "--limit", "-1"],
                 "--limit must be >= 0", id="limit-negative"),
])
def test_bad_integer_is_a_usage_error(argv, message, tmp_path, monkeypatch,
                                      capsys):
    """Each bad count exits 2 with the usage and one error line, before
    a service or a warmup snapshot is built."""
    import repro.svc.__main__ as cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "Service", _no_service)
    # a real two-entry ledger, so a negative --limit would otherwise run
    ledger = RunLedger(tmp_path / "runs.jsonl")
    for job in (1, 2):
        ledger.record({"kind": "job", "job": job, "state": "done"})
    ledger.close()
    assert (_usage_error_line(argv, capsys)
            == f"repro.svc {argv[0]}: error: {message}")
    assert not (tmp_path / "warm.ckpt").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sweep", "nosuch"], "unknown experiment 'nosuch'",
                 id="unknown-experiment"),
    pytest.param(["sweep", "sleep:abc"], "bad sleep spec 'sleep:abc'",
                 id="bad-sleep-seconds"),
    pytest.param(["sweep", "sleep:-1"], "bad sleep spec 'sleep:-1'",
                 id="negative-sleep"),
    pytest.param(["sweep", "sleep:nan"], "bad sleep spec 'sleep:nan'",
                 id="nan-sleep"),
    pytest.param(["sweep", "sleep:inf"], "bad sleep spec 'sleep:inf'",
                 id="infinite-sleep"),
    pytest.param(["sweep", "fig04", "--grid", "nosuch=1"],
                 "unknown profile field(s) ['nosuch']",
                 id="unknown-grid-field"),
    pytest.param(["sweep", "fig04", "--grid", "seed="],
                 "bad grid entry 'seed='", id="grid-without-values"),
    pytest.param(["sweep", "ckpt:nosuch"], "unknown ckpt dsa 'nosuch'",
                 id="unknown-ckpt-dsa"),
    pytest.param(["sweep", "ckpt:widx", "--grid", "ways=4"],
                 "'ways' is not fork-safe", id="geometry-fork-override"),
    pytest.param(["sweep", "ckpt:widx", "--warmup-snapshot", "w.ckpt",
                  "--checkpoint-every", "300"],
                 "checkpoint_every > 0 needs a checkpoint_dir",
                 id="checkpoint-every-without-dir"),
])
def test_bad_sweep_input_is_a_usage_error(argv, message, tmp_path,
                                          monkeypatch, capsys):
    """Each spec the service would refuse exits 2 with the usage and one
    error line, before a service or a warmup snapshot is built."""
    import repro.harness.sweep as harness_sweep
    import repro.svc.__main__ as cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "Service", _no_service)
    monkeypatch.setattr(harness_sweep, "write_warm_snapshot", _no_warmup)
    line = _usage_error_line(argv, capsys)
    assert line.startswith("repro.svc sweep: error: ")
    assert message in line
    assert not (tmp_path / "w.ckpt").exists()


def test_failed_point_is_reported_and_the_sweep_finishes(tmp_path,
                                                        monkeypatch, capsys):
    """A point whose every attempt dies is one FAILED line: the sweep
    still prints its summary line and exits 1, with no traceback."""
    from repro.svc.pool import CRASH_ONCE_ENV

    # the marker's directory is missing, so every worker that picks the
    # job up dies before it can record having crashed once
    monkeypatch.setenv(CRASH_ONCE_ENV, str(tmp_path / "missing" / "marker"))
    assert main(["sweep", "sleep:0", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    failed = [line for line in captured.out.splitlines()
              if "FAILED" in line]
    assert len(failed) == 1 and "worker died" in failed[0]
    assert "submitted=1 completed=0" in captured.out
    # the point never finished, so no simulation result was written
    assert "simulations=0" in captured.out


def test_warmup_snapshot_of_another_dsa_is_a_usage_error(tmp_path,
                                                        monkeypatch,
                                                        capsys):
    """A ``ckpt:widx`` sweep handed a DASX snapshot exits 2 with one
    error line before any worker starts, instead of forking the DASX
    model under the widx label."""
    import repro.svc.__main__ as cli
    from repro.harness.sweep import write_warm_snapshot

    snapshot = str(tmp_path / "dasx.ckpt")
    write_warm_snapshot(snapshot, "dasx", "ci", warm_cycles=2000)
    monkeypatch.setattr(cli, "Service", _no_service)
    line = _usage_error_line(["sweep", "ckpt:widx", "--workers", "1",
                              "--warmup-snapshot", snapshot], capsys)
    assert line.startswith("repro.svc sweep: error: ")
    assert "holds a DasxXCacheModel, not the WidxXCacheModel" in line


def test_sweep_result_lines_name_their_grid_point(tmp_path, capsys):
    """Each forked point's line names the snapshot it forked, its fork
    overrides and its simulated numbers, so the points of a grid differ
    by more than their digests."""
    from repro.sim.checkpoint import read_header

    snapshot = tmp_path / "w.ckpt"
    argv = ["sweep", "ckpt:widx", "--workers", "1",
            "--warmup-snapshot", str(snapshot),
            "--warm-cycles", "2000",
            "--grid", "num_exe=2,4", "--grid", "dram.t_cl=8,11"]
    assert main(argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "all_ok=" in line]
    assert len(lines) == 4
    title = re.escape(
        f"== ckpt:widx WidxXCacheModel @cycle 2000 (snapshot "
        f"{read_header(str(snapshot))['payload_sha256'][:12]}) ==")
    for t_cl in (8, 11):
        for num_exe in (2, 4):
            line = re.compile(
                rf"\[[0-9a-f]{{12}}\] {title} "
                rf"dram\.t_cl={t_cl},num_exe={num_exe}: cycles=\d+ "
                rf"hits=\d+ misses=\d+ dram=\d+ checks=ok "
                rf"all_ok=True \(ran\)")
            assert sum(bool(line.fullmatch(ln)) for ln in lines) == 1


def test_sweep_result_lines_name_profile_overrides(capsys):
    assert main(["sweep", "sleep:0", "--workers", "1",
                 "--grid", "seed=1,2"]) == 0
    out = capsys.readouterr().out
    for seed in (1, 2):
        assert f"== sleep: 0s == seed={seed} all_ok=True (ran)" in out
