"""The ``python -m repro.svc`` CLI: ``sweep`` on its own in-process
service and ``history`` over the run ledger it writes. One module-wide
sweep of a ``sleep:`` job boots the only service these tests need."""

import contextlib
import io

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
