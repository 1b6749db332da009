"""Tests for the experiment harness (reports, registry, static drivers)."""

import pytest

from repro.harness import (
    EXPERIMENTS,
    ExperimentReport,
    PROFILES,
    format_table,
    get_profile,
    run_experiment,
)
from repro.harness.report import Expectation


def test_registry_covers_every_paper_experiment():
    assert set(EXPERIMENTS) == {
        "fig04", "fig07", "fig14", "fig15", "fig16", "fig17", "fig18",
        "fig19", "fig20", "tab01", "tab02", "tab03", "tab04",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_profiles_available():
    assert set(PROFILES) == {"ci", "quick", "full"}
    with pytest.raises(KeyError):
        get_profile("huge")


def test_derive_profile_rejects_removed_fields():
    """A sweep grid over a field the Profile no longer has (here the
    removed routine-compilation knob) fails up front with KeyError."""
    from repro.harness.profiles import derive_profile

    with pytest.raises(KeyError, match="compile_mode"):
        derive_profile("ci", {"compile_mode": "off"})


def test_profile_configs_resolve():
    prof = get_profile("quick")
    for dsa in ("widx", "dasx", "sparch", "gamma"):
        cfg = prof.xcache_config(dsa)
        assert cfg.entries > 0
    wl = prof.widx_workload("TPC-H-22")
    assert len(wl.probes) == prof.widx_probes


def test_format_table_alignment():
    text = format_table(["a", "long-header"], [[1, 2.5], ["xx", "y"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(len(l) for l in lines)) == 1  # uniform width


def test_report_render_contains_rows_and_checks():
    report = ExperimentReport("figXX", "demo", ["col"], rows=[["val"]])
    report.expect("claim", "1x", 1.0, True)
    text = report.render()
    assert "figXX" in text and "val" in text and "[PASS]" in text


def test_report_expect_range():
    report = ExperimentReport("x", "t", ["c"])
    report.expect_range("in", "", 5.0, 1.0, 10.0)
    report.expect_range("out", "", 50.0, 1.0, 10.0)
    assert report.expectations[0].ok
    assert not report.expectations[1].ok
    assert not report.all_ok


def test_expectation_render_marks():
    good = Expectation("c", "p", 1.0, True).render()
    bad = Expectation("c", "p", 1.0, False, detail="why").render()
    assert "[PASS]" in good
    assert "[MISS]" in bad and "why" in bad


# -- static drivers run fast enough for unit tests ---------------------

@pytest.mark.parametrize("exp_id", ["tab01", "tab02", "tab03", "tab04",
                                    "fig19", "fig20"])
def test_static_experiments_pass(exp_id):
    report = run_experiment(exp_id, "quick")
    assert report.all_ok, report.render()
    assert report.rows


def test_tab03_matches_paper_values():
    report = run_experiment("tab03", "quick")
    widx_row = next(r for r in report.rows if r[0] == "Widx")
    assert widx_row[1:6] == [16, 2, 8, 1024, 4]


def test_tab01_xcache_column_unshaded():
    report = run_experiment("tab01", "quick")
    for row in report.rows:
        assert not str(row[-1]).endswith("*")


def test_cli_main_runs_static(capsys):
    from repro.harness.__main__ import main
    code = main(["tab04", "--profile", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tab04" in out
