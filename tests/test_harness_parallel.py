"""Parallel harness: byte-identical output, fig-14 suite included."""

import pytest

from repro.harness.parallel import run_parallel, run_serial
from repro.harness.suite import clear_cache
from repro.obs.capture import CaptureSpec


# tab01/tab02 are metadata tables — cheap enough to run twice in a test
CHEAP = ["tab01", "tab02"]


def test_parallel_matches_serial_byte_for_byte():
    serial = run_serial(CHEAP, "ci")
    parallel = run_parallel(CHEAP, "ci", jobs=2)
    assert parallel == serial
    assert all(ok for _rendered, ok in serial)


def test_parallel_falls_back_to_serial_for_one_job():
    assert run_parallel(CHEAP, "ci", jobs=1) == run_serial(CHEAP, "ci")


def test_cli_parallel_flag(capsys):
    from repro.harness.__main__ import main

    rc_serial = main(CHEAP + ["--profile", "ci"])
    out_serial = capsys.readouterr().out
    rc_parallel = main(CHEAP + ["--profile", "ci", "--parallel", "2"])
    out_parallel = capsys.readouterr().out
    assert rc_parallel == rc_serial
    assert out_parallel == out_serial


def test_cli_rejects_unknown_experiment():
    from repro.harness.__main__ import main

    with pytest.raises(SystemExit):
        main(["no-such-figure"])


def test_parallel_capture_observes_the_shared_suite():
    """fig14 runs in the calling process under --parallel, so its
    capture sees the suite it simulates, as a serial run's does."""
    clear_cache()
    try:
        results = run_parallel(["fig14", "tab01"], "ci", jobs=2,
                               capture=CaptureSpec(metrics=True))
    finally:
        clear_cache()  # don't leak captured results into other tests
    fig14, _ok = results[0]
    assert "requests=" in fig14
    assert "requests=0 " not in fig14
