"""Checkpoint/restore determinism, adversarial restores, fork sweeps.

The tentpole guarantee under test: ``run-to-cycle-C → snapshot →
restore → run-to-end`` equals a straight run *byte-identically* — every
``RunResult`` field (cycles, traffic, energy, extras, check verdicts) —
for all five DSAs, at hypothesis-chosen snapshot cycles, whether the
snapshot is loaded plainly, through the fork path or geometry-verified.
A snapshot that cannot honor that must fail loudly with a typed error,
never restore into a silently wrong simulation.
"""

import dataclasses
import json
import os
import pathlib
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.sweep import (
    SWEEP_DSAS,
    build_model,
    parse_grid_entries,
    straight_run,
    sweep_points,
    write_warm_snapshot,
)
from repro.sim import checkpoint as ck
from repro.sim.checkpoint import (
    ForkOverrideError,
    GeometryMismatchError,
    SnapshotError,
    SnapshotVersionError,
    TornSnapshotError,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# a fixed, derandomized profile: the same warm cycles on every run
RESTORE_PROFILE = settings(max_examples=2, derandomize=True,
                           database=None, deadline=None)

# How the snapshot is loaded back:
#   off    — a plain load, no guards and no overrides
#   on     — the fork path on, every fork-safe field overridden with
#            the value it already has (must change nothing)
#   verify — a geometry-verified load (expect_geometry)
RESTORES = ("off", "on", "verify")


@pytest.fixture(scope="module")
def snap_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("restore")


@pytest.fixture(scope="module")
def straight_runs():
    """dsa -> straight-run comparator, computed once per DSA."""
    return {}


def _identity_overrides(model):
    """Every fork-safe field, set to the value ``model`` already has."""
    system = model.system
    return {
        **{name: getattr(system.controller.config, name)
           for name in ck.FORK_SAFE_FIELDS},
        **{f"dram.{name}": getattr(system.dram.config, name)
           for name in ck.FORK_SAFE_DRAM_FIELDS},
    }


@pytest.mark.parametrize("restore", RESTORES)
@pytest.mark.parametrize("dsa", SWEEP_DSAS)
@RESTORE_PROFILE
@given(data=st.data())
def test_snapshot_restore_byte_identity(dsa, restore, data, snap_dir,
                                        straight_runs):
    """warm to a chosen cycle → save → load (fresh object graph) →
    run-to-end equals the straight run."""
    if dsa not in straight_runs:
        straight_runs[dsa] = straight_run(dsa, "ci")
    straight = straight_runs[dsa]
    cycle = data.draw(st.integers(1, straight.cycles - 1), label="cycle")
    model = build_model(dsa, "ci")
    ck.warm_model(model, cycle)
    overrides = _identity_overrides(model) if restore == "on" else None
    path = str(snap_dir / f"{dsa}-{restore}.ckpt")
    header = ck.save_model(path, model)
    del model
    expect = header["geometry"] if restore == "verify" else None
    restored, loaded = ck.load_model(path, overrides=overrides,
                                     expect_geometry=expect)
    assert loaded == header
    assert ck.geometry_digest(restored) == header["geometry"]
    assert ck.finish_model(restored) == straight   # every RunResult field
    assert header["format"] == ck.SNAPSHOT_FORMAT
    assert header["cycle"] < straight.cycles
    assert header["model_class"].lower().startswith(
        {"sparch": "sparch", "gamma": "gamma"}.get(dsa, dsa)[:5])


def test_snapshot_roundtrip_is_repeatable(tmp_path):
    """Restoring the same file twice gives the same answer twice."""
    path = tmp_path / "twice.ckpt"
    write_warm_snapshot(str(path), "widx", "ci", warm_frac=0.5)
    first = ck.finish_model(ck.load_model(str(path))[0])
    second = ck.finish_model(ck.load_model(str(path))[0])
    assert first == second


def test_same_warmup_in_fresh_processes_digests_equally(tmp_path):
    """A snapshot's identity depends on the simulation only: the same
    warmup written by two fresh interpreters has one payload digest, so
    a rewritten warmup still hits results stored under the old one."""
    code = ("import sys\n"
            "from repro.harness.sweep import write_warm_snapshot\n"
            "header = write_warm_snapshot(sys.argv[1], 'widx', 'ci')\n"
            "print(header['payload_sha256'])\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    digests = []
    for name in ("a.ckpt", "b.ckpt"):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / name)], env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# adversarial restores: every bad input dies with a typed error
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def widx_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "widx.ckpt"
    header = write_warm_snapshot(str(path), "widx", "ci", warm_frac=0.5)
    return path, header


def test_truncated_snapshot_fails_loudly(widx_snapshot, tmp_path):
    path, _ = widx_snapshot
    blob = path.read_bytes()
    for cut in (3, len(ck._MAGIC) + 2, len(blob) // 2, len(blob) - 1):
        torn = tmp_path / f"torn_{cut}.ckpt"
        torn.write_bytes(blob[:cut])
        with pytest.raises(TornSnapshotError):
            ck.load_model(str(torn))


def test_corrupt_payload_fails_digest_check(widx_snapshot, tmp_path):
    path, _ = widx_snapshot
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF
    bad = tmp_path / "flipped.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(TornSnapshotError, match="digest mismatch"):
        ck.read_header(str(bad))


def test_not_a_snapshot_rejected(tmp_path):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"definitely not a snapshot file")
    with pytest.raises(TornSnapshotError, match="not an X-Cache"):
        ck.load_model(str(junk))
    with pytest.raises(TornSnapshotError, match="cannot read"):
        ck.load_model(str(tmp_path / "absent.ckpt"))


def test_version_mismatch_rejected(widx_snapshot, tmp_path):
    path, _ = widx_snapshot
    blob = path.read_bytes()
    # same magic family, different version byte: the compile-era
    # format 1, format 2 (whose MessageQueue pickles no longer load),
    # format 3 (whose Widx/DASX models lack their reference maps),
    # format 4 (whose components lack their bound counters), format 5
    # (whose action executors lack their bound hash counters) and an
    # unknown future one
    for old in (b"XCKPT1\n", b"XCKPT2\n", b"XCKPT3\n", b"XCKPT4\n",
                b"XCKPT5\n", b"XCKPT9\n"):
        stale = tmp_path / "stale.ckpt"
        stale.write_bytes(old + blob[len(ck._MAGIC):])
        with pytest.raises(SnapshotVersionError):
            ck.load_model(str(stale))
    # right magic, header claims an unsupported format number
    off = len(ck._MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    header = json.loads(blob[off + 4:off + 4 + hlen])
    header["format"] = 99
    hblob = json.dumps(header, sort_keys=True).encode()
    rewritten = tmp_path / "fmt99.ckpt"
    rewritten.write_bytes(ck._MAGIC + struct.pack("<I", len(hblob))
                          + hblob + blob[off + 4 + hlen:])
    with pytest.raises(SnapshotVersionError, match="format 99"):
        ck.load_model(str(rewritten))


def test_geometry_mismatch_rejected(widx_snapshot):
    path, header = widx_snapshot
    other = build_model("dasx", "ci")
    with pytest.raises(GeometryMismatchError):
        ck.load_model(str(path),
                      expect_geometry=ck.geometry_digest(other))
    # the recorded geometry digest itself passes the guard
    model, _ = ck.load_model(str(path),
                             expect_geometry=header["geometry"])
    assert ck.geometry_digest(model) == header["geometry"]


def test_geometry_digest_ignores_fork_safe_fields(widx_snapshot):
    """Forked configs still match their parent snapshot's geometry —
    the property that lets a resumed fork pass the restore guard."""
    path, header = widx_snapshot
    model, _ = ck.load_model(str(path),
                             overrides={"num_exe": 2, "dram.t_cl": 8})
    assert ck.geometry_digest(model) == header["geometry"]


def test_fork_override_whitelist_enforced(widx_snapshot):
    path, _ = widx_snapshot
    for bad in ({"ways": 8}, {"num_active": 4},
                {"data_sectors": 2048}, {"wlen": 2},
                {"dram.num_banks": 4}, {"sets": 128}):
        with pytest.raises(ForkOverrideError):
            ck.load_model(str(path), overrides=bad)
    with pytest.raises(ForkOverrideError):
        sweep_points({"ways": [4, 8]})
    with pytest.raises(ForkOverrideError):
        sweep_points({"dram.num_banks": [2]})


@pytest.mark.parametrize("warm_cycles", [-5, 0])
def test_warm_cycles_below_one_write_no_snapshot(warm_cycles, tmp_path):
    path = tmp_path / "warm.ckpt"
    with pytest.raises(ValueError, match="warm_cycles must be >= 1"):
        write_warm_snapshot(str(path), "widx", "ci",
                            warm_cycles=warm_cycles)
    assert not path.exists()


def test_save_refuses_mid_run(widx_snapshot, tmp_path):
    path, _ = widx_snapshot
    model, _ = ck.load_model(str(path))
    model.system.sim._running = True
    with pytest.raises(SnapshotError, match="sim.run"):
        ck.save_model(str(tmp_path / "live.ckpt"), model)


# ----------------------------------------------------------------------
# fork semantics
# ----------------------------------------------------------------------

def test_fork_overrides_take_effect(widx_snapshot):
    """A forked knob must actually change post-warmup behavior, and
    match a straight run that was built with the same knob."""
    path, _ = widx_snapshot
    base = ck.finish_model(ck.load_model(str(path))[0])
    slow_dram = ck.finish_model(
        ck.load_model(str(path), overrides={"dram.t_cl": 25})[0])
    assert slow_dram.cycles > base.cycles
    assert slow_dram.hits == base.hits          # same work, new timing
    assert slow_dram.misses == base.misses


def test_sweep_points_deterministic_product():
    points = sweep_points({"num_exe": [4, 2], "dram.t_cl": [8, 11]})
    # fields iterate sorted; value order within a field is preserved
    assert points == [
        {"dram.t_cl": 8, "num_exe": 4}, {"dram.t_cl": 8, "num_exe": 2},
        {"dram.t_cl": 11, "num_exe": 4}, {"dram.t_cl": 11, "num_exe": 2},
    ]
    again = sweep_points({"num_exe": [4, 2], "dram.t_cl": [8, 11]})
    assert points == again
    with pytest.raises(ValueError):
        sweep_points({"num_exe": []})


def test_parse_grid_entries_types_values():
    grid = parse_grid_entries(["num_exe=2,4", "dram.t_cl=8"])
    assert grid == {"num_exe": [2, 4], "dram.t_cl": [8]}
    with pytest.raises(ValueError):
        parse_grid_entries(["num_exe"])


def test_ckpt_job_fork_reports_straight_run_numbers(widx_snapshot):
    """A ``ckpt:`` job run in-process: its no-override fork reports the
    straight run's numbers (an overridden point is not a straight run:
    it changes the knob at the snapshot cycle, a straight run changes
    it at cycle zero — by design), and its header names the snapshot."""
    from repro.svc.jobs import JobSpec
    from repro.svc.pool import _execute_spec

    path, header = widx_snapshot

    def report(*overrides):
        spec = JobSpec(experiment="ckpt:widx", profile="ci",
                       snapshot=str(path),
                       snapshot_digest=header["payload_sha256"],
                       fork_overrides=overrides)
        payload = _execute_spec(spec, send_progress=lambda _p: None,
                                jobs_before=0)
        assert payload["all_ok"]
        title, line = payload["rendered"].splitlines()
        assert title == (f"== ckpt:widx WidxXCacheModel "
                         f"@cycle {header['cycle']} "
                         f"(snapshot {header['payload_sha256'][:12]}) ==")
        label, _, numbers = line.strip().partition(": ")
        return label, dict(kv.split("=") for kv in numbers.split())

    straight = straight_run("widx", "ci")
    assert report() == ("(base)", {
        "cycles": str(straight.cycles), "hits": str(straight.hits),
        "misses": str(straight.misses),
        "dram": str(straight.dram_accesses), "checks": "ok"})
    # the overridden point still completes the same requests
    label, forked = report(("num_exe", 2))
    assert label == "num_exe=2"
    assert (forked["hits"], forked["misses"], forked["checks"]) == (
        str(straight.hits), str(straight.misses), "ok")


# ----------------------------------------------------------------------
# provenance: forked results never alias straight ones
# ----------------------------------------------------------------------

def test_jobspec_digest_folds_snapshot_provenance():
    from repro.svc.jobs import JobSpec

    straight = JobSpec(experiment="ckpt:widx", profile="ci")
    forked = JobSpec(experiment="ckpt:widx", profile="ci",
                     snapshot="/tmp/warm.ckpt", snapshot_digest="ab" * 32)
    other_fork = JobSpec(experiment="ckpt:widx", profile="ci",
                         snapshot="/tmp/warm.ckpt",
                         snapshot_digest="ab" * 32,
                         fork_overrides=(("num_exe", 2),))
    digests = {straight.digest(), forked.digest(), other_fork.digest()}
    assert len(digests) == 3
    # the path is a hint; only the content digest is identity
    moved = dataclasses.replace(forked, snapshot="/elsewhere/warm.ckpt")
    assert moved.digest() == forked.digest()
    # scheduling hints never change identity
    hinted = dataclasses.replace(forked, checkpoint_every=500,
                                 checkpoint_dir="/tmp/ck")
    assert hinted.digest() == forked.digest()


# ----------------------------------------------------------------------
# service preemption: checkpoint → crash → resume, byte-identically
# ----------------------------------------------------------------------

def test_svc_preemption_resumes_from_checkpoint(tmp_path, monkeypatch):
    """A ckpt: job whose worker dies right after persisting its first
    checkpoint is retried on a fresh worker, resumes from that
    checkpoint (not cycle zero), and produces the identical result an
    undisturbed execution produces."""
    from repro.svc.jobs import JobSpec
    from repro.svc.pool import CRASH_AFTER_CKPT_ENV
    from repro.svc.service import Service

    snap = tmp_path / "warm.ckpt"
    write_warm_snapshot(str(snap), "widx", "ci", warm_frac=0.6)
    ckdir = tmp_path / "resume"
    ckdir.mkdir()
    spec = JobSpec(experiment="ckpt:widx", profile="ci",
                   fork_overrides=(("num_exe", 2),),
                   snapshot=str(snap),
                   snapshot_digest=ck.snapshot_digest(str(snap)),
                   checkpoint_every=400, checkpoint_dir=str(ckdir))
    marker = tmp_path / "crash.marker"
    monkeypatch.setenv(CRASH_AFTER_CKPT_ENV, str(marker))
    monkeypatch.delenv("REPRO_SVC_CRASH_ONCE", raising=False)
    with Service(workers=1, store=None) as svc:
        job = svc.submit(spec)
        crashed = job.result(timeout=300)
        span = svc.job_span(job)
        # marker exists now, so the rerun executes undisturbed
        clean = svc.submit(spec).result(timeout=300)
    assert marker.exists()
    assert job.attempts == 2
    assert crashed["metadata"]["resumed_from"] > 0
    assert span.preempted_at == crashed["metadata"]["resumed_from"]
    assert job.retry_log[0]["checkpoint_cycle"] == span.preempted_at
    assert clean["metadata"]["resumed_from"] == 0
    assert crashed["result_digest"] == clean["result_digest"]
    assert crashed["rendered"] == clean["rendered"]
    # completion removed the resume file: nothing stale left behind
    assert not list(ckdir.iterdir())


def test_ckpt_job_fails_on_another_dsas_snapshot(tmp_path, monkeypatch):
    """A ``ckpt:widx`` job submitted through the API with a DASX
    snapshot fails, instead of running the DASX model under the widx
    label."""
    from repro.svc.jobs import JobFailed, JobSpec
    from repro.svc.pool import CRASH_AFTER_CKPT_ENV, CRASH_ONCE_ENV
    from repro.svc.service import Service

    snap = str(tmp_path / "dasx.ckpt")
    write_warm_snapshot(snap, "dasx", "ci", warm_cycles=2000)
    monkeypatch.delenv(CRASH_ONCE_ENV, raising=False)
    monkeypatch.delenv(CRASH_AFTER_CKPT_ENV, raising=False)
    spec = JobSpec(experiment="ckpt:widx", profile="ci", snapshot=snap,
                   snapshot_digest=ck.snapshot_digest(snap))
    with Service(workers=1, store=None) as svc:
        job = svc.submit(spec)
        with pytest.raises(JobFailed, match="restored a DasxXCacheModel, "
                                            "not a WidxXCacheModel"):
            job.result(timeout=300)


def test_service_validates_ckpt_specs():
    from repro.svc.jobs import JobSpec
    from repro.svc.service import validate_spec

    with pytest.raises(ValueError, match="unknown ckpt dsa"):
        validate_spec(JobSpec(experiment="ckpt:nope"))
    with pytest.raises(ForkOverrideError):
        validate_spec(JobSpec(experiment="ckpt:widx",
                              fork_overrides=(("ways", 8),)))
    with pytest.raises(ValueError, match="checkpoint_dir"):
        validate_spec(JobSpec(experiment="ckpt:widx",
                              checkpoint_every=100))
    validate_spec(JobSpec(experiment="ckpt:widx",
                          fork_overrides=(("num_exe", 2),)))
