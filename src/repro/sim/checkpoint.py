"""Deterministic checkpoint/restore of a whole simulated system.

A *snapshot* serializes the complete simulator state of a DSA model —
the kernel's bucketed event queue (persistent tick callbacks and pooled
completion events included, by identity), walker contexts and X-register
files, meta-tag and address-cache arrays with their LRU/occupancy state,
MSHRs, the DRAM bank struct-of-arrays, every stat counter and routine
resume cursors — to a versioned, digest-stamped file. Restoring and
running to completion is **byte-identical** to a straight run:
golden-trace digests and all stats match, for every DSA.

Everything is state and is pickled verbatim: queues, walkers, tags,
stats, cursors, messages, scheduled events. Event callbacks are bound
methods and ``functools.partial``\\ s of bound methods — pickle's
memoization preserves callback identity against the owning components.

Wire format (version 6)::

    b"XCKPT6\\n" | u32 header_len | header JSON | pickle payload

Version 1 snapshots also carried compiled-routine state, version 2
ones a kernel name and stats level, version 3 ones Widx/DASX models
without their per-key reference maps, a ``MemoryImage`` allocation
log, or tuple-keyed SpGEMM products, version 4 ones systems that
route responses through a collector method and components without
their bound request-path counters, and version 5 ones action
executors without their bound hash counters; this build rejects all
five with :class:`SnapshotVersionError` before unpickling their payload.

The header records the format version, snapshot cycle, model class,
payload length + sha256 (the *snapshot digest*), and a geometry digest.
Restores fail loudly with typed errors — torn file, version mismatch,
geometry mismatch, non-fork-safe override — never a silently wrong
simulation.

**Snapshot-fork sweeps**: :func:`apply_fork_overrides` re-points the
restored config at new *fork-safe* values — post-warmup knobs (back-end
width, latencies, scheduling window, DRAM timing) whose change cannot
invalidate warmed state. Geometry-changing fields (ways/sets, data RAM,
tag layout, walker parallelism, DRAM bank structure) are rejected with
:class:`ForkOverrideError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct as _struct
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = [
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "TornSnapshotError",
    "SnapshotVersionError",
    "GeometryMismatchError",
    "ForkOverrideError",
    "FORK_SAFE_FIELDS",
    "FORK_SAFE_DRAM_FIELDS",
    "save_model",
    "load_model",
    "read_header",
    "snapshot_digest",
    "geometry_digest",
    "check_fork_overrides",
    "apply_fork_overrides",
    "warm_model",
    "finish_model",
]

SNAPSHOT_FORMAT = 6
_MAGIC = b"XCKPT6\n"


class SnapshotError(RuntimeError):
    """Base class for checkpoint/restore failures."""


class TornSnapshotError(SnapshotError):
    """Truncated, corrupt, or not-a-snapshot file."""


class SnapshotVersionError(SnapshotError):
    """Snapshot written by an incompatible format version."""


class GeometryMismatchError(SnapshotError):
    """Snapshot geometry differs from what the caller expects."""


class ForkOverrideError(SnapshotError):
    """A fork override names a field that is not fork-safe."""


# Post-warmup knobs whose change cannot invalidate warmed state: they
# alter *future* timing/scheduling decisions only. Geometry and
# constructed-at-build-time fields (ways, sets, tag_fields, data RAM,
# wlen, block_bytes, num_active, xregs_per_walker, DRAM bank
# structure) are not fork-safe: warmed arrays would be silently
# reinterpreted under a different shape.
FORK_SAFE_FIELDS = frozenset({
    "num_exe", "hit_latency", "hit_ports", "sched_window",
    "max_outstanding_fills",
})
# DRAM timing knobs, addressed as "dram.<field>" in override dicts.
FORK_SAFE_DRAM_FIELDS = frozenset({
    "t_cl", "t_rcd", "t_rp", "burst_cycles", "queue_depth",
})

# ----------------------------------------------------------------------
# model plumbing
# ----------------------------------------------------------------------
def _system_of(model: Any):
    """The :class:`~repro.core.xcache.XCacheSystem` under ``model``."""
    system = getattr(model, "system", None)
    if system is None and hasattr(model, "controller") \
            and hasattr(model, "sim"):
        system = model
    if system is None:
        raise SnapshotError(
            f"{type(model).__name__} has no .system; snapshot roots must "
            "wrap an XCacheSystem")
    return system


def geometry_digest(model: Any) -> str:
    """Digest of everything a fork must NOT change.

    Fork-safe fields are excluded, so a forked config still matches its
    parent snapshot's geometry; anything else differing (cache shape,
    data RAM, walker program, model class, DRAM banking) changes the
    digest and trips :class:`GeometryMismatchError` on a guarded load.
    """
    system = _system_of(model)
    config = system.controller.config
    xcfg = {field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if field.name not in FORK_SAFE_FIELDS}
    xcfg["tag_fields"] = list(config.tag_fields)
    dram_config = system.dram.config
    dcfg = {field.name: getattr(dram_config, field.name)
            for field in dataclasses.fields(dram_config)
            if field.name not in FORK_SAFE_DRAM_FIELDS}
    program = system.controller.program
    blob = json.dumps({
        "model": type(model).__name__,
        "xcache": xcfg,
        "dram": dcfg,
        "program": sorted(r.name for r in program.ram.routines),
    }, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_model(path: str, model: Any) -> Dict[str, Any]:
    """Snapshot ``model`` (a DSA model wrapping an XCacheSystem) to
    ``path``; returns the written header dict.

    The model must be quiescent (between ``sim.run()`` calls). File
    handles don't pickle: detach capture exporters before snapshotting
    (in-memory observers are fine).
    """
    from ..core import messages

    system = _system_of(model)
    sim = system.sim
    if getattr(sim, "_running", False):
        raise SnapshotError("cannot snapshot while sim.run() is active")
    payload_obj = {
        "model": model,
        # uid continuity: new messages after restore must not collide
        # with uids keyed in pickled in-flight maps
        "msg_ids": messages._ids,
    }
    try:
        payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"simulator state did not serialize ({exc!r}); detach "
            "file-backed observers/exporters before snapshotting") from exc
    header = {
        "format": SNAPSHOT_FORMAT,
        "cycle": sim.now,
        "model_class": type(model).__name__,
        "geometry": geometry_digest(model),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_blob = json.dumps(header, sort_keys=True).encode()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        fh.write(payload)
    os.replace(tmp, path)
    return header


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _read_raw(path: str) -> Tuple[Dict[str, Any], bytes]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise TornSnapshotError(f"cannot read snapshot {path}: {exc}") \
            from exc
    if not blob.startswith(_MAGIC):
        if blob[:5] == _MAGIC[:5]:
            # right family, different version byte
            raise SnapshotVersionError(
                f"{path}: snapshot magic {blob[:7]!r} does not match "
                f"supported format {_MAGIC!r}")
        raise TornSnapshotError(f"{path} is not an X-Cache snapshot")
    off = len(_MAGIC)
    if len(blob) < off + 4:
        raise TornSnapshotError(f"{path}: truncated before header length")
    (header_len,) = _struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) < off + header_len:
        raise TornSnapshotError(f"{path}: truncated inside header")
    try:
        header = json.loads(blob[off:off + header_len])
    except ValueError as exc:
        raise TornSnapshotError(f"{path}: corrupt header JSON") from exc
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotVersionError(
            f"{path}: format {header.get('format')!r} unsupported "
            f"(this build reads format {SNAPSHOT_FORMAT})")
    payload = blob[off + header_len:]
    if len(payload) != header.get("payload_bytes"):
        raise TornSnapshotError(
            f"{path}: payload is {len(payload)} bytes, header promises "
            f"{header.get('payload_bytes')}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise TornSnapshotError(f"{path}: payload digest mismatch")
    return header, payload


def read_header(path: str) -> Dict[str, Any]:
    """Validate and return the snapshot header (payload digest checked)."""
    header, _ = _read_raw(path)
    return header


def snapshot_digest(path: str) -> str:
    """The snapshot's identity digest (sha256 of the state payload)."""
    return read_header(path)["payload_sha256"]


def load_model(path: str, overrides: Optional[Dict[str, Any]] = None,
               expect_geometry: Optional[str] = None
               ) -> Tuple[Any, Dict[str, Any]]:
    """Restore a model from ``path``; returns ``(model, header)``.

    ``overrides`` applies fork-safe config changes (see
    :func:`apply_fork_overrides`). ``expect_geometry`` (a
    :func:`geometry_digest` value) guards against restoring a stale or
    foreign snapshot into a job that assumes different geometry.

    Restoring rebinds the module-level message-uid stream to the
    snapshot's, so only one restored system should be simulated at a
    time per process (the same rule ordinary experiments follow).
    """
    from ..core import messages

    header, payload = _read_raw(path)
    if expect_geometry is not None and header["geometry"] != expect_geometry:
        raise GeometryMismatchError(
            f"{path}: snapshot geometry {header['geometry'][:12]}… does "
            f"not match expected {expect_geometry[:12]}…; a snapshot "
            "only restores into the exact geometry it was taken from")
    try:
        payload_obj = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(
            f"{path}: state payload failed to unpickle ({exc!r}); the "
            "snapshot was likely written by an incompatible build") \
            from exc
    model = payload_obj["model"]
    messages._ids = payload_obj["msg_ids"]
    if overrides:
        apply_fork_overrides(model, overrides)
    return model, header


# ----------------------------------------------------------------------
# fork overrides
# ----------------------------------------------------------------------
def check_fork_overrides(keys: Iterable[str]) -> None:
    """Raise :class:`ForkOverrideError` unless every key is fork-safe.

    Keys are :class:`~repro.core.config.XCacheConfig` field names, or
    ``dram.<field>`` for DRAM timing. The one check behind snapshot
    forks, fork sweeps and the service's ``ckpt:`` submits.
    """
    for key in keys:
        if key.startswith("dram."):
            safe = key[len("dram."):] in FORK_SAFE_DRAM_FIELDS
        else:
            safe = key in FORK_SAFE_FIELDS
        if not safe:
            raise ForkOverrideError(
                f"{key!r} is not fork-safe (geometry-changing overrides "
                f"need a fresh warmup); fork-safe fields: "
                f"{sorted(FORK_SAFE_FIELDS)} plus "
                f"dram.{{{','.join(sorted(FORK_SAFE_DRAM_FIELDS))}}}")


def apply_fork_overrides(model: Any,
                         overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Apply post-warmup config overrides to a restored model.

    Every key is validated by :func:`check_fork_overrides`. Returns the
    normalized override dict.
    """
    check_fork_overrides(sorted(overrides))
    xc: Dict[str, Any] = {}
    dr: Dict[str, Any] = {}
    for key, value in sorted(overrides.items()):
        if key.startswith("dram."):
            dr[key[len("dram."):]] = int(value)
        else:
            xc[key] = int(value)
    system = _system_of(model)
    controller = system.controller
    if xc:
        controller.config = dataclasses.replace(controller.config, **xc)
        if isinstance(getattr(model, "config", None),
                      type(controller.config)):
            model.config = controller.config
    if dr:
        system.dram.config = dataclasses.replace(system.dram.config, **dr)
    normalized = {**{k: v for k, v in xc.items()},
                  **{f"dram.{k}": v for k, v in dr.items()}}
    return normalized


# ----------------------------------------------------------------------
# run-phase helpers (shared by harness sweeps, svc preemption, tests)
# ----------------------------------------------------------------------
def warm_model(model: Any, cycle: int) -> None:
    """Run a freshly built model's warmup phase to ``cycle``.

    Calls the model's :meth:`start` (handler attach + request seeding)
    and advances the kernel to ``cycle`` without finalizing — the
    snapshot point. ``finish_model`` (or ``model.system.run()`` +
    ``model.finish()``) completes the run later.
    """
    model.start()
    model.system.sim.run(until=cycle)


def finish_model(model: Any):
    """Run a (restored or warmed) model to completion; returns its
    :class:`~repro.dsa.base.RunResult`."""
    until = getattr(model, "_max_cycles", None)
    model.system.run(until=until)
    return model.finish()
