"""Content-addressed result store (``repro.svc.store``).

The service keys every simulation result by a **canonical digest** of
its request: config + workload + code version, serialized as canonical
JSON (sorted keys, compact separators, no NaN) and hashed with SHA-256.
A million identical requests therefore cost one simulation: the first
misses and simulates, every later one is a store hit (or, while the
first is still running, coalesces onto it — see
:class:`repro.svc.service.Service`).

Durability stays out of the event path (hypergraph's
Checkpointer-vs-EventProcessor split): the store is written exactly once
per job, by the coordinator, *after* a worker hands back a complete
result — never from inside the simulation, and never partially. Disk
writes are atomic (``os.replace``) and every on-disk record is wrapped
with a format version plus its own key, so a stale or foreign file
invalidates (counts as a miss) instead of crashing.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

__all__ = ["canonical_json", "digest_of", "code_version",
           "StoreStats", "ResultStore", "STORE_FORMAT"]

#: bump when the stored record layout changes; old entries invalidate
STORE_FORMAT = 1


def canonical_json(value: Any) -> str:
    """Serialize ``value`` as canonical JSON.

    Canonical means: object keys sorted, separators fixed to
    ``(",", ":")``, non-finite floats rejected, and only JSON types
    accepted (tuples pass as arrays). Two equal values always produce
    the same byte string regardless of dict insertion order, Python
    version, or hash randomization — which is what makes the digest a
    stable content address.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_canonical_default)


def _canonical_default(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"not canonically serializable: {value!r} "
                    f"({type(value).__name__})")


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


_code_version_lock = threading.Lock()
_code_version: Optional[str] = None


def code_version() -> str:
    """A digest of the installed ``repro`` sources (cached per process).

    Results are only interchangeable between identical code, so the
    store key folds in a content hash over every ``.py`` file of the
    package. Hashing ~100 small files costs a few milliseconds, paid
    once per process. Falls back to the package version string when the
    sources are not readable (e.g. a zipimport install).
    """
    global _code_version
    if _code_version is not None:
        return _code_version
    with _code_version_lock:
        if _code_version is None:
            _code_version = _hash_package_sources()
    return _code_version


def _hash_package_sources() -> str:
    import repro

    try:
        root = pathlib.Path(repro.__file__).parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(path.read_bytes())
        return hasher.hexdigest()[:16]
    except OSError:
        return f"v{repro.__version__}"


@dataclass
class StoreStats:
    """Hit/miss/inflight-dedup counters (the dedup proof in tests)."""

    hits: int = 0          # get() found a finished result
    misses: int = 0        # get() found nothing
    stores: int = 0        # put() recorded a fresh result
    invalidated: int = 0   # on-disk entry rejected (format/key mismatch)
    coalesced: int = 0     # submits that joined an in-flight identical job
                           # (counted by the service, reported here so one
                           # snapshot proves end-to-end dedup)

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalidated": self.invalidated,
                "coalesced": self.coalesced}


class ResultStore:
    """Digest-addressed result records, in memory and optionally on disk.

    ``root=None`` keeps everything in process memory (tests, ephemeral
    pools). With a directory, each record lands in ``<digest>.json``
    written atomically, so concurrent services can share one store.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else None
        self.stats = StoreStats()
        self._memory: Dict[str, dict] = {}
        self._lock = threading.Lock()
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # lookup / record
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        """The record stored under ``digest``, or None (counted)."""
        with self._lock:
            record = self._memory.get(digest)
            if record is None and self.root is not None:
                record = self._disk_load(digest)
                if record is not None:
                    self._memory[digest] = record
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return record

    def put(self, digest: str, record: dict) -> None:
        """Record ``record`` under ``digest`` (idempotent, atomic).

        First write wins: a digest collision means the *same* request,
        so a second record is the same result re-simulated — keeping
        the first preserves the byte-identical-retry property.
        """
        with self._lock:
            if digest in self._memory:
                return
            self._memory[digest] = record
            self.stats.stores += 1
            if self.root is not None:
                self._disk_store(digest, record)

    def contains(self, digest: str) -> bool:
        """Presence probe that does not move the hit/miss counters."""
        with self._lock:
            if digest in self._memory:
                return True
            return (self.root is not None
                    and (self.root / f"{digest}.json").exists())

    def note_coalesced(self, count: int = 1) -> None:
        with self._lock:
            self.stats.coalesced += count

    def __len__(self) -> int:
        with self._lock:
            if self.root is None:
                return len(self._memory)
            return sum(1 for _ in self.root.glob("*.json"))

    def digests(self) -> Iterator[str]:
        with self._lock:
            known = set(self._memory)
            if self.root is not None:
                known.update(p.stem for p in self.root.glob("*.json"))
        return iter(sorted(known))

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.json"

    def _disk_load(self, digest: str) -> Optional[dict]:
        try:
            wrapped = json.loads(self._disk_path(digest).read_text())
        except (OSError, ValueError):
            return None  # absent or torn write: miss
        if (not isinstance(wrapped, dict)
                or wrapped.get("format") != STORE_FORMAT
                or wrapped.get("key") != digest
                or not isinstance(wrapped.get("record"), dict)):
            self.stats.invalidated += 1
            return None  # stale/foreign entry: invalidate, don't crash
        return wrapped["record"]

    def _disk_store(self, digest: str, record: dict) -> None:
        wrapped = {"format": STORE_FORMAT, "key": digest, "record": record}
        path = self._disk_path(digest)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(wrapped, sort_keys=True) + "\n")
            os.replace(tmp, path)  # atomic vs concurrent writers
        except OSError:
            pass  # disk layer is best-effort; memory already holds it
