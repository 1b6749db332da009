"""Content-addressed result store: canonical digests, persistence,
invalidation, and the stats contract the dedup tests rely on."""

import pytest

from repro.svc.store import (
    STORE_FORMAT,
    ResultStore,
    canonical_json,
    code_version,
    digest_of,
)


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a  # compact separators


def test_canonical_json_normalizes_tuples():
    assert canonical_json({"x": (1, 2)}) == canonical_json({"x": [1, 2]})


def test_canonical_json_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_digest_is_stable_and_distinct():
    assert digest_of({"a": 1}) == digest_of({"a": 1})
    assert digest_of({"a": 1}) != digest_of({"a": 2})
    assert len(digest_of({"a": 1})) == 64  # full sha256 hex


def test_code_version_is_cached_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_memory_store_round_trip():
    store = ResultStore()
    digest = digest_of({"job": 1})
    assert store.get(digest) is None
    store.put(digest, {"rendered": "x", "all_ok": True})
    assert store.get(digest)["rendered"] == "x"
    assert store.stats.as_dict() == {
        "hits": 1, "misses": 1, "stores": 1, "invalidated": 0}


def test_put_is_idempotent():
    store = ResultStore()
    digest = digest_of({"job": 1})
    store.put(digest, {"v": 1})
    store.put(digest, {"v": 2})  # second put ignored, not an error
    assert store.get(digest) == {"v": 1}
    assert store.stats.stores == 1


def test_disk_store_survives_process_boundary(tmp_path):
    digest = digest_of({"job": "persisted"})
    first = ResultStore(tmp_path)
    first.put(digest, {"rendered": "report", "all_ok": True})

    # a second store over the same directory models a fresh process
    second = ResultStore(tmp_path)
    assert second.get(digest)["rendered"] == "report"
    assert second.stats.hits == 1


def test_disk_entry_format_mismatch_invalidates(tmp_path):
    digest = digest_of({"job": "stale"})
    store = ResultStore(tmp_path)
    store.put(digest, {"v": 1})
    (path,) = tmp_path.glob("*.json")

    # rewrite with a bumped format marker: must read as a miss
    with path.open("r") as fh:
        import json

        wrapped = json.load(fh)
    wrapped["format"] = STORE_FORMAT + 1
    with path.open("w") as fh:
        json.dump(wrapped, fh)

    fresh = ResultStore(tmp_path)
    assert fresh.get(digest) is None
    assert fresh.stats.invalidated == 1


def test_disk_corruption_is_a_miss(tmp_path):
    digest = digest_of({"job": "torn"})
    store = ResultStore(tmp_path)
    store.put(digest, {"v": 1})
    (path,) = tmp_path.glob("*.json")
    path.write_text("definitely not json")
    fresh = ResultStore(tmp_path)
    assert fresh.get(digest) is None
