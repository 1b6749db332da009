"""Golden event stream: a pinned digest of a whole traced Widx run.

A JSONL export of every event the controller's bus carries (requests,
hits, misses, merges, walker dispatch/wake/yield/retire, fills,
evictions, ...) is hashed and compared with a committed literal. Any
reordering, missing or extra event (even within one cycle) or changed
field changes the digest, so this pins the kernel's ordering, the
controller's behaviour and checkpoint/restore at once.
"""

import hashlib
import io

from repro.core.messages import reset_ids
from repro.obs.export import JsonlExporter
from repro.workloads.tpch import make_widx_workload

GOLDEN_WIDX_SHA256 = \
    "3b50e4052d7dfd8632a02572ee1df5d5cf0a4f10b9c7dd021eb89589a08ccb2a"


def _traced_widx_model():
    from repro.dsa.widx import WidxXCacheModel

    reset_ids()
    workload = make_widx_workload(
        num_keys=512, num_probes=1024, num_buckets=512,
        skew=1.3, hash_cycles=10, seed=3,
    )
    model = WidxXCacheModel(workload, window=16)
    buf = io.StringIO()
    model.system.controller.ensure_bus().attach(JsonlExporter(buf))
    return model, buf


def _digest(buf) -> str:
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_widx_event_stream_matches_golden_digest():
    model, buf = _traced_widx_model()
    result = model.run()
    assert result.cycles > 0
    assert _digest(buf) == GOLDEN_WIDX_SHA256


def test_widx_trace_digest_survives_snapshot_restore(tmp_path):
    """run-to-mid → snapshot → restore → run-to-end must emit the
    *identical* event stream a straight run emits."""
    from repro.sim import checkpoint as ck

    straight, straight_buf = _traced_widx_model()
    straight_result = straight.run()
    assert _digest(straight_buf) == GOLDEN_WIDX_SHA256

    model, buf = _traced_widx_model()
    ck.warm_model(model, straight_result.cycles // 2)
    ck.save_model(str(tmp_path / "traced.ckpt"), model)
    del model, buf
    restored, header = ck.load_model(str(tmp_path / "traced.ckpt"))
    resumed_result = ck.finish_model(restored)
    (exporter,) = restored.system.controller.bus.processors
    assert header["cycle"] == straight_result.cycles // 2
    assert _digest(exporter._stream) == GOLDEN_WIDX_SHA256
    assert resumed_result == straight_result
