"""Unit tests for latency-insensitive message queues."""

import pytest

from repro.sim import MessageQueue, QueueEmptyError, QueueFullError


def test_fifo_order():
    q = MessageQueue()
    q.enq_all([1, 2, 3])
    assert [q.deq(), q.deq(), q.deq()] == [1, 2, 3]


def test_ready_valid_unbounded():
    q = MessageQueue()
    assert q.ready
    assert not q.valid
    q.enq("x")
    assert q.ready and q.valid


def test_bounded_capacity_backpressure():
    q = MessageQueue(capacity=2)
    q.enq(1)
    q.enq(2)
    assert not q.ready
    with pytest.raises(QueueFullError):
        q.enq(3)
    q.deq()
    assert q.ready


def test_deq_empty_raises():
    with pytest.raises(QueueEmptyError):
        MessageQueue().deq()


def test_peek_does_not_consume():
    q = MessageQueue()
    q.enq("a")
    assert q.peek() == "a"
    assert len(q) == 1


def test_peek_empty_raises():
    with pytest.raises(QueueEmptyError):
        MessageQueue().peek()


def test_on_push_callback_fires_per_enqueue():
    calls = []
    q = MessageQueue(on_push=lambda: calls.append(1))
    q.enq(1)
    q.enq(2)
    assert len(calls) == 2


def test_statistics_track_traffic():
    q = MessageQueue()
    q.enq_all(range(5))
    q.deq()
    q.deq()
    assert q.total_enqueued == 5
    assert q.total_dequeued == 2
    assert q.peak_depth == 5


def test_window_returns_prefix_without_consuming():
    q = MessageQueue()
    q.enq_all([10, 20, 30, 40])
    assert q.window(2) == [10, 20]
    assert q.window(10) == [10, 20, 30, 40]
    assert len(q) == 4


def test_remove_specific_item():
    q = MessageQueue()
    q.enq_all(["a", "b", "c"])
    q.remove("b")
    assert q.drain() == ["a", "c"]


def test_remove_missing_raises():
    q = MessageQueue()
    q.enq("a")
    with pytest.raises(QueueEmptyError):
        q.remove("z")


def test_remove_counts_as_dequeue():
    q = MessageQueue()
    q.enq_all([1, 2])
    q.remove(2)
    assert q.total_dequeued == 1


def test_drain_empties_queue():
    q = MessageQueue()
    q.enq_all([1, 2, 3])
    assert q.drain() == [1, 2, 3]
    assert not q.valid


def test_bool_reflects_emptiness():
    q = MessageQueue()
    assert not q
    q.enq(0)
    assert q
