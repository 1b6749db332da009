"""Unit tests for counters, histograms, stat groups, and geomean."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import Counter, Histogram, StatGroup, geomean


def test_counter_increments():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert int(c) == 5


def test_histogram_mean_and_range():
    h = Histogram("lat")
    for v in (1, 2, 3, 4):
        h.add(v)
    assert h.mean == 2.5
    assert h.min_seen == 1
    assert h.max_seen == 4
    assert h.count == 4


def test_histogram_weighted_add():
    h = Histogram("lat")
    h.add(10, weight=3)
    h.add(20)
    assert h.count == 4
    assert h.total == 50


def test_histogram_percentiles():
    h = Histogram("lat")
    for v in range(1, 101):
        h.add(v)
    assert h.percentile(0.5) == 50
    assert h.percentile(0.9) == 90
    assert h.percentile(1.0) == 100


def test_histogram_percentile_bounds():
    h = Histogram("lat")
    h.add(5)
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_empty_histogram_defaults():
    h = Histogram("lat")
    assert h.mean == 0.0
    assert h.percentile(0.5) == 0


def test_histogram_merge_adds_samples_and_range():
    a, b = Histogram("a"), Histogram("b")
    for v in (5, 7, 7):
        a.add(v)
    b.add(2, weight=2)
    b.add(9)
    a.merge(b)
    assert a.items() == [(2, 2), (5, 1), (7, 2), (9, 1)]
    assert (a.count, a.total) == (6, 32)
    assert (a.min_seen, a.max_seen) == (2, 9)
    # merging into an empty histogram copies the range; empty is a no-op
    empty = Histogram("e")
    empty.merge(b)
    assert (empty.min_seen, empty.max_seen, empty.count) == (2, 9, 3)
    empty.merge(Histogram("none"))
    assert empty.items() == b.items()


def test_histogram_items_sorted():
    h = Histogram("lat")
    for v in (5, 1, 3, 1):
        h.add(v)
    assert h.items() == [(1, 2), (3, 1), (5, 1)]


def test_statgroup_lazy_counters():
    g = StatGroup("g")
    g.inc("a")
    g.inc("a", 2)
    assert g.get("a") == 3
    assert g.get("missing") == 0
    assert g.get("missing", 7) == 7


def test_statgroup_as_dict_sorted():
    g = StatGroup("g")
    g.inc("b", 2)
    g.inc("a", 1)
    assert list(g.as_dict()) == ["a", "b"]


def test_statgroup_merge_histograms_both_sides():
    # Histogram.merge must combine overlapping buckets, preserve weights,
    # and keep moments/percentiles consistent with feeding one histogram
    # directly
    merged = Histogram("lat")
    for v in (10, 10, 20, 30):
        merged.add(v)
    other = Histogram("lat")
    for v in (20, 40):
        other.add(v)
    other.add(40, weight=2)
    merged.merge(other)
    reference = Histogram("ref")
    for v in (10, 10, 20, 30, 20, 40, 40, 40):
        reference.add(v)
    assert merged.count == reference.count == 8
    assert merged.total == reference.total
    assert merged.items() == reference.items()
    assert merged.mean == pytest.approx(reference.mean)
    for p in (0.5, 0.95, 0.99):
        assert merged.percentile(p) == reference.percentile(p)
    assert merged.min_seen == 10 and merged.max_seen == 40
    # merging into an empty histogram copies the other side exactly
    only_right = Histogram("only_right")
    only_right.merge(other)
    assert only_right.items() == other.items()
    assert (only_right.min_seen, only_right.max_seen) == (20, 40)
    # the source histogram is untouched
    assert other.count == 4


def test_statgroup_merge_is_commutative_on_buckets():
    a, b = Histogram("a"), Histogram("b")
    for v in (1, 2, 2):
        a.add(v)
    for v in (2, 3):
        b.add(v)
    ab, ba = Histogram("ab"), Histogram("ba")
    ab.merge(a), ab.merge(b)
    ba.merge(b), ba.merge(a)
    assert ab.items() == ba.items()
    assert ab.total == ba.total


def test_geomean_simple():
    assert geomean([2, 8]) == pytest.approx(4.0)


def test_geomean_empty_is_zero():
    assert geomean([]) == 0.0


def test_geomean_rejects_nonpositive():
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                max_size=20))
def test_geomean_between_min_and_max(values):
    g = geomean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=200))
def test_histogram_mean_matches_python_mean(values):
    h = Histogram("x")
    for v in values:
        h.add(v)
    assert h.mean == pytest.approx(sum(values) / len(values))
    assert h.min_seen == min(values)
    assert h.max_seen == max(values)
