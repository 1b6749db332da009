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


def test_counter_reset():
    c = Counter("x")
    c.inc(3)
    c.reset()
    assert c.value == 0


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


def test_statgroup_merge():
    g1 = StatGroup("g1")
    g2 = StatGroup("g2")
    g1.inc("x", 1)
    g2.inc("x", 2)
    g2.inc("y", 3)
    g2.histogram("h").add(5)
    g1.merge(g2)
    assert g1.get("x") == 3
    assert g1.get("y") == 3
    assert g1.histogram("h").count == 1


def test_statgroup_merge_histograms_both_sides():
    # merge must combine overlapping buckets, preserve weights, and keep
    # moments/percentiles consistent with feeding one histogram directly
    g1 = StatGroup("g1")
    g2 = StatGroup("g2")
    for v in (10, 10, 20, 30):
        g1.histogram("lat").add(v)
    g1.histogram("only_left").add(1)
    for v in (20, 40):
        g2.histogram("lat").add(v)
    g2.histogram("lat").add(40, weight=2)
    g2.histogram("only_right").add(7)
    g1.merge(g2)
    merged = g1.histogram("lat")
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
    assert g1.histogram("only_left").count == 1
    assert g1.histogram("only_right").count == 1
    # the source group is untouched
    assert g2.histogram("lat").count == 4


def test_statgroup_merge_is_commutative_on_buckets():
    a, b = StatGroup("a"), StatGroup("b")
    for v in (1, 2, 2):
        a.histogram("h").add(v)
    for v in (2, 3):
        b.histogram("h").add(v)
    ab, ba = StatGroup("ab"), StatGroup("ba")
    ab.merge(a), ab.merge(b)
    ba.merge(b), ba.merge(a)
    assert ab.histogram("h").items() == ba.histogram("h").items()
    assert ab.histogram("h").total == ba.histogram("h").total
def test_statgroup_reset():
    g = StatGroup("g")
    g.inc("x", 5)
    g.histogram("h").add(1)
    g.reset()
    assert g.get("x") == 0
    assert not g.histograms


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
