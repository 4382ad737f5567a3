"""Instrument unit tests: labels, aggregation, bucket edges, and the
percentile helper histograms compute through."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    labelset,
)
from repro.telemetry.instruments import percentile


# ----------------------------------------------------------------------
# Labels
# ----------------------------------------------------------------------
def test_labelset_is_sorted_and_stringified():
    assert labelset({"tier": "ap", "app": 7}) == \
        (("app", "7"), ("tier", "ap"))
    assert labelset({}) == ()


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_value_is_exact_label_match():
    counter = Counter("cache.lookups")
    counter.inc(app="maps", outcome="hit")
    counter.inc(app="maps", outcome="miss")
    counter.inc(2.0, app="mail", outcome="hit")
    assert counter.value(app="maps", outcome="hit") == 1.0
    assert counter.value(app="maps") == 0.0  # no such exact label set


def test_counter_total_aggregates_label_subsets():
    counter = Counter("client.fetches")
    counter.inc(app="maps", outcome="hit")
    counter.inc(app="maps", outcome="miss")
    counter.inc(3.0, app="mail", outcome="hit")
    assert counter.total() == 5.0
    assert counter.total(app="maps") == 2.0
    assert counter.total(outcome="hit") == 4.0
    assert counter.total(app="mail", outcome="hit") == 3.0
    assert counter.total(app="absent") == 0.0


def test_counter_rejects_negative_increment():
    counter = Counter("c")
    with pytest.raises(TelemetryError):
        counter.inc(-1.0)


def test_counter_labelsets_sorted_regardless_of_call_order():
    counter = Counter("c")
    counter.inc(tier="edge")
    counter.inc(tier="ap")
    assert counter.labelsets() == [(("tier", "ap"),), (("tier", "edge"),)]


# ----------------------------------------------------------------------
# Gauge
# ----------------------------------------------------------------------
def test_gauge_set_and_add():
    gauge = Gauge("cache.used_bytes")
    gauge.set(100.0, tier="ap")
    gauge.add(-30.0, tier="ap")
    gauge.add(5.0, tier="device")
    assert gauge.value(tier="ap") == 70.0
    assert gauge.value(tier="device") == 5.0
    assert gauge.value(tier="edge") == 0.0


# ----------------------------------------------------------------------
# Histogram buckets
# ----------------------------------------------------------------------
def test_histogram_bucket_edges_are_inclusive_upper_bounds():
    hist = Histogram("lat", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 2.0, 4.0, 4.1, 100.0):
        hist.observe(value)
    # 0.5 and 1.0 land in <=1.0; 1.5 and 2.0 in <=2.0; 4.0 in <=4.0;
    # 4.1 and 100.0 overflow into the implicit +inf bucket.
    assert hist.bucket_counts() == [2, 2, 1, 2]


def test_histogram_default_buckets_cover_paper_range():
    hist = Histogram("lat")
    assert hist.buckets == DEFAULT_LATENCY_BUCKETS_MS
    hist.observe(7.0)       # an AP hit
    hist.observe(30.0)      # an edge retrieval
    hist.observe(4000.0)    # pathological origin miss -> +inf
    counts = hist.bucket_counts()
    assert sum(counts) == 3
    assert counts[-1] == 1  # the overflow bucket


def test_histogram_rejects_bad_buckets():
    with pytest.raises(TelemetryError):
        Histogram("h", buckets=())
    with pytest.raises(TelemetryError):
        Histogram("h", buckets=(2.0, 1.0))
    with pytest.raises(TelemetryError):
        Histogram("h", buckets=(1.0, 1.0))


# ----------------------------------------------------------------------
# Histogram statistics
# ----------------------------------------------------------------------
def test_histogram_percentiles_are_exact_not_bucketed():
    hist = Histogram("lat", buckets=(1000.0,))  # one coarse bucket
    samples = [float(value) for value in range(1, 101)]
    for value in samples:
        hist.observe(value)
    # Despite a single bucket, percentiles match the repository's
    # reference implementation over the raw samples.
    assert hist.percentile(50.0) == percentile(samples, 50.0)
    assert hist.percentile(95.0) == percentile(samples, 95.0)
    assert hist.percentile(99.0) == percentile(samples, 99.0)
    assert hist.mean() == pytest.approx(50.5)


def test_histogram_label_subset_aggregation():
    hist = Histogram("client.retrieval_ms", buckets=(10.0, 100.0))
    hist.observe(5.0, app="maps", source="ap-hit")
    hist.observe(50.0, app="maps", source="edge")
    hist.observe(7.0, app="mail", source="ap-hit")
    assert sorted(hist.samples(source="ap-hit")) == [5.0, 7.0]
    assert hist.samples(app="maps", source="edge") == [50.0]
    assert hist.count() == 3
    assert hist.sum() == pytest.approx(62.0)


def test_histogram_empty_reads_raise_or_report_zero():
    hist = Histogram("lat", buckets=(1.0,))
    with pytest.raises(TelemetryError):
        hist.mean()
    with pytest.raises(TelemetryError):
        hist.percentile(50.0)
    assert hist.summary() == {"count": 0.0}


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
def test_percentile_basics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 25) == pytest.approx(2.0)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)


def test_percentile_single_value():
    assert percentile([7.0], 95) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_matches_numpy(values, q):
    import numpy as np
    assert percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-9, abs=1e-9)
