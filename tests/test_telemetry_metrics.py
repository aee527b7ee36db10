"""Metrics instruments: counters, gauges, histogram edges, snapshots."""

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    collecting,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)


@pytest.fixture(autouse=True)
def _clean_global_metrics():
    yield
    disable_metrics()


def test_counter_increments_and_rejects_negative():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.to_dict() == {"type": "counter", "value": 3.5}


def test_gauge_sets_and_adds():
    g = Gauge("g")
    g.set(7)
    g.add(-2)
    assert g.value == 5
    assert g.to_dict()["type"] == "gauge"


def test_histogram_bucket_edges_are_inclusive_upper_bounds():
    h = Histogram("h", bounds=(1, 2, 4))
    for v in (0, 1, 1.5, 2, 3, 4, 5, 100):
        h.observe(v)
    # <=1: {0,1}; <=2: {1.5,2}; <=4: {3,4}; overflow: {5,100}
    assert h.buckets == [2, 2, 2, 2]
    assert h.count == 8
    assert h.min == 0 and h.max == 100
    assert h.total == pytest.approx(116.5)
    assert h.mean == pytest.approx(116.5 / 8)


def test_histogram_bucket_matches_the_linear_rule():
    # the rule observe() implements: the first bound >= value, else the
    # overflow bucket (NaN compares false against every bound)
    def linear(bounds, value):
        for i, bound in enumerate(bounds):
            if value <= bound:
                return i
        return len(bounds)

    bounds = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    values = [b + d for b in bounds for d in (-0.5, 0, 0.5)]
    values += [-3, 0, 0.5, 5000, float("inf"), float("-inf"), float("nan")]
    for v in values:
        h = Histogram("h", bounds=bounds)
        h.observe(v)
        want = [0] * (len(bounds) + 1)
        want[linear(bounds, v)] = 1
        assert h.buckets == want, v


def test_histogram_quantiles_and_empty_behaviour():
    h = Histogram("h", bounds=(10, 20, 40))
    assert h.quantile(0.5) == 0.0           # empty histogram
    for v in (5, 15, 15, 35):
        h.observe(v)
    assert h.quantile(0.0) == 10            # first non-empty bucket bound
    assert h.quantile(0.5) == 20
    assert h.quantile(1.0) == 40
    with pytest.raises(ValueError):
        h.quantile(1.5)
    d = h.to_dict()
    assert d["buckets"] == [1, 2, 1, 0]
    assert d["bounds"] == [10.0, 20.0, 40.0]


def test_histogram_overflow_quantile_reports_max():
    h = Histogram("h", bounds=(1,))
    h.observe(50)
    assert h.quantile(1.0) == 50


def test_histogram_requires_sorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(4, 2, 1))
    with pytest.raises(ValueError):
        Histogram("bad", bounds=())


def test_registry_get_or_create_and_type_safety():
    reg = MetricsRegistry()
    c1 = reg.counter("hits")
    c2 = reg.counter("hits")
    assert c1 is c2
    assert "hits" in reg and len(reg) == 1
    with pytest.raises(TypeError):
        reg.gauge("hits")
    assert reg.names() == ["hits"]


def test_registry_to_dict_is_sorted_and_serializable():
    import json

    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.gauge("a").set(1)
    reg.histogram("c", bounds=(1, 2)).observe(1)
    d = reg.to_dict()
    assert list(d) == ["a", "b", "c"]
    json.dumps(d)       # everything is JSON-serializable


def test_periodic_snapshotting():
    reg = MetricsRegistry(snapshot_every=10)
    c = reg.counter("n")
    assert reg.maybe_snapshot(0) is not None        # first call snapshots
    c.inc()
    assert reg.maybe_snapshot(5) is None            # not yet due
    c.inc()
    snap = reg.maybe_snapshot(10)                   # 10 cycles elapsed
    assert snap is not None and snap["cycle"] == 10
    assert snap["metrics"]["n"]["value"] == 2
    assert [s["cycle"] for s in reg.snapshots] == [0, 10]
    # snapshots are deep enough copies that later updates don't mutate them
    c.inc()
    assert reg.snapshots[-1]["metrics"]["n"]["value"] == 2


def test_no_snapshotting_without_interval():
    reg = MetricsRegistry()
    assert reg.maybe_snapshot(100) is None
    assert reg.snapshots == []


def test_null_metrics_is_inert():
    nm = NullMetrics()
    nm.counter("x").inc()
    nm.gauge("y").set(3)
    nm.histogram("z").observe(1)
    assert nm.to_dict() == {}
    assert nm.maybe_snapshot(5) is None
    assert len(nm) == 0 and "x" not in nm


def test_null_instrument_is_shared():
    nm = NullMetrics()
    assert nm.counter("a") is nm.gauge("b") is nm.histogram("c")


def test_global_registry_install_and_context():
    assert not get_metrics().enabled
    reg = enable_metrics(snapshot_every=4)
    assert get_metrics() is reg
    disable_metrics()
    with collecting() as inner:
        assert get_metrics() is inner
        inner.counter("k").inc()
    assert not get_metrics().enabled
    assert inner.counter("k").value == 1


def test_set_metrics_returns_previous():
    mine = MetricsRegistry()
    prev = set_metrics(mine)
    assert get_metrics() is mine
    set_metrics(prev)
    assert get_metrics() is prev
