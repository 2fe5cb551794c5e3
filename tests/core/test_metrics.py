"""Unit tests for the unified metrics registry."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core import BatchConfig, BusConfig, FlowConfig, ReliableConfig
from repro.core.router import WanLink
from repro.core.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                                sum_counters)


def test_counter_hot_path_and_snapshot():
    c = Counter("x")
    c.value += 1
    c.inc(4)
    assert c.value == 5
    assert c.snapshot() == {"type": "counter", "value": 5}
    c.reset()
    assert c.value == 0


def test_gauge_direct_and_lazy_source():
    g = Gauge("depth")
    g.value = 7
    assert g.read() == 7
    backing = {"n": 3}
    lazy = Gauge("size", source=lambda: backing["n"])
    assert lazy.read() == 3
    backing["n"] = 9
    assert lazy.snapshot() == {"type": "gauge", "value": 9}


def test_histogram_buckets_count_and_sum():
    h = Histogram("lat", bounds=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["counts"] == [1, 2, 1, 1]    # last bucket = overflow
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(5.0605)
    assert snap["bounds"] == [0.001, 0.01, 0.1]


def test_histogram_bisection_picks_the_linear_scans_bucket():
    """``observe`` bisects for the first bound >= the value; the
    reference is the linear scan it replaced, on every bound, both its
    floating-point neighbours, 0 and +inf."""
    import math
    from repro.core.metrics import DEFAULT_BUCKETS

    def linear_bucket(bounds, value):
        for index, bound in enumerate(bounds):
            if value <= bound:
                return index
        return len(bounds)

    for bounds in (DEFAULT_BUCKETS, (0.001, 0.01, 0.1), (2.0,), ()):
        values = [0.0, math.inf]
        for bound in bounds:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        for value in values:
            h = Histogram("h", bounds=bounds)
            h.observe(value)
            expected = [0] * (len(bounds) + 1)
            expected[linear_bucket(bounds, value)] = 1
            assert h.bucket_counts == expected, (bounds, value)
            assert h.count == 1 and h.sum == value


def test_histogram_bounds_must_ascend():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(0.1, 0.01))


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("daemon.n0.published")
    b = reg.counter("daemon.n0.published")
    assert a is b
    assert len(reg) == 1


def test_registry_type_conflict_is_an_error():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


def test_scope_prefixes_names():
    reg = MetricsRegistry()
    scope = reg.scope("daemon.n0")
    c = scope.counter("published")
    assert c.name == "daemon.n0.published"
    nested = scope.scope("wire")
    assert nested.counter("drops").name == "daemon.n0.wire.drops"
    assert set(reg.names()) == {"daemon.n0.published", "daemon.n0.wire.drops"}


def test_register_adopts_detached_instruments():
    reg = MetricsRegistry()
    detached = Counter()
    detached.value = 3
    reg.register("wan.drops", detached)
    assert reg.get("wan.drops") is detached
    # re-registering the same object is a no-op
    reg.register("wan.drops", detached)
    # a different object under a taken name is a collision
    with pytest.raises(ValueError):
        reg.register("wan.drops", Counter())


def test_drop_prefix_forgets_volatile_families():
    reg = MetricsRegistry()
    reg.counter("reliable.recv[a#0].delivered")
    reg.counter("reliable.recv[b#0].delivered")
    keeper = reg.counter("daemon.n0.published")
    assert reg.drop_prefix("reliable.") == 2
    assert reg.names() == ["daemon.n0.published"]
    # recreating after a drop yields a fresh zeroed instrument
    fresh = reg.counter("reliable.recv[a#0].delivered")
    assert fresh.value == 0
    assert reg.get("daemon.n0.published") is keeper


def test_snapshot_renders_every_instrument():
    reg = MetricsRegistry()
    reg.counter("c").value += 2
    reg.gauge("g").value = 1.5
    reg.histogram("h").observe(0.5)
    snap = reg.snapshot()
    assert snap["c"] == {"type": "counter", "value": 2}
    assert snap["g"]["type"] == "gauge"
    assert snap["h"]["type"] == "histogram"


def test_every_busconfig_field_is_documented():
    """OBSERVABILITY.md has one knob table per configuration dataclass,
    with exactly one row per field: a new knob must say why a user would
    turn it, and a retired one must leave the docs with it."""
    doc = (Path(__file__).resolve().parents[2] / "docs"
           / "OBSERVABILITY.md").read_text()
    for config in (BusConfig, ReliableConfig, FlowConfig, BatchConfig,
                   WanLink):
        heading = f"## {config.__name__} knobs"
        assert heading in doc, heading
        table = doc.split(heading)[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        assert sorted(rows) == sorted(
            f.name for f in dataclasses.fields(config)), config.__name__


def test_sum_counters_matches_suffixes_only():
    snap = {
        "daemon.a.published": {"type": "counter", "value": 3},
        "daemon.b.published": {"type": "counter", "value": 4},
        "daemon.a.depth": {"type": "gauge", "value": 99},
        "daemon.a.delivered": {"type": "counter", "value": 7},
    }
    assert sum_counters(snap, [".published"]) == 7
    assert sum_counters(snap, [".published", ".delivered"]) == 14
    assert sum_counters(snap, [".depth"]) == 0   # gauges never counted
