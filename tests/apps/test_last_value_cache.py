"""Tests for the last-value cache and the snapshot-then-subscribe pattern."""

import pytest

from repro.apps import LastValueCache, last_value_cache, snapshot_then_subscribe
from repro.core import InformationBus
from repro.core.rmi import RmiClient
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel


@pytest.fixture
def world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(4)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "quote", attributes=[AttributeSpec("symbol", "string"),
                             AttributeSpec("price", "float")]))
    feed = bus.client("node00", "feed", registry=reg)
    lvc = LastValueCache(bus.client("node01", "lvc"), ["quotes.>"])
    return bus, reg, feed, lvc


def quote(reg, symbol, price):
    return DataObject(reg, "quote", symbol=symbol, price=price)


def publish_quotes(bus, reg, feed, prices):
    for symbol, price in prices:
        feed.publish(f"quotes.equity.{symbol}", quote(reg, symbol, price))
    bus.settle(1.0)


def test_cache_keeps_only_latest(world):
    bus, reg, feed, lvc = world
    publish_quotes(bus, reg, feed,
                   [("gmc", 41.0), ("ibm", 58.0), ("gmc", 42.5)])
    assert len(lvc) == 2
    assert lvc.updates_seen == 3
    assert lvc._current("quotes.equity.gmc").get("price") == 42.5


def test_rmi_current_and_snapshot(world):
    bus, reg, feed, lvc = world
    publish_quotes(bus, reg, feed, [("gmc", 41.0), ("ibm", 58.0)])
    rmi = RmiClient(bus.client("node02", "trader"), "svc.lvc")
    out = {}
    rmi.call("current", {"subject": "quotes.equity.gmc"},
             lambda v, e: out.update(cur=(v, e)))
    bus.run_for(2.0)
    value, error = out["cur"]
    assert error is None and value.get("price") == 41.0
    rmi.call("current", {"subject": "quotes.equity.never"},
             lambda v, e: out.update(missing=(v, e)))
    bus.run_for(2.0)
    assert out["missing"] == (None, None)
    rmi.call("snapshot", {"pattern": "quotes.>"},
             lambda v, e: out.update(snap=(v, e)))
    bus.run_for(2.0)
    snap = out["snap"][0]
    assert set(snap) == {"quotes.equity.gmc", "quotes.equity.ibm"}
    rmi.call("cached_subjects", {},
             lambda v, e: out.update(subjects=(v, e)))
    bus.run_for(2.0)
    assert out["subjects"][0] == ["quotes.equity.gmc",
                                  "quotes.equity.ibm"]


def test_snapshot_pattern_filters(world):
    bus, reg, feed, lvc = world
    publish_quotes(bus, reg, feed, [("gmc", 41.0)])
    feed.publish("quotes.bond.us10y", quote(reg, "us10y", 99.0))
    bus.settle(1.0)
    rmi = RmiClient(bus.client("node02", "trader"), "svc.lvc")
    out = {}
    rmi.call("snapshot", {"pattern": "quotes.equity.*"},
             lambda v, e: out.update(snap=v))
    bus.run_for(2.0)
    assert set(out["snap"]) == {"quotes.equity.gmc"}


def test_late_joiner_gets_snapshot_then_live(world):
    """The whole point: a subscriber that joins late still sees current
    values, then live updates, in order."""
    bus, reg, feed, lvc = world
    publish_quotes(bus, reg, feed, [("gmc", 41.0), ("ibm", 58.0)])

    seen = []
    ready = []
    late = bus.client("node02", "late_trader")
    snapshot_then_subscribe(
        late, "quotes.>",
        lambda s, o, is_snap: seen.append((s, o.get("price"), is_snap)),
        on_ready=lambda: ready.append(True))
    bus.run_for(2.0)
    assert ready == [True]
    snapshot_part = [e for e in seen if e[2]]
    assert {(s, p) for s, p, _ in snapshot_part} == {
        ("quotes.equity.gmc", 41.0), ("quotes.equity.ibm", 58.0)}
    # now a live update arrives as live
    publish_quotes(bus, reg, feed, [("gmc", 43.0)])
    assert seen[-1] == ("quotes.equity.gmc", 43.0, False)


def test_updates_during_snapshot_are_buffered_not_lost(world):
    bus, reg, feed, lvc = world
    publish_quotes(bus, reg, feed, [("gmc", 41.0)])
    seen = []
    late = bus.client("node02", "late_trader")
    snapshot_then_subscribe(
        late, "quotes.>",
        lambda s, o, is_snap: seen.append((o.get("price"), is_snap)))
    # publish immediately, while the snapshot RMI is still in flight
    feed.publish("quotes.equity.gmc", quote(reg, "gmc", 41.5))
    bus.run_for(3.0)
    # the in-flight update is not lost: it arrives as a live delivery
    # after the snapshot entries (which may already reflect it)
    assert seen[-1] == (41.5, False)
    assert seen[0][1] is True             # snapshot applied first
    flags = [is_snap for _, is_snap in seen]
    assert flags == sorted(flags, reverse=True)   # snaps before lives


def test_cache_bound(world, monkeypatch):
    bus, reg, feed, lvc = world
    monkeypatch.setattr(last_value_cache, "MAX_SUBJECTS", 2)
    publish_quotes(bus, reg, feed,
                   [("a", 1.0), ("b", 2.0), ("c", 3.0)])
    assert len(lvc) == 2               # refused the third subject
    assert lvc._current("quotes.equity.c") is None
    # but updates to cached subjects still apply
    publish_quotes(bus, reg, feed, [("a", 9.0)])
    assert lvc._current("quotes.equity.a").get("price") == 9.0


def test_stop_detaches(world):
    bus, reg, feed, lvc = world
    lvc.stop()
    publish_quotes(bus, reg, feed, [("gmc", 41.0)])
    assert len(lvc) == 0
