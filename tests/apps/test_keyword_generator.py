"""Tests for the Keyword Generator and the Figure 4 evolution scenario."""

import pytest

from repro.adapters import register_news_types
from repro.apps import KeywordGenerator, NewsMonitor
from repro.core import InformationBus
from repro.core.rmi import RmiClient
from repro.objects import DataObject
from repro.sim import CostModel


@pytest.fixture
def world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(4)
    feed = bus.client("node00", "feed")
    register_news_types(feed.registry)
    monitor = NewsMonitor(bus.client("node01", "monitor"))
    return bus, feed, monitor


def story(feed, headline, body=""):
    return DataObject(feed.registry, "story", {
        "headline": headline, "body": body, "category": "equity",
        "topic": "gmc"})


def test_scan_groups_by_category(world):
    bus, feed, monitor = world
    generator = KeywordGenerator(bus.client("node02", "kwgen"))
    found = generator.scan("chip yields rally as fab volume grows")
    assert found == {"semiconductors": ["chip", "fab", "yield"],
                     "markets": ["rally", "volume"]}
    assert generator.scan("nothing relevant here") == {}


def test_generator_annotates_published_stories(world):
    bus, feed, monitor = world
    generator = KeywordGenerator(bus.client("node02", "kwgen"))
    s = story(feed, "Chip yields up at fab5", "Wafer volume strong.")
    feed.publish("news.equity.gmc", s)
    bus.settle(2.0)
    assert generator.stories_scanned == 1
    assert generator.properties_published == 1
    # Figure 4: the monitor associates the property with the story
    keywords = monitor.keywords_for(0)
    assert "semiconductors" in keywords
    assert "chip" in keywords["semiconductors"]


def test_monitor_enriched_only_after_generator_comes_online(world):
    """'As soon as the Keyword Generator service comes on-line, the
    user's world becomes much richer' — and not before."""
    bus, feed, monitor = world
    feed.publish("news.equity.gmc", story(feed, "chip news before"))
    bus.settle(2.0)
    assert monitor.keywords_for(0) is None        # nothing annotates yet
    KeywordGenerator(bus.client("node02", "kwgen"))
    feed.publish("news.equity.gmc", story(feed, "chip news after"))
    bus.settle(2.0)
    assert monitor.keywords_for(1)                # new stories enriched
    assert monitor.keywords_for(0) is None        # history untouched


def test_generator_ignores_its_own_properties(world):
    """The generator subscribes where it publishes; no feedback loop."""
    bus, feed, monitor = world
    generator = KeywordGenerator(bus.client("node02", "kwgen"))
    feed.publish("news.equity.gmc", story(feed, "chip chip chip"))
    bus.settle(3.0)
    assert generator.stories_scanned == 1
    assert generator.properties_published == 1


def test_generator_ignores_non_story_objects(world):
    bus, feed, monitor = world
    generator = KeywordGenerator(bus.client("node02", "kwgen"))
    feed.publish("news.tick", {"price": 1.0})
    bus.settle(2.0)
    assert generator.stories_scanned == 0


def test_interactive_interface_browsing(world):
    """'An interactive interface that allows clients to browse categories
    and associated keywords' — a brand-new service type, driven by RMI."""
    bus, feed, monitor = world
    KeywordGenerator(bus.client("node02", "kwgen"))
    rmi = RmiClient(bus.client("node03", "browser"), "svc.keywords")
    out = {}
    rmi.call("categories", {}, lambda v, e: out.update(cats=(v, e)))
    bus.run_for(2.0)
    assert out["cats"][1] is None
    assert "semiconductors" in out["cats"][0]
    rmi.call("keywords_in", {"category": "markets"},
             lambda v, e: out.update(kw=(v, e)))
    bus.run_for(2.0)
    assert "earnings" in out["kw"][0]
    rmi.call("add_keyword", {"category": "markets", "word": "dividend"},
             lambda v, e: out.update(add=(v, e)))
    bus.run_for(2.0)
    rmi.call("keywords_in", {"category": "markets"},
             lambda v, e: out.update(kw2=(v, e)))
    bus.run_for(2.0)
    assert "dividend" in out["kw2"][0]


def test_interface_is_discoverable_and_self_describing(world):
    bus, feed, monitor = world
    KeywordGenerator(bus.client("node02", "kwgen"))
    rmi = RmiClient(bus.client("node03", "browser"), "svc.keywords")
    out = {}
    rmi.call("categories", {}, lambda v, e: out.update(r=(v, e)))
    bus.run_for(2.0)
    ops = {o["name"] for o in rmi.server_interface["operations"]}
    assert ops == {"categories", "keywords_in", "add_keyword"}
