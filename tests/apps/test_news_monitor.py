"""Tests for the News Monitor and its views."""

import pytest

from repro.adapters import register_news_types
from repro.apps import NewsMonitor, View, news_monitor
from repro.apps.app_builder.views import ViewColumn
from repro.core import InformationBus
from repro.objects import DataObject
from repro.objects.properties import make_property
from repro.sim import CostModel


@pytest.fixture
def world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(3)
    feed = bus.client("node00", "feed")
    register_news_types(feed.registry)
    monitor = NewsMonitor(bus.client("node01", "monitor"))
    return bus, feed, monitor


def story(feed, headline, topic="gmc", **extra):
    return DataObject(feed.registry, "story", dict(
        {"headline": headline, "category": "equity", "topic": topic,
         "sources": ["Test"]}, **extra))


def test_headline_summary_list(world):
    bus, feed, monitor = world
    for i in range(3):
        feed.publish(f"news.equity.gmc", story(feed, f"Headline {i}"))
    bus.settle()
    assert monitor.stories_received == 3
    lines = monitor.headlines()
    assert "headline" in lines[0]            # view header
    assert any("Headline 0" in line for line in lines)
    assert any("Headline 2" in line for line in lines)


def test_select_renders_all_attributes_via_mop(world):
    bus, feed, monitor = world
    feed.publish("news.equity.gmc",
                 story(feed, "Big news", industry_groups=["semis"]))
    bus.settle()
    detail = monitor.select(0)
    assert "<story>" in detail
    assert '"Big news"' in detail
    assert "semis" in detail
    assert "industry_groups" in detail


def test_select_out_of_range(world):
    bus, feed, monitor = world
    with pytest.raises(IndexError):
        monitor.select(0)


def test_properties_associated_with_stories(world):
    """Figure 4's behavior, driven manually (keyword generator has its
    own tests)."""
    bus, feed, monitor = world
    s = story(feed, "GM chips")
    feed.publish("news.equity.gmc", s)
    bus.settle()
    prop = make_property(feed.registry, "keywords",
                         {"semiconductors": ["chip"]}, ref=s.oid)
    feed.publish("news.equity.gmc", prop)
    bus.settle()
    assert monitor.properties_received == 1
    assert monitor.stories_received == 1     # property not shown as story
    detail = monitor.select(0)
    assert "keywords" in detail
    assert monitor.keywords_for(0) == {"semiconductors": ["chip"]}


def test_monitor_handles_unknown_types_via_view(world):
    """A view renders blanks for attributes a type does not declare."""
    bus, feed, monitor = world
    view = View("v", [ViewColumn("headline", 20), ViewColumn("ghost", 5)])
    monitor.view = view
    feed.publish("news.equity.gmc", story(feed, "X"))
    bus.settle()
    row = monitor.headlines()[2]
    assert "X" in row


def test_bounded_story_list(world, monkeypatch):
    bus, feed, monitor = world
    monkeypatch.setattr(news_monitor, "MAX_STORIES", 5)
    for i in range(8):
        feed.publish("news.equity.gmc", story(feed, f"h{i}"))
    bus.settle()
    assert len(monitor.stories) == 5
    assert monitor.stories[0].get("headline") == "h3"


def test_stop_unsubscribes(world):
    bus, feed, monitor = world
    monitor.stop()
    feed.publish("news.equity.gmc", story(feed, "late"))
    bus.settle()
    assert monitor.stories_received == 0


def test_view_of_shorthand_and_list_rendering(world):
    view = View.of("v", ("headline", 10), ("sources", 12))
    bus, feed, monitor = world
    s = story(feed, "A very long headline indeed")
    row = view.row(s)
    assert row.startswith("A very lon")
    assert "Test" in row


# ----------------------------------------------------------------------
# the interactive form
# ----------------------------------------------------------------------

def test_monitor_form_summary_and_selection(world):
    from repro.apps import NewsMonitorForm
    from repro.objects.properties import make_property
    bus, feed, monitor = world
    form = NewsMonitorForm(monitor)
    s = story(feed, "Chips up at fab5", topic="tsm")
    feed.publish("news.equity.tsm", s)
    feed.publish("news.equity.tsm",
                 make_property(feed.registry, "keywords", ["chips"],
                               ref=s.oid))
    bus.settle()
    text = form.render_text()
    assert "Chips up at fab5" in text
    assert "1 stories, 1 properties" in text
    detail = form.select(0)
    assert "<story>" in detail
    assert "keywords" in detail          # attached property displayed
    assert "keywords" in form.form.widget("detail").text


def test_monitor_form_windowed_selection(world):
    from repro.apps import NewsMonitorForm
    bus, feed, monitor = world
    form = NewsMonitorForm(monitor, max_rows=3)
    for i in range(5):
        feed.publish("news.equity.gmc", story(feed, f"h{i}"))
    bus.settle()
    form.refresh()
    assert len(form._summary.rows) == 3          # windowed to the tail
    detail = form.select(0)                      # first visible row = h2
    assert '"h2"' in detail


def test_monitor_form_refresh_button(world):
    from repro.apps import NewsMonitorForm
    bus, feed, monitor = world
    form = NewsMonitorForm(monitor)
    feed.publish("news.equity.gmc", story(feed, "hello"))
    bus.settle()
    form.form.press("refresh")
    assert any("hello" in "".join(r) for r in form._summary.rows)
