"""The browser as a telemetry console: ``_bus.stat.*`` consumption.

Satellite coverage for the telemetry plane: a late-joining browser sees
current gauges on the next snapshot, and sources whose publisher goes
away age out of :meth:`telemetry`.
"""

from repro.apps import BusBrowser
from repro.core import BusConfig, InformationBus
from repro.sim import CostModel


def stat_config(interval=0.1):
    return BusConfig(stat_interval=interval, advert_interval=0.5)


def test_late_joining_browser_sees_current_gauges():
    bus = InformationBus(seed=2, cost=CostModel.ideal(),
                         config=stat_config())
    bus.add_hosts(2)
    pub = bus.client("node00", "pub")
    sub = bus.client("node01", "sub")
    sub.subscribe("feed.>", lambda *a: None)
    for n in range(25):
        pub.publish("feed.x", {"n": n})
    bus.run_for(1.0)
    # the browser attaches long after the traffic happened...
    browser = BusBrowser(bus.client("node01", "browser"))
    assert browser.telemetry() == []
    bus.run_for(0.5)
    # ...and the very next snapshots carry the daemons' current state
    sources = {t.source for t in browser.telemetry()}
    assert sources == {"node00.daemon", "node01.daemon"}
    node00 = browser.stats["node00.daemon"].metrics
    assert node00["daemon.node00.published"]["value"] == 25
    assert node00["daemon.node00.clients"]["value"] == 1
    top = browser.bus_top()
    assert top["hosts"] == 2
    # >= : node01's subscription adverts are published messages too
    assert top["published"] >= 25
    assert top["delivered"] >= 25
    assert "telemetry" in browser.report()


def test_sources_age_out_when_their_publisher_dies():
    bus = InformationBus(seed=4, cost=CostModel.ideal(),
                         config=stat_config(interval=0.1))
    bus.add_hosts(2)
    browser = BusBrowser(bus.client("node01", "browser"))
    bus.run_for(1.0)
    assert {t.source for t in browser.telemetry()} == {
        "node00.daemon", "node01.daemon"}
    bus.crash_host("node00")
    # within ~3 publisher periods the dead source goes stale
    bus.run_for(1.0)
    assert {t.source for t in browser.telemetry()} == {"node01.daemon"}
    # the stale entry is retained (history), just no longer "live"
    assert "node00.daemon" in browser.stats
    bus.recover_host("node00")
    bus.run_for(1.0)
    assert {t.source for t in browser.telemetry()} == {
        "node00.daemon", "node01.daemon"}
