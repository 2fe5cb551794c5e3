"""Capstone integration: the whole Section 5 world on one bus.

Feeds, vendor adapters, News Monitor, Keyword Generator, Object
Repository (capture + query), factory equipment with a cell controller,
the legacy WIP terminal, a last-value cache, and the bus browser — all
running together, with cross-component invariants checked at the end.
"""

import pytest

from repro.adapters import (COMMAND_SUBJECT, DowJonesAdapter, DowJonesFeed,
                            ReutersAdapter, ReutersFeed, WipAdapter,
                            WipLotRecord, WipTerminal, register_wip_types)
from repro.apps import (BusBrowser, CellController, Equipment,
                        KeywordGenerator, LastValueCache, NewsMonitor)
from repro.core import InformationBus
from repro.core.rmi import RmiClient
from repro.objects import DataObject
from repro.repository import CaptureServer, QueryServer


@pytest.fixture(scope="module")
def world():
    bus = InformationBus(seed=42)   # the realistic cost model, not ideal
    bus.add_hosts(10)

    # trading-floor half
    dj_adapter = DowJonesAdapter(bus.client("node00", "dj"))
    rtr_adapter = ReutersAdapter(bus.client("node01", "rtr"))
    dj_feed = DowJonesFeed(bus.sim, dj_adapter.feed_sink, interval=0.5)
    rtr_feed = ReutersFeed(bus.sim, rtr_adapter.feed_sink, interval=0.7)
    monitor = NewsMonitor(bus.client("node02", "monitor"))
    generator = KeywordGenerator(bus.client("node03", "kwgen"))
    repository = bus.client("node04", "repository")
    capture = CaptureServer(repository, ["news.>", "fab5.alarm.>"])
    QueryServer(repository, capture.store, "svc.repository")

    # factory half
    litho = Equipment(bus.client("node05", "litho8"), "fab5", "litho8",
                      {"thick": (9.0, 0.5, "um")}, interval=0.4)
    controller = CellController(bus.client("node06", "cc"), "fab5",
                                limits={"thick": (8.7, 9.3)})
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT1", "DRAM64", "LITHO", 25,
                                   "QUEUED"))
    WipAdapter(bus.client("node07", "wip"), terminal)

    # infrastructure services
    lvc = LastValueCache(bus.client("node08", "lvc"),
                         ["fab5.cc.>", "news.>"])
    browser = BusBrowser(bus.client("node09", "console"))

    # drive the WIP system over the bus while everything else runs
    commander = bus.client("node06", "commander")
    register_wip_types(commander.registry)
    bus.sim.schedule_at(3.0, lambda: commander.publish(
        COMMAND_SUBJECT, DataObject(commander.registry, "wip_command",
                                    {"verb": "track_in",
                                     "lot_id": "LOT1"})))

    bus.run_for(12.0)
    dj_feed.stop()
    rtr_feed.stop()
    litho.stop()
    bus.settle(5.0)

    return {
        "bus": bus, "dj": dj_adapter, "rtr": rtr_adapter,
        "monitor": monitor, "generator": generator, "capture": capture,
        "controller": controller, "terminal": terminal, "lvc": lvc,
        "browser": browser,
    }


def test_stories_flowed_end_to_end(world):
    published = world["dj"].inbound + world["rtr"].inbound
    assert published > 10
    assert world["monitor"].stories_received == published
    assert world["capture"].store.count("story") == published


def test_keyword_generator_enriched_the_monitor(world):
    assert world["generator"].properties_published > 0
    assert world["monitor"].properties_received == \
        world["generator"].properties_published
    enriched = [i for i in range(len(world["monitor"].stories))
                if world["monitor"].keywords_for(i)]
    assert enriched


def test_factory_monitored_and_alarms_captured(world):
    controller = world["controller"]
    assert controller.readings_seen > 20
    assert controller.reading("litho8", "thick") is not None
    # the noisy station breached its limits at least once ...
    assert controller.alarms_raised > 0
    # ... and every alarm landed in the repository (same capture server
    # as the news — one repository, many subjects)
    assert world["capture"].store.count("equipment_alarm") == \
        controller.alarms_raised


def test_wip_command_executed_against_legacy_system(world):
    assert world["terminal"].commands_processed >= 3
    # the lot was tracked in
    world["terminal"].send("1")
    world["terminal"].send("LOT1")
    assert "STATUS  : PROC" in "\n".join(world["terminal"].screen())


def test_lvc_tracks_everything(world):
    lvc = world["lvc"]
    assert lvc._current("fab5.cc.litho8.thick") is not None
    assert len(lvc) > 2     # sensor subject + several news subjects


def test_browser_sees_services_and_traffic(world):
    browser = world["browser"]
    subjects = {e.service_subject for e in browser.live_services()}
    assert "svc.repository" in subjects
    assert "svc.keywords" in subjects
    assert "svc.lvc" in subjects
    assert sum(s.messages for s in browser.subjects.values()) > 50
    top = {s.subject for s in browser.top_subjects(20)}
    assert any(s.startswith("news.") for s in top)
    assert any(s.startswith("fab5.cc.") for s in top)


def test_repository_queryable_over_rmi(world):
    bus = world["bus"]
    rmi = RmiClient(bus.client("node02", "analyst"), "svc.repository")
    out = {}
    rmi.call("tally", {"type_name": "story"},
             lambda v, e: out.update(tally=(v, e)))
    bus.run_for(3.0)
    value, error = out["tally"]
    assert error is None
    assert value == world["monitor"].stories_received


def test_no_reliable_layer_losses(world):
    """On a healthy (if realistic) network, nothing was lost anywhere."""
    bus = world["bus"]
    for address, daemon in bus.daemons.items():
        for session, peer in daemon.peers.items():
            stats = peer.stats
            assert stats.gaps_skipped.value == 0, (address, session)
            assert stats.messages_lost.value == 0, (address, session)
