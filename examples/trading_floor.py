#!/usr/bin/env python3
"""The brokerage trading floor — Figures 3 and 4 of the paper, end to end.

Cast, exactly as in Section 5:

* two raw news feeds (Dow Jones and Reuters wire formats);
* two news adapters parsing them into vendor-specific subtypes of a
  common Story supertype, published under ``news.<category>.<topic>``;
* the News Monitor showing a headline summary list and full stories;
* the Object Repository capturing every story into relational tables,
  replicated on two hosts: both replicas capture, and the backup answers
  queries once the primary fails ("several server objects can be used
  to provide ... fault-tolerance", Section 3.3);
* and then — with everything running — the Keyword Generator is brought
  on-line (Figure 4): the monitor immediately starts receiving Property
  objects on the same subjects, with zero reconfiguration anywhere.

Run:  python examples/trading_floor.py
"""

from repro import InformationBus
from repro.adapters import (DowJonesAdapter, DowJonesFeed, ReutersAdapter,
                            ReutersFeed)
from repro.apps import KeywordGenerator, NewsMonitor
from repro.core.rmi import RmiClient
from repro.repository import CaptureServer, QueryServer


def main() -> None:
    bus = InformationBus(seed=7)
    bus.add_hosts(8)

    # ------------------------------------------------------------------
    # feeds and adapters (Figure 3, left side)
    # ------------------------------------------------------------------
    dj_adapter = DowJonesAdapter(bus.client("node00", "dj_adapter"))
    rtr_adapter = ReutersAdapter(bus.client("node01", "rtr_adapter"))
    dj_feed = DowJonesFeed(bus.sim, dj_adapter.feed_sink, interval=0.6)
    rtr_feed = ReutersFeed(bus.sim, rtr_adapter.feed_sink, interval=0.8)

    # ------------------------------------------------------------------
    # consumers (Figure 3, right side)
    # ------------------------------------------------------------------
    monitor = NewsMonitor(bus.client("node02", "news_monitor"))
    # two replicas in an exclusive group: only the leader (rank 0 while
    # it lives) answers discovery
    replicas = []
    for rank, host in enumerate(("node03", "node07")):
        repository = bus.client(host, "repository")
        replicas.append(CaptureServer(repository, ["news.>"]))
        QueryServer(repository, replicas[-1].store, "svc.repository",
                    rank=rank, exclusive=True)
    capture = replicas[0]

    print("== phase 1: feeds flowing, monitor + repository consuming ==")
    bus.run_for(6.0)
    bus.settle()
    print(f"  stories published: DJ={dj_adapter.inbound} "
          f"RTR={rtr_adapter.inbound}")
    print(f"  monitor received : {monitor.stories_received}")
    print(f"  repository stored: {capture.store.count('story')}")
    print("\n  headline summary list (first 6 rows):")
    for line in monitor.headlines()[:8]:
        print("   ", line)

    # the repository decomposed highly structured objects into relations
    print("\n  repository tables:",
          ", ".join(t for t in capture.store.db.tables() if "story" in t))

    # ------------------------------------------------------------------
    # Figure 4: add the Keyword Generator to the live system
    # ------------------------------------------------------------------
    print("\n== phase 2: Keyword Generator comes on-line (Figure 4) ==")
    generator = KeywordGenerator(bus.client("node04", "keyword_generator"))
    before = monitor.properties_received
    bus.run_for(6.0)
    dj_feed.stop()
    rtr_feed.stop()
    bus.settle()
    print(f"  properties published by generator: "
          f"{generator.properties_published}")
    print(f"  properties received by monitor   : "
          f"{monitor.properties_received - before}")

    # find a story that got keywords and display it the monitor's way
    enriched = next(i for i in range(len(monitor.stories))
                    if monitor.keywords_for(i))
    print(f"\n  selected story {enriched} (full display via metadata, "
          f"properties attached):")
    for line in monitor.select(enriched).splitlines():
        print("   ", line)

    # ------------------------------------------------------------------
    # the generator's interactive interface — a brand-new service type,
    # discovered and driven with no compiled stubs anywhere
    # ------------------------------------------------------------------
    print("\n== phase 3: browsing the new service's interface ==")
    rmi = RmiClient(bus.client("node05", "browser"), "svc.keywords")
    out = {}
    rmi.call("categories", {}, lambda v, e: out.update(categories=v))
    bus.run_for(2.0)
    print(f"  categories: {out['categories']}")
    rmi.call("keywords_in", {"category": out["categories"][0]},
             lambda v, e: out.update(keywords=v))
    bus.run_for(2.0)
    print(f"  keywords in {out['categories'][0]!r}: {out['keywords']}")
    operations = sorted(o["name"] for o in rmi.server_interface["operations"])
    print(f"  operations (from interface metadata): {operations}")

    # ------------------------------------------------------------------
    # an analyst queries the repository over RMI
    # ------------------------------------------------------------------
    print("\n== phase 4: querying the Object Repository ==")
    analyst = RmiClient(bus.client("node06", "analyst"), "svc.repository")
    analyst.call("tally", {"type_name": "story"},
                 lambda v, e: out.update(tally=v))
    bus.run_for(2.0)
    print(f"  stories stored (incl. both vendor subtypes): {out['tally']}")
    analyst.call("find_all", {"type_name": "reuters_story"},
                 lambda v, e: out.update(reuters=v))
    bus.run_for(2.0)
    print(f"  reuters_story instances: {len(out['reuters'])}")
    assert out["tally"] >= len(out["reuters"]) > 0

    # ------------------------------------------------------------------
    # the primary repository fails; the backup already holds every story
    # ------------------------------------------------------------------
    print("\n== phase 5: the primary repository host fails ==")
    bus.crash_host("node03")
    bus.run_for(2.0)    # its presence lapses; the backup leads
    analyst = RmiClient(bus.client("node06", "analyst2"), "svc.repository")
    analyst.call("tally", {"type_name": "story"},
                 lambda v, e: out.update(failover=v))
    bus.run_for(2.0)
    print(f"  stories stored, answered by the backup: {out['failover']}")
    assert out["failover"] == out["tally"]

    print("\ntrading floor OK")


if __name__ == "__main__":
    main()
