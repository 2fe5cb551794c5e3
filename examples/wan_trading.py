#!/usr/bin/env python3
"""Two trading floors, one logical bus — information routers at work.

Section 3.1: "wide area networks require additional communication
tools ... [routers] create the illusion of a single, large bus that is
capable of publishing over any network."

New York and London each run their own Ethernet bus.  A router bridges
them over a 35 ms transatlantic link:

* London subscribes to New York equity news — and only that category
  crosses the ocean ("messages are only re-published on buses for which
  there exists a subscription on that subject");
* the London leg rewrites subjects on egress (``ny.news.equity.gmc``),
  the router-as-adapter trick the paper mentions ("transforming
  subjects");
* the router logs forwarded traffic to non-volatile storage, its other
  advertised duty.

Run:  python examples/wan_trading.py
"""

from repro import InformationBus, Simulator
from repro.adapters import DowJonesAdapter, DowJonesFeed
from repro.apps import NewsMonitor
from repro.core import BusConfig
from repro.core.router import Router, WanLink


def main() -> None:
    sim = Simulator(seed=11)
    config = BusConfig()
    config.advert_interval = 0.5     # routers learn subscriptions quickly

    newyork = InformationBus(name="newyork", sim=sim, config=config)
    london = InformationBus(name="london", sim=sim, config=config)
    newyork.add_hosts(4, prefix="ny")
    london.add_hosts(4, prefix="ldn")

    router = Router(link=WanLink(latency=0.035,
                                 bandwidth_bytes_per_sec=256_000))
    ny_leg = router.add_leg(newyork, log_traffic=True)
    router.add_leg(london, transform=lambda s: f"ny.{s}")

    # ------------------------------------------------------------------
    # New York: a feed and a local monitor
    # ------------------------------------------------------------------
    adapter = DowJonesAdapter(newyork.client("ny00", "dj_adapter"))
    feed = DowJonesFeed(sim, adapter.feed_sink, interval=0.4)
    ny_monitor = NewsMonitor(newyork.client("ny01", "monitor"),
                             subjects=["news.>"])

    # ------------------------------------------------------------------
    # London: subscribes to NY equity news only (post-transform subjects)
    # ------------------------------------------------------------------
    ldn_monitor = NewsMonitor(london.client("ldn01", "monitor"),
                              subjects=["ny.news.equity.>"])
    # the London side's *interest* must reach the NY leg untransformed;
    # declare it on the router (egress transform, ingress interest):
    ny_leg.remote_wants("london:router-london", "add", ["news.equity.>"])

    # end-to-end latency: compare when the same story (by oid) arrives
    # in New York vs London (the republished envelope is a new bus
    # message, so its own timestamps are London-local)
    ny_arrivals, ldn_arrivals = {}, {}
    newyork.client("ny02", "probe").subscribe(
        "news.equity.>",
        lambda s, o, i: ny_arrivals.setdefault(o.oid, sim.now))
    london.client("ldn02", "probe").subscribe(
        "ny.news.equity.>",
        lambda s, o, i: ldn_arrivals.setdefault(o.oid, sim.now))

    sim.run_until(10.0)
    feed.stop()
    sim.run_until(14.0)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    equity_local = sum(
        1 for s in ny_monitor.stories if s.get("category") == "equity")
    print("== WAN trading floors ==")
    print(f"  NY stories published        : {adapter.inbound}")
    print(f"  NY monitor received         : {ny_monitor.stories_received}")
    print(f"  NY equity stories           : {equity_local}")
    print(f"  London received (equity only): "
          f"{ldn_monitor.stories_received}")
    print(f"  forwarded across the WAN    : {ny_leg.messages_forwarded}")
    wal = ny_leg.host.stable.read_log("router.log")
    print(f"  router traffic log entries  : {len(wal)}")
    hops = [ldn_arrivals[oid] - ny_arrivals[oid]
            for oid in ldn_arrivals if oid in ny_arrivals]
    sample = min(hops)
    print(f"  best NY->London extra delay : {sample * 1000:.1f} ms "
          f"(link adds 35 ms)")

    print("\n  a London headline row:",
          ldn_monitor.headlines()[2].strip())

    assert ldn_monitor.stories_received == equity_local
    assert ny_leg.messages_forwarded == equity_local
    assert len(wal) == equity_local
    assert sample >= 0.034   # at least the WAN link latency
    # non-equity categories never crossed
    assert all(s.get("category") == "equity"
               for s in ldn_monitor.stories)
    print("\nwan trading OK")


if __name__ == "__main__":
    main()
