"""Ablation: router-bridged WAN vs. everything on one bus.

Section 3.1: wide-area topologies use information routers instead of one
giant broadcast domain; "messages are only re-published on buses for
which there exists a subscription on that subject."  This ablation shows
(a) the WAN hop's latency cost for cross-site traffic and (b) the
isolation win: local-only traffic never crosses the link.
"""

from repro.bench import Report, payload_of_size, summarize
from repro.core import BusConfig, InformationBus
from repro.core.router import Router, WanLink
from repro.sim import Simulator

SIZE = 256
SAMPLES = 30


def build_bridged():
    sim = Simulator(seed=13)
    config = BusConfig()
    config.advert_interval = 0.5
    east = InformationBus(name="east", sim=sim, config=config)
    west = InformationBus(name="west", sim=sim, config=config)
    east.add_hosts(8, prefix="e")
    west.add_hosts(8, prefix="w")
    router = Router(link=WanLink(latency=0.03))
    router.add_leg(east)
    router.add_leg(west)
    return sim, east, west, router


def run_ablation():
    sim, east, west, router = build_bridged()
    payload = payload_of_size(SIZE)

    local_latencies, remote_latencies, isolated = [], [], []
    east.client("e01", "local-mon").subscribe(
        "lan.data", lambda s, o, i: local_latencies.append(i.latency))
    west.client("w01", "wan-mon").subscribe(
        "wan.data", lambda s, o, i: remote_latencies.append(sim.now))
    east.client("e02", "noise-mon").subscribe(
        "noise.data", lambda s, o, i: isolated.append(s))
    sim.run_until(2.0)   # adverts propagate, forwarding subs installed

    publisher = east.client("e00", "publisher")
    send_times = []
    for i in range(SAMPLES):
        at = 2.0 + i * 0.2

        def send(at=at):
            send_times.append(sim.now)
            publisher.publish_bytes("lan.data", payload)
            publisher.publish_bytes("wan.data", payload)
            publisher.publish_bytes("noise.data", payload)

        sim.schedule_at(at, send)
    sim.run_until(2.0 + SAMPLES * 0.2 + 5.0)

    remote = [recv - sent
              for recv, sent in zip(remote_latencies, send_times)]
    east_leg = router.legs["east:router-east"]
    return {
        "local": summarize(local_latencies),
        "remote": summarize(remote),
        "noise_forwarded": sum(
            1 for r in east_leg.host.stable.read_log("router.log")),
        "forwarded": east_leg.messages_forwarded,
        "isolated_delivered": len(isolated),
    }


def test_router_isolates_and_costs_latency(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    local, remote = results["local"], results["remote"]

    report = Report("ablation_router")
    report.table(
        f"Router-bridged WAN ({SIZE}-byte messages, 30ms link)",
        ["path", "mean latency (ms)", "n"],
        [["intra-bus", local.mean * 1000, local.n],
         ["cross-bus (via router)", remote.mean * 1000, remote.n]])
    report.note(f"messages forwarded across the WAN: "
                f"{results['forwarded']} (subscribed traffic only; "
                f"local-only 'noise' subject never crossed)")
    report.emit()

    assert local.n == SAMPLES and remote.n == SAMPLES
    # the WAN hop adds at least the link latency
    assert remote.mean > local.mean + 0.03
    # isolation: only the subject with a remote subscription crossed
    assert results["forwarded"] == SAMPLES
    assert results["isolated_delivered"] == SAMPLES   # delivered locally
