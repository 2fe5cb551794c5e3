"""End-to-end corruption faults: the checksum drops bad frames, the
reliable protocol repairs them.

With ``corrupt_rate > 0`` on the Ethernet segment, some receivers get a
copy of a broadcast with one bit flipped.  The wire frame's CRC rejects
the datagram at the socket boundary — indistinguishable from loss — and
the NACK/heartbeat machinery must recover every message with no
duplicates and no reordering.
"""

import pytest

from repro.core import InformationBus, QoS
from repro.core.rmi import RmiClient, RmiServer
from repro.core import wire
from repro.sim import CostModel
from tests.core.test_rmi import make_service, quote_registry


@pytest.fixture(autouse=True)
def reset_decode_memo():
    """Per-test decode-memo stats (the memo is module-global)."""
    wire.configure_decode_memo()
    yield
    wire.configure_decode_memo()


def make_bus(corrupt_rate, hosts=4, seed=11):
    bus = InformationBus(seed=seed, cost=CostModel.ideal())
    bus.add_hosts(hosts)
    bus.lan.corrupt_rate = corrupt_rate
    return bus


def test_corrupted_frames_are_dropped_and_counted():
    bus = make_bus(corrupt_rate=0.2)
    got = []
    consumer = bus.client("node01", "mon")
    consumer.subscribe("t.>", lambda s, p, i: got.append(p))
    publisher = bus.client("node00", "pub")
    for i in range(50):
        publisher.publish(f"t.{i}", {"n": i})
    bus.run_for(30.0)
    # corruption actually happened on the wire...
    assert bus.lan.frames_corrupted > 0
    # ...and at least one daemon rejected a frame on its checksum
    assert sum(d.corrupt_dropped for d in bus.daemons.values()) > 0


def test_reliable_delivery_survives_corruption():
    """Every message arrives exactly once, in order, per subscriber."""
    bus = make_bus(corrupt_rate=0.15, hosts=5)
    inboxes = {}
    for i in range(1, 5):
        box = []
        inboxes[f"node{i:02d}"] = box
        bus.client(f"node{i:02d}", "mon").subscribe(
            "feed.>", lambda s, p, i, box=box: box.append(p["n"]))
    publisher = bus.client("node00", "pub")
    for n in range(80):
        publisher.publish("feed.tick", {"n": n})
    bus.run_for(60.0)
    assert bus.lan.frames_corrupted > 0   # the fault was exercised
    expected = list(range(80))
    for address, box in inboxes.items():
        # no duplicates, no reordering, no gaps
        assert box == expected, f"{address} saw {len(box)} messages"


def test_repair_uses_retransmission():
    """Dropped-by-checksum frames come back via the NACK machinery."""
    bus = make_bus(corrupt_rate=0.25, seed=3)
    got = []
    bus.client("node01", "mon").subscribe(
        "x.y", lambda s, p, i: got.append((p["n"], i.retransmitted)))
    publisher = bus.client("node00", "pub")
    for n in range(60):
        publisher.publish("x.y", {"n": n})
    bus.run_for(60.0)
    assert [n for n, _ in got] == list(range(60))
    # with a quarter of frames corrupted, some deliveries must have been
    # repaired rather than heard first time
    assert any(retrans for _, retrans in got)
    assert sum(d.corrupt_dropped for d in bus.daemons.values()) > 0


def test_guaranteed_delivery_survives_corruption():
    bus = make_bus(corrupt_rate=0.15, seed=7)
    got = []
    consumer = bus.client("node02", "ledger")
    consumer.subscribe("g.>", lambda s, p, i: got.append(p["n"]),
                       durable=True)
    publisher = bus.client("node00", "pub")
    for n in range(20):
        publisher.publish("g.event", {"n": n}, qos=QoS.GUARANTEED)
    bus.run_for(60.0)
    assert sorted(got) == list(range(20))
    assert len(got) == len(set(got))   # exactly once
    assert bus.daemons["node00"].guaranteed_pending() == []


def test_rmi_calls_survive_corrupted_stream_segments():
    """RMI rides a point-to-point stream: a bit-flipped segment fails
    its CRC, is counted in the stream manager's ``corrupt_dropped`` like
    loss, and the stream's retransmission repairs it, so every call
    completes once and executes once.  Discovery and connect run on a
    clean wire first: what is under test is the stream."""
    bus = make_bus(corrupt_rate=0.0, hosts=3, seed=1)
    server = RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
                       make_service(quote_registry()))
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    results = []
    rmi.call("symbols", {}, lambda value, error: results.append(error))
    bus.run_for(1.0)
    assert results == [None]
    bus.lan.corrupt_rate = 0.3
    for _ in range(5):
        rmi.call("last", {"symbol": "GM"},
                 lambda value, error: results.append(
                     error or value.get("price")))
    bus.run_for(30.0)
    assert results == [None] + [41.5] * 5
    assert server.calls_served == 6
    assert server._streams.corrupt_dropped > 0
    assert rmi._streams.corrupt_dropped > 0


def test_decode_memo_never_masks_corruption():
    """The broadcast decode memo serves repeat frames from cache, yet a
    receiver whose copy arrived bit-flipped is still rejected: corrupt
    copies hash to different bytes, so they can never hit the memo."""
    bus = make_bus(corrupt_rate=0.2, hosts=5)
    inboxes = {}
    for i in range(1, 5):
        box = []
        inboxes[f"node{i:02d}"] = box
        bus.client(f"node{i:02d}", "mon").subscribe(
            "feed.>", lambda s, p, i, box=box: box.append(p["n"]))
    publisher = bus.client("node00", "pub")
    for n in range(60):
        publisher.publish("feed.tick", {"n": n})
    bus.run_for(60.0)
    stats = wire.decode_memo_stats()
    # the cache did real work (clean copies shared parses)...
    assert stats["hits"] > 0
    # ...while corruption was happening on the same frames...
    assert bus.lan.frames_corrupted > 0
    assert sum(d.corrupt_dropped for d in bus.daemons.values()) > 0
    # ...and delivery is still exactly-once in order everywhere
    for address, box in inboxes.items():
        assert box == list(range(60)), f"{address} saw {len(box)} messages"


def test_midstream_subscribe_unsubscribe_takes_effect_immediately():
    """Subscription changes are visible on the very next delivery — the
    daemon and client match memos must not serve stale results."""
    bus = make_bus(corrupt_rate=0.0, hosts=3)
    late = []
    steady = bus.client("node01", "steady")
    steady_box = []
    steady.subscribe("feed.>", lambda s, p, i: steady_box.append(p["n"]))

    joiner = bus.client("node02", "joiner")
    state = {}

    def join():
        state["sub"] = joiner.subscribe(
            "feed.>", lambda s, p, i: late.append(p["n"]))

    def leave():
        joiner.unsubscribe(state["sub"])

    publisher = bus.client("node00", "pub")
    # 30 messages over 3 simulated seconds; join at 1.0s, leave at 2.0s
    for n in range(30):
        bus.sim.schedule(0.05 + n * 0.1, publisher.publish,
                         "feed.tick", {"n": n})
    bus.sim.schedule(1.0, join)
    bus.sim.schedule(2.0, leave)
    bus.run_for(10.0)

    assert steady_box == list(range(30))      # unaffected bystander
    assert late, "mid-stream subscriber heard nothing"
    # the joiner saw exactly the contiguous window [join, leave) —
    # no messages from before it joined, none after it left
    assert late == list(range(late[0], late[-1] + 1))
    assert late[0] >= 10 and late[-1] < 20


def test_zero_corrupt_rate_flips_nothing():
    bus = make_bus(corrupt_rate=0.0)
    got = []
    bus.client("node01", "mon").subscribe("a.b",
                                          lambda s, p, i: got.append(p))
    bus.client("node00", "pub").publish("a.b", {"ok": True})
    bus.run_for(5.0)
    assert got == [{"ok": True}]
    assert bus.lan.frames_corrupted == 0
    assert sum(d.corrupt_dropped for d in bus.daemons.values()) == 0
