"""Tests for hosts, the Ethernet segment, and the cost model."""

import pytest

from repro.sim import (BROADCAST, CostModel, EthernetSegment, Frame,
                       PortInUseError, Simulator)


def make_lan(n=3, cost=None, seed=0):
    sim = Simulator(seed=seed)
    lan = EthernetSegment(sim, cost=cost or CostModel.ideal())
    hosts = [lan.add_host(f"node{i}") for i in range(n)]
    return sim, lan, hosts


def recv_list(host, port):
    """Bind ``port`` and collect delivered frames into the returned list."""
    frames = []
    host.bind(port, frames.append)
    return frames


def test_unicast_frame_reaches_only_destination():
    sim, lan, (a, b, c) = make_lan()
    got_b = recv_list(b, 7)
    got_c = recv_list(c, 7)
    a.send_frame(Frame("node0", "node1", 7, 7, "hello", 10))
    sim.run()
    assert [f.payload for f in got_b] == ["hello"]
    assert got_c == []


def test_broadcast_reaches_all_but_sender():
    sim, lan, hosts = make_lan(5)
    inboxes = [recv_list(h, 9) for h in hosts]
    hosts[0].send_frame(Frame("node0", BROADCAST, 9, 9, "x", 10))
    sim.run()
    assert [len(box) for box in inboxes] == [0, 1, 1, 1, 1]


def test_frame_to_unbound_port_is_dropped():
    sim, lan, (a, b, c) = make_lan()
    a.send_frame(Frame("node0", "node1", 7, 99, "x", 10))
    sim.run()
    assert b.frames_received == 0


def test_port_rebinding_requires_unbind():
    _, _, (a, *_rest) = make_lan()
    a.bind(5, lambda f: None)
    with pytest.raises(PortInUseError):
        a.bind(5, lambda f: None)
    a.unbind(5)
    a.bind(5, lambda f: None)


def test_crashed_host_does_not_receive():
    sim, lan, (a, b, _) = make_lan()
    got = recv_list(b, 7)
    b.crash()
    a.send_frame(Frame("node0", "node1", 7, 7, "x", 10))
    sim.run()
    assert got == []
    assert not b.up


def test_crashed_host_cannot_send():
    _, _, (a, *_rest) = make_lan()
    a.crash()
    with pytest.raises(RuntimeError):
        a.send_frame(Frame("node0", "node1", 7, 7, "x", 10))


def test_recovery_clears_ports_and_fires_listeners():
    sim, lan, (a, b, _) = make_lan()
    events = []
    b.on_crash(lambda: events.append("crash"))
    b.on_recover(lambda: events.append("recover"))
    b.bind(7, lambda f: None)
    b.crash()
    b.recover()
    assert events == ["crash", "recover"]
    b.bind(7, lambda f: None)    # volatile state was lost: 7 is free
    assert b.up


def test_frame_queued_in_cpu_dies_on_crash():
    # Crash after send_frame but before the frame reaches the wire.
    cost = CostModel.ideal()
    cost.cpu_send_per_packet = 1.0   # 1 second of CPU per packet
    sim = Simulator()
    lan = EthernetSegment(sim, cost=cost)
    a, b = lan.add_host("a"), lan.add_host("b")
    got = recv_list(b, 7)
    a.send_frame(Frame("a", "b", 7, 7, "x", 10))
    sim.schedule(0.5, a.crash)
    sim.run()
    assert got == []


def test_epoch_increments_per_crash():
    _, _, (a, *_rest) = make_lan()
    assert a.epoch == 0
    a.crash()
    a.recover()
    a.crash()
    assert a.epoch == 2


def test_wire_serialization_orders_frames():
    """Two back-to-back frames serialize through the shared medium."""
    cost = CostModel.ideal()
    cost.bandwidth_bytes_per_sec = 100.0   # 10-byte frame = ~0.44 s on wire
    cost.frame_overhead = 0
    sim = Simulator()
    lan = EthernetSegment(sim, cost=cost)
    a, b = lan.add_host("a"), lan.add_host("b")
    arrivals = []
    b.bind(7, lambda f: arrivals.append((f.payload, sim.now)))
    a.send_frame(Frame("a", "b", 7, 7, "one", 10))
    a.send_frame(Frame("a", "b", 7, 7, "two", 10))
    sim.run()
    assert [p for p, _ in arrivals] == ["one", "two"]
    t1, t2 = (t for _, t in arrivals)
    assert t2 - t1 >= 10 / 100.0 * 0.99   # second waited for the medium


def test_latency_grows_with_message_size():
    cost = CostModel()   # realistic model
    cost.loss_probability = 0.0
    sim = Simulator()
    lan = EthernetSegment(sim, cost=cost)
    a, b = lan.add_host("a"), lan.add_host("b")
    arrivals = {}
    b.bind(7, lambda f: arrivals.setdefault(f.payload, sim.now))
    a.send_frame(Frame("a", "b", 7, 7, "small", 64))
    sim.run()
    t_small = arrivals["small"]
    a.send_frame(Frame("a", "b", 7, 7, "big", 1400))
    sim.run()
    t_big = arrivals["big"] - t_small
    assert t_big > t_small


def test_loss_probability_drops_frames():
    cost = CostModel.ideal()
    cost.loss_probability = 1.0
    sim = Simulator()
    lan = EthernetSegment(sim, cost=cost)
    a, b = lan.add_host("a"), lan.add_host("b")
    got = recv_list(b, 7)
    a.send_frame(Frame("a", "b", 7, 7, "x", 10))
    sim.run()
    assert got == []
    assert lan.frames_dropped == 1


def test_duplicate_probability_duplicates():
    cost = CostModel.ideal()
    cost.duplicate_probability = 1.0
    sim = Simulator()
    lan = EthernetSegment(sim, cost=cost)
    a, b = lan.add_host("a"), lan.add_host("b")
    got = recv_list(b, 7)
    a.send_frame(Frame("a", "b", 7, 7, "x", 10))
    sim.run()
    assert len(got) == 2


def test_partition_blocks_cross_group_traffic():
    sim, lan, (a, b, c) = make_lan()
    got_b = recv_list(b, 7)
    got_c = recv_list(c, 7)
    lan.partition({"node0", "node1"}, {"node2"})
    a.send_frame(Frame("node0", BROADCAST, 7, 7, "x", 10))
    sim.run()
    assert len(got_b) == 1
    assert got_c == []


def test_heal_restores_connectivity():
    sim, lan, (a, b, c) = make_lan()
    got_c = recv_list(c, 7)
    lan.partition({"node0", "node1"})
    a.send_frame(Frame("node0", "node2", 7, 7, "x", 10))
    sim.run()
    assert got_c == []
    lan.heal()
    a.send_frame(Frame("node0", "node2", 7, 7, "y", 10))
    sim.run()
    assert [f.payload for f in got_c] == ["y"]


def test_partition_implicit_rest_group():
    sim, lan, hosts = make_lan(4)
    lan.partition({"node0"})
    assert lan.partitioned()
    got3 = recv_list(hosts[3], 7)
    # node2 and node3 are both in the implicit rest group
    hosts[2].send_frame(Frame("node2", "node3", 7, 7, "x", 10))
    sim.run()
    assert len(got3) == 1


def test_duplicate_address_rejected():
    sim = Simulator()
    lan = EthernetSegment(sim)
    lan.add_host("a")
    with pytest.raises(ValueError):
        lan.add_host("a")


def test_negative_frame_size_rejected():
    with pytest.raises(ValueError):
        Frame("a", "b", 1, 1, None, -1)


def test_traffic_counters():
    sim, lan, (a, b, _) = make_lan()
    recv_list(b, 7)
    a.send_frame(Frame("node0", "node1", 7, 7, "x", 100))
    sim.run()
    assert a.frames_sent == 1 and a.bytes_sent == 100
    assert b.frames_received == 1 and b.bytes_received == 100
    assert lan.frames_transmitted == 1 and lan.bytes_transmitted == 100


# ----------------------------------------------------------------------
# background traffic
# ----------------------------------------------------------------------

def test_background_traffic_hits_target_load():
    from repro.sim.background import BackgroundTraffic
    sim = Simulator(seed=1)
    lan = EthernetSegment(sim)   # default 10 Mbit/s cost model
    lan.add_host("a")
    bg = BackgroundTraffic(sim, lan, load=0.2)
    sim.run_until(20.0)
    bg.stop()
    offered = bg.bytes_injected / 20.0
    capacity = lan.cost.bandwidth_bytes_per_sec
    assert 0.15 < offered / capacity < 0.25   # ~20% of the wire


def test_background_traffic_delays_foreground_frames():
    from repro.sim.background import BackgroundTraffic
    def one_way_latency(load, seed=2):
        sim = Simulator(seed=seed)
        lan = EthernetSegment(sim)
        a, b = lan.add_host("a"), lan.add_host("b")
        if load:
            BackgroundTraffic(sim, lan, load=load)
        arrivals = []
        b.bind(7, lambda f: arrivals.append(sim.now))
        sends = []
        for i in range(20):
            def send(i=i):
                sends.append(sim.now)
                a.send_frame(Frame("a", "b", 7, 7, i, 1000))
            sim.schedule(1.0 + i * 0.5, send)
        sim.run_until(15.0)
        lat = [r - s for r, s in zip(arrivals, sends)]
        return sum(lat) / len(lat)

    assert one_way_latency(0.6) > one_way_latency(0.0)


def test_background_traffic_rejects_silly_load():
    from repro.sim.background import BackgroundTraffic
    sim = Simulator()
    lan = EthernetSegment(sim)
    with pytest.raises(ValueError):
        BackgroundTraffic(sim, lan, load=0.99)


def test_background_traffic_zero_load_is_inert():
    from repro.sim.background import BackgroundTraffic
    sim = Simulator()
    lan = EthernetSegment(sim)
    bg = BackgroundTraffic(sim, lan, load=0.0)
    sim.run_until(5.0)
    assert bg.frames_injected == 0


def test_faulty_partitioned_segment_matches_the_recorded_run():
    """``EthernetSegment._deliver`` reads the fault rates once per frame,
    keeps its RNG stream, and asks ``_reachable`` only while partitioned;
    per receiver the draws must stay loss -> corrupt -> duplicate ->
    reorder jitter, and ``Host`` must keep drawing CPU jitter per frame.
    One seed with all four rates > 0, a partition, a heal and a
    re-partition, against a recording made before those fast paths
    existed (commit 775305c): what was dropped, corrupted and duplicated,
    and every receiver's arrival times and bytes."""
    import hashlib
    import json

    sim, lan, hosts = make_lan(6, seed=77, cost=CostModel(
        loss_probability=0.15, duplicate_probability=0.2,
        reorder_jitter=0.002))
    lan.corrupt_rate = 0.25
    arrivals = []
    for host in hosts:
        host.bind(7, lambda frame, who=host.address: arrivals.append(
            [who, sim.now, frame.payload.hex()]))
    lan.partition(["node0", "node1", "node2", "node3"])   # rest: node4, 5
    for n in range(60):
        if n == 20:
            sim.schedule(n * 0.001, lan.heal)
        if n == 40:
            sim.schedule(n * 0.001, lan.partition, ["node0", "node5"],
                         ["node1", "node2"])
        src = hosts[0] if n % 3 else hosts[4]
        dst = BROADCAST if n % 5 else f"node{(n // 5) % 6}"
        payload = bytes([n]) * (8 + n % 7)
        sim.schedule(n * 0.001, src.send_frame,
                     Frame(src.address, dst, 7, 7, payload, len(payload)))
    sim.run()

    assert lan.frames_transmitted == 60
    assert lan.frames_dropped == 25
    assert lan.frames_corrupted == 25
    assert len(arrivals) == 144          # duplicates included
    assert arrivals[:3] == [
        ["node2", 0.0020444361744364776, "010101010101010101"],
        ["node2", 0.002310770010183547, "010101010101010101"],
        ["node1", 0.002894262744037341, "010101010101010101"]]
    assert hashlib.sha256(json.dumps(arrivals).encode()).hexdigest() == \
        "3c5e811de00e9254a4c8b3aca05c7621f7ca6ba3369687da03539f1020ea8ef9"
