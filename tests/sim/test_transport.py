"""Tests for the datagram and stream transports."""

import pytest

from repro.core.metrics import MetricsRegistry
from repro.sim import CostModel, DatagramSocket, EthernetSegment, Simulator, StreamManager


def make_lan(n=2, cost=None, seed=0):
    sim = Simulator(seed=seed)
    lan = EthernetSegment(sim, cost=cost or CostModel.ideal())
    hosts = [lan.add_host(f"node{i}") for i in range(n)]
    return sim, lan, hosts


# ----------------------------------------------------------------------
# datagrams
# ----------------------------------------------------------------------

def test_datagram_roundtrip():
    sim, lan, (a, b) = make_lan()
    got = []
    DatagramSocket(sim, b, 40, lambda p, s, src: got.append((p, s, src)))
    sa = DatagramSocket(sim, a, 41, lambda *x: None)
    sa.sendto(b"p" * 20, "node1", 40)
    sim.run()
    assert got == [(b"p" * 20, 20, ("node0", 41))]


def test_datagram_rejects_non_bytes():
    sim, lan, (a, b) = make_lan()
    sa = DatagramSocket(sim, a, 41, lambda *x: None)
    with pytest.raises(TypeError):
        sa.sendto("a string, not bytes", "node1", 40)


def test_datagram_broadcast():
    sim, lan, hosts = make_lan(4)
    counts = []
    for h in hosts:
        box = []
        DatagramSocket(sim, h, 40, lambda p, s, src, box=box: box.append(p))
        counts.append(box)
    sender = DatagramSocket(sim, hosts[0], 41, lambda *x: None)
    sender.broadcast(b"hello world", 40)
    sim.run()
    assert [len(box) for box in counts] == [0, 1, 1, 1]


def test_large_datagram_fragments_and_reassembles():
    cost = CostModel.ideal()
    cost.mtu = 100
    sim, lan, (a, b) = make_lan(cost=cost)
    got = []
    DatagramSocket(sim, b, 40, lambda p, s, src: got.append((p, s)))
    sa = DatagramSocket(sim, a, 41, lambda *x: None)
    data = bytes(range(256)) * 3 + b"tail" * 45 + b"xx"   # 950 bytes
    assert len(data) == 950
    sa.sendto(data, "node1", 40)
    sim.run()
    # reassembly joins the sliced fragments back into the same buffer
    assert got == [(data, 950)]
    # 950 bytes over a 100-byte MTU = 10 frames on the wire
    assert lan.frames_transmitted == 10


def test_lost_fragment_loses_whole_datagram():
    cost = CostModel.ideal()
    cost.mtu = 100
    cost.loss_probability = 0.5
    sim, lan, (a, b) = make_lan(cost=cost, seed=7)
    got = []
    DatagramSocket(sim, b, 40, lambda p, s, src: got.append(p))
    sa = DatagramSocket(sim, a, 41, lambda *x: None)
    sa.sendto(b"b" * 1000, "node1", 40)
    sim.run()
    assert got == []   # with p=0.5 per frame, all 10 surviving is ~0.1%


def test_datagram_counters():
    sim, lan, (a, b) = make_lan()
    metrics = MetricsRegistry()
    DatagramSocket(sim, b, 40, lambda *x: None, metrics=metrics,
                   metrics_name="b")
    sa = DatagramSocket(sim, a, 41, lambda *x: None, metrics=metrics,
                        metrics_name="a")
    sa.sendto(b"one" * 3, "node1", 40)
    sa.sendto(b"two" * 3, "node1", 40)
    sim.run()
    snapshot = metrics.snapshot()
    assert snapshot["a.datagrams_sent"]["value"] == 2
    assert snapshot["b.datagrams_received"]["value"] == 2


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------

def connected_pair(cost=None, seed=0):
    sim, lan, (a, b) = make_lan(cost=cost, seed=seed)
    server = StreamManager(sim, b, 50)
    accepted = []
    server.listen(accepted.append)
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    return sim, lan, (a, b), (client, server), conn, accepted


def test_stream_connect_and_send():
    sim, lan, hosts, mgrs, conn, accepted = connected_pair()
    got = []

    def on_accept(server_conn):
        server_conn.on_message = lambda m, s: got.append(m)

    mgrs[1].listen(on_accept)   # replace collector with real handler
    conn2 = mgrs[0].connect("node1", 50)
    conn2.send(b"hello")
    conn2.send(b"world")
    sim.run()
    assert got == [b"hello", b"world"]


def test_stream_in_order_delivery_under_loss():
    cost = CostModel.ideal()
    cost.loss_probability = 0.2
    sim, lan, (a, b) = make_lan(cost=cost, seed=3)
    server = StreamManager(sim, b, 50)
    got = []

    def on_accept(c):
        c.on_message = lambda m, s: got.append(m)

    server.listen(on_accept)
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    msgs = [f"m{i:02d}".encode() for i in range(40)]
    for m in msgs:
        conn.send(m)
    sim.run()
    assert got == msgs   # exactly once, in order, despite 20% frame loss


def test_stream_established_callback():
    sim, lan, (a, b) = make_lan()
    server = StreamManager(sim, b, 50)
    server.listen(lambda c: None)
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    flags = []
    conn.on_established = lambda: flags.append(True)
    sim.run()
    assert flags == [True]
    assert conn.established


def test_connect_to_dead_host_times_out():
    sim, lan, (a, b) = make_lan()
    b.crash()
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    errors = []
    conn.on_close = errors.append
    sim.run()
    assert errors == ["connect timed out"]
    assert conn.closed


def test_connect_to_non_listening_port_times_out():
    sim, lan, (a, b) = make_lan()
    StreamManager(sim, b, 50)   # bound but not listening
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    errors = []
    conn.on_close = errors.append
    sim.run()
    assert errors == ["connect timed out"]


def test_peer_crash_detected_by_retransmit_exhaustion():
    sim, lan, (a, b) = make_lan()
    server = StreamManager(sim, b, 50)
    server.listen(lambda c: None)
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    errors = []
    conn.on_close = errors.append
    sim.schedule(0.5, b.crash)
    sim.schedule(1.0, conn.send, b"lost")
    sim.run()
    assert errors == ["peer unreachable"]


def test_send_on_closed_connection_raises():
    sim, lan, (a, b) = make_lan()
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    conn.close()
    with pytest.raises(RuntimeError):
        conn.send(b"x")


def test_fin_closes_peer():
    sim, lan, (a, b) = make_lan()
    server = StreamManager(sim, b, 50)
    server_conns = []
    server.listen(lambda c: server_conns.append(c))
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    conn.on_established = lambda: conn.close()
    sim.run()
    assert server_conns[0].closed


def test_stream_window_respects_backpressure():
    """More queued messages than the window still all arrive, in order."""
    sim, lan, (a, b) = make_lan()
    server = StreamManager(sim, b, 50)
    got = []
    server.listen(lambda c: setattr(c, "on_message",
                                    lambda m, s: got.append(m)))
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    n = conn.WINDOW * 4
    for i in range(n):
        conn.send(f"{i:03d}".encode())
    sim.run()
    assert got == [f"{i:03d}".encode() for i in range(n)]
