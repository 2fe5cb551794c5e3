"""Edge-case tests for the transports: fragmentation boundaries,
reassembly hygiene, stream teardown mid-transfer."""

import pytest

from repro.sim import (CostModel, DatagramSocket, EthernetSegment,
                       Simulator, StreamManager)
from repro.sim.framing import CorruptFrame, frame, unframe
from repro.sim.transport import (FRAGMENT_HEADER, _DATA, _StreamSeg,
                                 _decode_seg, _encode_seg)


def make_lan(cost=None, seed=0, n=2):
    sim = Simulator(seed=seed)
    lan = EthernetSegment(sim, cost=cost or CostModel.ideal())
    hosts = [lan.add_host(f"node{i}") for i in range(n)]
    return sim, lan, hosts


def test_datagram_exactly_at_mtu_is_single_frame():
    cost = CostModel.ideal()
    cost.mtu = 100
    sim, lan, (a, b) = make_lan(cost)
    got = []
    DatagramSocket(sim, b, 40, lambda p, s, src: got.append(s))
    sender = DatagramSocket(sim, a, 41, lambda *x: None)
    sender.sendto(b"x" * 100, "node1", 40)
    sim.run()
    assert got == [100]
    assert lan.frames_transmitted == 1


def test_datagram_one_byte_over_mtu_fragments():
    cost = CostModel.ideal()
    cost.mtu = 100
    sim, lan, (a, b) = make_lan(cost)
    got = []
    DatagramSocket(sim, b, 40, lambda p, s, src: got.append(s))
    sender = DatagramSocket(sim, a, 41, lambda *x: None)
    sender.sendto(b"x" * 101, "node1", 40)
    sim.run()
    assert got == [101]
    assert lan.frames_transmitted == 2
    # each fragment pays the fragmentation header on the wire
    assert lan.bytes_transmitted == 101 + 2 * FRAGMENT_HEADER


def test_fragments_carry_slices_not_copies():
    """Each fragment frame carries only its slice of the buffer."""
    cost = CostModel.ideal()
    cost.mtu = 100
    sim, lan, (a, b) = make_lan(cost)
    slices = []
    b.bind(40, lambda frame: slices.append(frame.payload.payload))
    sender = DatagramSocket(sim, a, 41, lambda *x: None)
    data = bytes(i % 256 for i in range(250))
    sender.sendto(data, "node1", 40)
    sim.run()
    assert [len(s) for s in slices] == [100, 100, 50]
    assert b"".join(slices) == data


def test_interleaved_fragmented_datagrams_reassemble():
    cost = CostModel.ideal()
    cost.mtu = 50
    cost.reorder_jitter = 0.002
    sim, lan, (a, b) = make_lan(cost, seed=3)
    got = []
    DatagramSocket(sim, b, 40, lambda p, s, src: got.append((p, s)))
    sender = DatagramSocket(sim, a, 41, lambda *x: None)
    sender.sendto(b"f" * 170, "node1", 40)
    sender.sendto(b"s" * 230, "node1", 40)
    sim.run()
    assert sorted(got) == [(b"f" * 170, 170), (b"s" * 230, 230)]


def test_reassembly_buffer_purges_stale_fragments():
    cost = CostModel.ideal()
    cost.mtu = 50
    sim, lan, (a, b) = make_lan(cost, seed=4)
    receiver = DatagramSocket(sim, b, 40, lambda *x: None)
    sender = DatagramSocket(sim, a, 41, lambda *x: None)
    # fire many large datagrams through a fully lossy net: fragments that
    # do arrive strand in the reassembly buffer
    cost.loss_probability = 0.5
    for i in range(600):
        sender.sendto(bytes([i % 256]) * 120, "node1", 40)
    sim.run_until(10.0)
    # the purge path keeps the buffer bounded (256 + recent additions)
    assert len(receiver._reassembly) <= 300


def test_stream_close_midstream_drops_queue():
    sim, lan, (a, b) = make_lan()
    server = StreamManager(sim, b, 50)
    got = []
    server.listen(lambda c: setattr(c, "on_message",
                                    lambda m, s: got.append(m)))
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    for i in range(5):
        conn.send(f"{i}".encode())
    sim.run_until(0.001)       # a moment: some in flight, some queued
    conn.close()
    sim.run_until(5.0)
    assert got == sorted(got)  # whatever arrived is prefix-ordered
    with pytest.raises(RuntimeError):
        conn.send(b"99")


def test_malformed_segments_are_counted_and_the_stream_carries_on():
    """A CRC-valid segment with an unknown kind code, or with bytes after
    its payload, is refused by the segment codec and counted in the
    manager's ``corrupt_dropped``: nothing raises, and an open
    connection still carries data."""
    sim, lan, (a, b, c) = make_lan(n=3)
    server = StreamManager(sim, b, 50)
    got = []
    server.listen(lambda conn: setattr(conn, "on_message",
                                       lambda m, s: got.append(m)))
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    conn.send(b"before")
    sim.run_until(1.0)
    assert got == [b"before"]
    body = unframe(_encode_seg(_StreamSeg(_DATA, conn.conn_id, 99, b"x")))
    unknown_kind = frame(bytes([9]) + body[1:])
    trailing = frame(body + b"\x00")
    with pytest.raises(CorruptFrame, match="unknown segment kind"):
        _decode_seg(unknown_kind)
    with pytest.raises(CorruptFrame, match="1 trailing bytes"):
        _decode_seg(trailing)
    rogue = DatagramSocket(sim, c, 60, lambda *x: None)
    rogue.sendto(unknown_kind, "node1", 50)
    rogue.sendto(trailing, "node1", 50)
    sim.run_until(2.0)
    assert server.corrupt_dropped == 2
    conn.send(b"after")
    sim.run_until(3.0)
    assert got == [b"before", b"after"]
    assert server.corrupt_dropped == 2 and client.corrupt_dropped == 0


def test_two_connections_between_same_hosts_are_independent():
    sim, lan, (a, b) = make_lan()
    server = StreamManager(sim, b, 50)
    inboxes = {}

    def on_accept(c):
        inboxes[c.conn_id] = []
        c.on_message = lambda m, s, c=c: inboxes[c.conn_id].append(m)

    server.listen(on_accept)
    client = StreamManager(sim, a, 51)
    c1 = client.connect("node1", 50)
    c2 = client.connect("node1", 50)
    c1.send(b"one-a")
    c2.send(b"two-a")
    c1.send(b"one-b")
    sim.run()
    boxes = sorted(inboxes.values(), key=len, reverse=True)
    assert boxes[0] == [b"one-a", b"one-b"]
    assert boxes[1] == [b"two-a"]


def test_stream_survives_duplicated_syn():
    cost = CostModel.ideal()
    cost.duplicate_probability = 0.5
    sim, lan, (a, b) = make_lan(cost, seed=5)
    server = StreamManager(sim, b, 50)
    accepted = []
    got = []
    server.listen(lambda c: (accepted.append(c),
                             setattr(c, "on_message",
                                     lambda m, s: got.append(m))))
    client = StreamManager(sim, a, 51)
    conn = client.connect("node1", 50)
    for i in range(10):
        conn.send(f"{i}".encode())
    sim.run()
    assert len(accepted) == 1          # duplicate SYNs: one connection
    assert got == [f"{i}".encode() for i in range(10)]
