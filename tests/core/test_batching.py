"""Unit tests for the outbound batcher."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BatchConfig, Batcher, BoundedQueue, BusConfig,
                        Envelope, FlowConfig, InformationBus,
                        POLICY_DROP_NEWEST, Packet, PacketKind, QoS,
                        ShardMap, StringTable, encode_packet)
from repro.sim import CostModel, EthernetSegment, Frame, Simulator
from tests.properties.test_wire_properties import varint_length


def envelope(size_payload=50, subject="a.b"):
    return Envelope(subject=subject, sender="x", session="s#0", seq=0,
                    payload=b"\x00" * size_payload, qos=QoS.RELIABLE)


def admission_queue():
    return BoundedQueue("outbound", FlowConfig.publish_queue)


def add(batcher, envelope):
    """Admit ``envelope`` as the daemon does: offer it to the batcher's
    queue, then tell the batcher."""
    batcher.queue.offer(envelope)
    batcher.add(envelope)


def make_batcher(sim, enabled=True, batch_bytes=300, batch_delay=0.01):
    batches = []
    config = BatchConfig(enabled=enabled, batch_bytes=batch_bytes,
                         batch_delay=batch_delay)
    return Batcher(sim, config, batches.append, admission_queue()), batches


def test_disabled_batcher_passes_through():
    sim = Simulator()
    batcher, batches = make_batcher(sim, enabled=False)
    add(batcher, envelope())
    add(batcher, envelope())
    assert [len(b) for b in batches] == [1, 1]
    assert len(batcher.queue) == 0


def test_size_threshold_flushes_synchronously():
    """A group is cut *before* the envelope that would take it past
    ``batch_bytes``, and a full group does not wait out the delay: with
    the lane idle it leaves inside that envelope's ``add``."""
    sim = Simulator()
    # pick a threshold two envelopes stay under and three cross
    # (sizes are measured from the wire encoding)
    threshold = int(envelope().size * 2.5)
    batcher, batches = make_batcher(sim, batch_bytes=threshold)
    add(batcher, envelope())
    add(batcher, envelope())
    assert batches == []              # still under threshold
    add(batcher, envelope())           # would cross it: the two leave now
    assert [len(b) for b in batches] == [2]
    assert len(batcher.queue) == 1
    sim.run()                         # the third, once the lane is free
    assert [len(b) for b in batches] == [2, 1]
    assert all(sum(e.size for e in b) <= threshold for b in batches)


def test_delay_flushes_small_batches():
    sim = Simulator()
    batcher, batches = make_batcher(sim, batch_delay=0.01)
    add(batcher, envelope())
    assert batches == []
    sim.run_until(0.02)
    assert [len(b) for b in batches] == [1]


def test_timer_measured_from_first_message():
    sim = Simulator()
    batcher, batches = make_batcher(sim, batch_delay=0.01)
    add(batcher, envelope())
    sim.run_until(0.005)
    add(batcher, envelope())           # does NOT restart the clock
    sim.run_until(0.011)
    assert [len(b) for b in batches] == [2]


def test_manual_flush_and_empty_flush():
    sim = Simulator()
    batcher, batches = make_batcher(sim)
    batcher.flush()                   # empty: no callback
    assert batches == []
    add(batcher, envelope())
    batcher.flush()
    assert [len(b) for b in batches] == [1]
    sim.run_until(1.0)                # the pending timer was cancelled
    assert len(batches) == 1


def test_shutdown_drops_queued():
    sim = Simulator()
    batcher, batches = make_batcher(sim)
    add(batcher, envelope())
    batcher.shutdown()
    sim.run_until(1.0)
    assert batches == []
    assert len(batcher.queue) == 0


def test_counters():
    """Every envelope added leaves in exactly one callback batch."""
    sim = Simulator()
    batcher, batches = make_batcher(sim, batch_bytes=150)
    for _ in range(4):
        add(batcher, envelope())
    batcher.flush()
    assert sum(map(len, batches)) == 4
    assert len(batcher.queue) == 0


# ----------------------------------------------------------------------
# a batcher on a real send lane: gather while it is busy, and (enabled)
# wait batch_delay before sending into an idle one
# ----------------------------------------------------------------------

#: both modes: behind a lane busier than ``batch_delay`` they must agree
MODES = (False, True)


def lane_batcher(enabled=False, batch_bytes=1400):
    """A batcher whose releases each leave ``node0``'s send lane as one
    frame; ``sent`` records (release time, envelopes, bytes)."""
    sim = Simulator(seed=0)
    lan = EthernetSegment(sim, cost=CostModel(cpu_jitter=0.0))
    host = lan.add_host("node0")
    lan.add_host("node1")
    sent = []

    def send(batch):
        size = sum(envelope.size for envelope in batch)
        sent.append((sim.now, len(batch), size))
        host.send_frame(Frame("node0", "node1", 7, 7, batch, size))

    config = BatchConfig(enabled=enabled, batch_bytes=batch_bytes)
    return (sim, host,
            Batcher(sim, config, send, admission_queue(), host=host), sent)


def occupy(host):
    """Put a frame on ``host``'s lane that keeps it busy for longer than
    the default ``batch_delay``; returns the instant the lane frees."""
    free_at = host.send_frame(Frame("node0", "node1", 7, 7, "lead", 1400))
    assert free_at - host.sim.now > BatchConfig().batch_delay
    return free_at


def test_idle_lane_passes_each_envelope_through():
    sim, host, batcher, sent = lane_batcher()
    add(batcher, envelope())
    assert len(batcher.queue) == 0
    sim.run()                                 # the lane drains
    assert host.send_free_at(0) <= sim.now
    add(batcher, envelope())
    assert [(n, len(batcher.queue)) for _, n, _ in sent] == [(1, 0), (1, 0)]


def test_busy_lane_gathers_until_the_instant_it_frees():
    for enabled in MODES:
        sim, host, batcher, sent = lane_batcher(enabled)
        free_at = occupy(host)
        for _ in range(4):
            add(batcher, envelope())
        assert sent == []
        assert len(batcher.queue) == 4
        sim.run_until(free_at - 1e-9)
        assert len(batcher.queue) == 4           # nothing delayed further ...
        sim.run_until(free_at)
        assert sent == [(free_at, 4, 4 * envelope().size)]   # ... or late
        assert len(batcher.queue) == 0


def test_held_group_is_cut_before_it_passes_batch_bytes():
    one = envelope().size
    for enabled in MODES:
        sim, host, batcher, sent = lane_batcher(enabled,
                                                batch_bytes=int(one * 2.5))
        occupy(host)
        for _ in range(4):
            add(batcher, envelope())
        # the 3rd would make 3 > 2.5: the first 2 are cut and wait for
        # the lane in the batcher, not on it
        assert sent == []
        assert len(batcher.queue) == 4
        sim.run()
        assert [n for _, n, _ in sent] == [2, 2]
        assert all(size <= int(one * 2.5) for _, _, size in sent)


def test_cut_groups_leave_one_per_lane_free_instant():
    """A burst never queues on the lane: each cut group leaves the
    instant the datagram before it is sent, so a frame the daemon sends
    meanwhile (a repair, a heartbeat) waits for one datagram only."""
    for enabled in MODES:
        sim, host, batcher, sent = lane_batcher(enabled)
        first_done = occupy(host)
        for _ in range(100):
            add(batcher, envelope())
        assert sent == []
        repair = host.send_frame(Frame("node0", "node1", 7, 7, "repair", 60))
        assert repair == first_done + host.cost.send_cpu_time(60)
        sim.run()
        assert sum(n for _, n, _ in sent) == 100
        assert all(size <= 1400 for _, _, size in sent)
        # each group leaves when the datagram before it is done: the
        # first at the lead frame's, and it is sent after the repair
        cost = host.cost.send_cpu_time
        assert sent[0][0] == first_done
        done = repair + cost(sent[0][2])
        for at, _, size in sent[1:]:
            assert at == done
            done = at + cost(size)


def test_enabled_first_envelope_on_an_idle_lane_waits_batch_delay():
    sim, host, batcher, sent = lane_batcher(enabled=True)
    delay = batcher.config.batch_delay
    add(batcher, envelope())
    sim.run_until(delay / 2)
    add(batcher, envelope())                   # joins the waiting one
    assert host.send_free_at(0) <= sim.now    # the lane stayed idle
    sim.run_until(delay - 1e-9)
    assert sent == []
    sim.run_until(delay)
    assert sent == [(delay, 2, 2 * envelope().size)]


def test_enabled_full_group_leaves_at_once():
    """A group cut on an idle lane does not wait out ``batch_delay``;
    what it cut off waits only for the lane, not for a new window."""
    one = envelope().size
    sim, host, batcher, sent = lane_batcher(enabled=True,
                                            batch_bytes=int(one * 2.5))
    for _ in range(3):
        add(batcher, envelope())
    assert sent == [(0.0, 2, 2 * one)]
    lane_free = host.send_free_at(0)
    assert 0.0 < lane_free < batcher.config.batch_delay
    sim.run()
    assert sent[1:] == [(lane_free, 1, one)]


def test_enabled_follower_on_a_briefly_busy_lane_waits_for_the_window():
    """An envelope that finds the lane busy for less than ``batch_delay``
    (here: with the group just released) waits the whole window, so the
    envelopes paced in behind it ride with it instead of each going out
    nearly alone once the lane frees."""
    sim, host, batcher, sent = lane_batcher(enabled=True)
    delay = batcher.config.batch_delay
    add(batcher, envelope())
    sim.run_until(delay)
    assert [n for _, n, _ in sent] == [1]
    lane_free = host.send_free_at(0)
    assert delay < lane_free < 2 * delay      # busy, briefly
    add(batcher, envelope())
    for step in (1, 2, 3):
        sim.run_until(lane_free + step * (2 * delay - lane_free) / 4)
        add(batcher, envelope())
    assert [n for _, n, _ in sent] == [1]
    sim.run()
    assert sent[1:] == [(2 * delay, 4, 4 * envelope().size)]


SUBJECTS = ("t.x", "feed.equity.gmc")
SENDERS = ("p", "node0.publisher")


SPEC = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(SENDERS),
                st.integers(0, 700), st.sampled_from([0.0, None]))
SMALL = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(SENDERS),
                  st.integers(0, 120), st.sampled_from([0.0, None]))


def gathered_groups(enabled, batch_bytes, specs, table):
    """Batch ``specs`` onto one host's lane, each group encoded as a
    DATA frame against ``table``: per group, its envelope count, its
    bytes as cut (the sum of ``Envelope.size``), its frame's length past
    an empty frame's, and the ids the frame used for the first time."""
    sim = Simulator(seed=0)
    lan = EthernetSegment(sim, cost=CostModel(cpu_jitter=0.0))
    host = lan.add_host("node0")
    lan.add_host("node1")
    groups = []
    header = len(encode_packet(Packet(PacketKind.DATA, "node0#0", [],
                                      session_start=0.0), StringTable()))

    def send(batch):
        known = len(table)
        data = encode_packet(Packet(PacketKind.DATA, "node0#0", batch,
                                    session_start=0.0), table)
        groups.append((len(batch), sum(e.size for e in batch),
                       len(data) - header, range(known, len(table))))
        host.send_frame(Frame("node0", "node1", 7, 7, data, len(data)))

    batcher = Batcher(sim, BatchConfig(enabled=enabled,
                                       batch_bytes=batch_bytes),
                      send, admission_queue(), host=host)
    for seq, (subject, sender, payload, at) in enumerate(specs, 1):
        add(batcher, Envelope(subject, sender, "node0#0", seq,
                              b"\x00" * payload,
                              publish_time=float(seq) if at is None else at))
    sim.run()
    assert sum(n for n, _, _, _ in groups) == len(specs)
    assert max(n for n, _, _, _ in groups) > 1
    assert all(n == 1 or size <= batch_bytes for n, size, _, _ in groups)
    return groups, header, host.cost.mtu


@given(st.booleans(), st.sampled_from([1200, 1400]),
       st.lists(SMALL, min_size=3, max_size=3),
       st.lists(SPEC, max_size=150))
@settings(max_examples=80, deadline=None)
def test_gathered_group_never_outgrows_one_datagram(enabled, batch_bytes,
                                                   lead, specs):
    """What a group is cut on, :attr:`Envelope.size`, bounds its share
    of a frame: once the session's strings are in its table (ids no
    longer than the strings; an elided sender or publish time only
    shortens a body), no DATA datagram the batcher emits is larger than
    one MTU, and no group passes ``batch_bytes`` unless it is one
    envelope — with batching on or off, whatever the payloads and
    whether the envelopes share a publish instant (``0.0``) or each has
    its own (``None``).  Three small envelopes lead, so every example
    gathers a group."""
    table = StringTable()
    for text in SUBJECTS + SENDERS:
        table.intern(text)
    groups, header, mtu = gathered_groups(enabled, batch_bytes,
                                          lead + specs, table)
    assert all(length <= size for _, size, length, _ in groups)
    assert max(header + length for _, _, length, _ in groups) <= mtu


@given(st.booleans(), st.sampled_from([1200, 1400]),
       st.lists(SMALL, min_size=3, max_size=3),
       st.lists(SPEC, max_size=150))
@settings(max_examples=80, deadline=None)
def test_gathered_group_outgrows_its_bytes_only_by_first_use_ids(
        enabled, batch_bytes, lead, specs):
    """The one gap in the cut, bounded: from a cold table, a frame
    exceeds its group's ``Envelope.size`` total by at most two ids
    (the definition's and the first reference's) per string it uses
    for the first time — the string itself is in the total already."""
    groups, _, _ = gathered_groups(enabled, batch_bytes, lead + specs,
                                   StringTable())
    for _, size, length, new_ids in groups:
        assert length <= size + sum(2 * varint_length(idx)
                                    for idx in new_ids)


def test_envelope_no_follower_could_join_never_waits_the_delay():
    """An envelope of half ``batch_bytes`` or more leaves alone: on an
    idle lane at once (batching on too), and behind a busy lane at the
    instant it frees, like any other — never onto the busy lane."""
    for enabled in MODES:
        sim, host, batcher, sent = lane_batcher(enabled, batch_bytes=200)
        add(batcher, envelope(size_payload=100))   # half: no second fits
        assert [(at, n) for at, n, _ in sent] == [(0.0, 1)]
        free_at = host.send_free_at(0)
        assert free_at > 0.0
        add(batcher, envelope(size_payload=300))   # payload >= cap
        add(batcher, envelope(size_payload=100))
        assert len(batcher.queue) == 2               # held for the lane
        sim.run()
        assert [(at, n) for at, n, _ in sent[1:]] == [
            (free_at, 1), (free_at + host.cost.send_cpu_time(sent[1][2]),
                           1)]
        assert len(batcher.queue) == 0


@given(st.booleans(),
       st.lists(st.tuples(st.integers(0, 2000),
                          st.sampled_from([0.0, 0.0005, 0.003])),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_no_datagram_goes_onto_the_lane_while_an_earlier_one_is_on_it(
        enabled, specs):
    """Outside :meth:`~Batcher.flush`, the batcher hands the lane a
    datagram only once the one before it is sent: starting behind a
    busy lane, in either mode, whatever the payload sizes (large ones
    included) and however the adds are spaced."""
    sim, host, batcher, sent = lane_batcher(enabled)
    on_lane = [occupy(host)]          # when the last datagram is sent
    send = batcher._flush_cb

    def handed(batch):
        assert sim.now >= on_lane[-1] - 1e-12
        send(batch)
        on_lane.append(host.send_free_at(0))

    batcher._flush_cb = handed
    for payload, gap in specs:
        sim.run_until(sim.now + gap)
        add(batcher, envelope(size_payload=payload))
    sim.run()
    assert sum(n for _, n, _ in sent) == len(specs)
    assert len(batcher.queue) == 0


def test_a_burst_behind_a_busy_lane_waits_in_the_admission_queue():
    """Everything admitted and not yet on the lane is in the admission
    queue: with room for N, a burst of 3N small publishes behind a busy
    lane admits N and defers the other 2N (block policy), and the N
    leave once the lane frees."""
    room = 16
    bus = InformationBus(seed=4, cost=CostModel(loss_probability=0.0),
                         config=BusConfig(flow=FlowConfig(
                             publish_queue=room)))
    bus.add_hosts(2)
    inbox = []
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: inbox.append(obj))
    publisher = bus.client("node00", "pub")
    bus.run_for(1.0)
    plane = bus.daemons["node00"]
    plane.host.send_frame(Frame("node00", "node01", 9, 9, "other", 200))
    receipts = [publisher.publish("t.x", n).admission.value
                for n in range(3 * room)]
    assert receipts == ["accepted"] * room + ["deferred"] * (2 * room)
    assert len(plane._batcher.queue) == room
    bus.run_for(2.0)
    assert inbox == list(range(room))


def test_large_envelope_behind_a_held_group_keeps_its_order():
    for enabled in MODES:
        sim, host, batcher, sent = lane_batcher(enabled, batch_bytes=200)
        occupy(host)
        add(batcher, envelope(size_payload=10))
        add(batcher, envelope(size_payload=10))    # held
        add(batcher, envelope(size_payload=300))   # held too: seqs in order
        assert len(batcher.queue) == 3
        sim.run()
        assert [n for _, n, _ in sent] == [2, 1]
        assert sent[1][2] > 300


def test_crash_drops_the_held_group_and_the_new_session_replays_none():
    bus = InformationBus(seed=5)
    bus.add_hosts(2)
    inbox = []
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: inbox.append(obj))
    publisher = bus.client("node00", "pub")
    publisher.publish("t.x", "before")
    bus.run_for(0.9)                          # clear of a heartbeat instant
    for n in range(5):
        publisher.publish("t.x", f"held{n}")
    plane = bus.daemons["node00"]
    assert len(plane._batcher.queue) == 4
    bus.crash_host("node00")                  # before the lane frees
    assert len(plane._batcher.queue) == 0
    bus.run_for(0.5)
    bus.recover_host("node00")
    publisher.publish("t.x", "after")         # re-attached client
    bus.run_for(2.0)
    assert inbox == ["before", "after"]
    assert list(bus.daemons["node01"].peers) == [plane.session]


def test_flush_from_a_local_subscriber_on_a_free_lane():
    """A same-host subscriber that flushes from its callback sends the
    envelope it is being handed before that envelope's own release
    runs; on a lane that costs nothing to send on, the release then
    finds the queue empty and sends nothing twice."""
    cost = CostModel.ideal()
    cost.cpu_send_per_packet = 0.0
    bus = InformationBus(seed=1, cost=cost)
    bus.add_hosts(2)
    plane = bus.daemons["node00"]
    local, remote = [], []
    bus.client("node00", "local").subscribe(
        "t.>", lambda subject, obj, info: (local.append(obj),
                                           plane.flush()))
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: remote.append(obj))
    bus.run_for(1.0)
    publisher = bus.client("node00", "pub")
    for n in range(3):
        publisher.publish("t.x", n)
    bus.run_for(1.0)
    assert local == remote == [0, 1, 2]


def test_each_plane_gathers_on_its_own_lane():
    bus = InformationBus(seed=5, config=BusConfig(subject_shards=2))
    bus.add_hosts(2)
    inbox = []
    bus.client("node01", "mon").subscribe(
        ">", lambda subject, obj, info: inbox.append(subject))
    publisher = bus.client("node00", "pub")
    shard_of = ShardMap(2).shard_of
    subjects = ("feed.a", "news.a", "feed.b", "quote.a")
    assert [shard_of(subject) for subject in subjects] == [1, 0, 1, 0]
    planes = bus.daemons["node00"].planes
    host = planes[0].host
    bus.run_for(1.0)
    released = [[] for _ in planes]
    for plane, log in zip(planes, released):
        emit = plane._batcher._flush_cb
        plane._batcher._flush_cb = (
            lambda batch, emit=emit, log=log: (log.append(batch),
                                               emit(batch)))
    for n in range(8):
        publisher.publish(subjects[n % 4], n)
    # on each plane the first publish found its own lane idle, although
    # the other plane's lane was already busy; its other three wait
    assert [len(log) for log in released] == [1, 1]
    assert [len(plane._batcher.queue) for plane in planes] == [3, 3]
    frees = [host.send_free_at(plane.shard) for plane in planes]
    first = frees.index(min(frees))
    bus.sim.run_until(frees[first])
    assert [len(plane._batcher.queue) for plane in planes] == [
        0 if k == first else 3 for k in range(2)]
    bus.run_for(1.0)
    assert sorted(inbox) == sorted(subjects * 2)


def test_heartbeat_while_held_causes_no_nack():
    """A heartbeat announces the seqs the lane has carried, not those
    the batcher still holds — for the lane (batching off) or for a
    ``batch_delay`` longer than a receiver's NACK delay (batching on) —
    so on the default ``CostModel`` no subscriber waits ``nack_delay``
    for them and NACKs."""
    for enabled in MODES:
        config = BusConfig()
        config.batch.enabled = enabled
        config.batch.batch_delay = 2 * config.reliable.nack_delay
        bus = InformationBus(seed=3, config=config)
        bus.add_hosts(2)
        inbox = []
        bus.client("node01", "mon").subscribe(
            "t.>", lambda subject, obj, info: inbox.append(obj))
        publisher = bus.client("node00", "pub")
        plane = bus.daemons["node00"]
        beat = 5 * plane.config.reliable.heartbeat_interval  # a beat instant
        bus.run_for(beat - 1e-4)
        for _ in range(10):           # off: 1 sent, 9 held; on: 10 held
            publisher.publish("t.x", b"x" * 40)
        assert len(plane._batcher.queue) == (10 if enabled else 9)
        held_until = (bus.sim.now + config.batch.batch_delay if enabled
                      else plane.host.send_free_at(0))
        assert held_until > beat
        bus.run_for(2.0)
        assert len(inbox) == 10
        stats = bus.daemons["node01"].peers.get(plane.session).stats
        assert stats.nacks_sent.value == 0


def test_frame_lost_in_a_burst_is_repaired_while_the_burst_is_sent():
    """The NACK repair of a datagram lost early in a burst waits for the
    datagram on the lane, not for the rest of the burst: the lost
    messages reach the subscriber before the burst's last datagram has
    even been handed to the lane."""
    bus = InformationBus(seed=4, cost=CostModel(loss_probability=0.0))
    bus.add_hosts(2)
    arrivals = {}
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: arrivals.setdefault(
            info.seq, bus.sim.now))
    publisher = bus.client("node00", "pub")
    bus.run_for(1.0)
    batcher = bus.daemons["node00"]._batcher
    groups = []                       # (handed to the lane at, first seq)
    multi = []                        # each multi-envelope group's frames
    emit = batcher._flush_cb
    sender = bus.host("node00")
    send_frame = sender.send_frame
    sent = []
    sender.send_frame = lambda frame, lane=0: (
        sent.append(frame), send_frame(frame, lane))[1]

    def record(batch):
        groups.append((bus.sim.now, batch[0].seq))
        sent.clear()
        emit(batch)
        if len(batch) > 1:
            multi.append(list(sent))

    batcher._flush_cb = record
    receiver = bus.host("node01")
    deliver = receiver.deliver_frame

    def lose_second_full_datagram(frame):
        if len(multi) > 1 and any(frame is lost for lost in multi[1]):
            return
        deliver(frame)

    receiver.deliver_frame = lose_second_full_datagram
    for n in range(400):
        publisher.publish("t.x", n)
    bus.run_for(2.0)
    assert sorted(arrivals) == list(range(1, 401))
    plane = bus.daemons["node00"]
    stats = bus.daemons["node01"].peers.get(plane.session).stats
    assert stats.nacks_sent.value == 1
    assert len(groups) > 6
    lost = groups[2][1]               # after the lone first and one full
    assert arrivals[lost] < groups[-1][0]


def test_paced_pump_stops_while_a_gathered_group_waits():
    """What waits for the busy lane waits in the admission queue: a
    burst fills it and the policy sheds the rest, so the batcher never
    holds more than the queue's capacity."""
    config = BusConfig(flow=FlowConfig(publish_queue=64,
                                       publish_policy=POLICY_DROP_NEWEST))
    bus = InformationBus(seed=4, cost=CostModel(loss_probability=0.0),
                         config=config)
    bus.add_hosts(2)
    inbox = []
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: inbox.append(obj))
    publisher = bus.client("node00", "pub")
    bus.run_for(1.0)
    receipts = [publisher.publish("t.x", n).admission.value
                for n in range(500)]
    plane = bus.daemons["node00"]
    assert len(plane._batcher.queue) <= config.flow.publish_queue
    outbound = plane.flow_stats()["outbound"]
    assert outbound["high_watermark"] == 64
    assert receipts.count("dropped") == outbound["dropped"] > 300
    bus.run_for(2.0)
    assert len(inbox) == receipts.count("accepted")


def test_paced_pump_does_not_spin_while_a_cut_group_waits_out_the_delay():
    """With batching on, a group can fill while a frame the daemon sent
    itself keeps the lane busy for less than ``batch_delay``.  Once that
    frame is sent the held envelopes wait for the delay's release on an
    idle lane, and nothing polls the lane meanwhile."""
    config = BusConfig(flow=FlowConfig(publish_queue=64))
    config.batch.enabled = True
    config.batch.batch_delay = 0.01
    bus = InformationBus(seed=4, cost=CostModel(loss_probability=0.0),
                         config=config)
    bus.add_hosts(2)
    inbox = []
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: inbox.append(obj))
    publisher = bus.client("node00", "pub")
    bus.run_for(1.0)
    plane = bus.daemons["node00"]
    publisher.publish("t.x", 0)               # held for the delay
    plane.host.send_frame(Frame("node00", "node01", 9, 9, "other", 200))
    for n in range(1, 40):                    # fill a group and more
        publisher.publish("t.x", n)
    assert len(plane._batcher.queue) == 40
    assert plane.host.send_free_at(0) - bus.sim.now < config.batch.batch_delay
    fired = bus.sim.run_until(bus.sim.now + 2 * config.batch.batch_delay,
                              max_events=10_000)
    assert fired < 100
    bus.run_for(2.0)
    assert inbox == list(range(40))
