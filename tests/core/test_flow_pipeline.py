"""End-to-end flow control: overload, slow-consumer isolation,
observable sheds, and same-seed determinism.

The overload scenario drives a publisher at roughly twice the host's
send capacity for five simulated seconds and checks the acceptance
criteria of the flow-control layer: every bounded queue stays at or
under its cap, only reliable-QoS traffic is shed (with exact per-queue
counts), and every guaranteed message is delivered at least once after
the pressure subsides.
"""

from collections import Counter

from repro.core import (BusConfig, FlowConfig, InformationBus,
                        POLICY_DROP_NEWEST, QoS,
                        ReliableConfig, ReliableReceiver)
from repro.objects import encode
from repro.sim import Simulator
from repro.sim.network import CostModel
from repro.sim.trace import Tracer

#: ~2.7 ms host CPU per ~900-byte send => ~370 msg/s capacity; publishing
#: every 1.45 ms offers ~2x that.
PAYLOAD = encode(b"\x00" * 900)
PUBLISH_INTERVAL = 0.00145
OVERLOAD_SECONDS = 5.0
GUARANTEED_COUNT = 5


def _overload_config():
    return BusConfig(flow=FlowConfig(
        publish_queue=64, publish_policy=POLICY_DROP_NEWEST))


def run_overload(seed, trace=False):
    """One overload run; returns everything a determinism check needs."""
    tracer = Tracer(enabled=trace)
    bus = InformationBus(seed=seed, cost=CostModel(loss_probability=0.0),
                         config=_overload_config(), tracer=tracer)
    bus.add_hosts(2)
    publisher = bus.client("node00", "pub")
    subscriber = bus.client("node01", "sub")
    got = []
    subscriber.subscribe("load.data",
                         lambda _s, _o, info: got.append(info.seq))
    gold = []
    subscriber.subscribe("gold.>",
                         lambda s, _o, _i: gold.append(s), durable=True)

    receipts = {"accepted": 0, "deferred": 0, "dropped": 0}
    gold_receipts = []

    def fire():
        receipt = publisher.publish_bytes("load.data", PAYLOAD)
        receipts[receipt.admission.value] += 1
        if bus.sim.now + PUBLISH_INTERVAL < OVERLOAD_SECONDS:
            bus.sim.schedule(PUBLISH_INTERVAL, fire, name="load")

    def fire_gold(i):
        gold_receipts.append(
            publisher.publish(f"gold.g{i}", {"i": i}, qos=QoS.GUARANTEED))

    bus.sim.schedule(0.0, fire, name="load")
    for i in range(GUARANTEED_COUNT):
        # mid-overload: the outbound queue is full, so these defer to
        # the stable ledger and retransmit until admitted
        bus.sim.schedule(1.0 + i * 0.2, fire_gold, i, name="gold")
    bus.run_for(OVERLOAD_SECONDS)
    bus.settle(5.0)
    return {
        "got": got,
        "gold": sorted(gold),
        "receipts": receipts,
        "gold_admissions": [r.admission.value for r in gold_receipts],
        "flow": {a: d.flow_stats() for a, d in bus.daemons.items()},
        "pending": len(bus.daemon("node00").guaranteed_pending()),
        "trace_flow": Counter(record.category for record in tracer.records
                              if record.category.startswith("flow.")),
    }


def test_overload_bounded_sheds_reliable_only_and_keeps_guaranteed():
    result = run_overload(seed=7)
    receipts = result["receipts"]

    # the workload genuinely overloaded the pipeline
    offered = sum(receipts.values())
    assert offered > 3000
    assert receipts["dropped"] > 1000

    # every bounded queue stayed at or under its configured cap
    for daemon_stats in result["flow"].values():
        for snap in daemon_stats.values():
            assert snap["high_watermark"] <= snap["capacity"], snap["name"]
            assert snap["depth"] == 0   # fully drained after settling

    # exact per-queue accounting: the publisher's outbound queue shed
    # exactly the publishes whose receipts said "dropped"
    outbound = result["flow"]["node00"]["outbound"]
    assert outbound["dropped"] == receipts["dropped"]
    assert outbound["policy"] == POLICY_DROP_NEWEST

    # every accepted reliable message was delivered (loss disabled),
    # in order, with no invented extras
    assert len(result["got"]) == receipts["accepted"]
    assert result["got"] == sorted(result["got"])

    # guaranteed QoS was never shed: deferred mid-overload, delivered at
    # least once after the pressure subsided, and fully acked
    assert "dropped" not in result["gold_admissions"]
    assert "deferred" in result["gold_admissions"]   # pressure was real
    assert result["gold"] == [f"gold.g{i}" for i in range(GUARANTEED_COUNT)]
    assert result["pending"] == 0


def test_overload_same_seed_is_bit_identical_back_to_back():
    # two consecutive in-process runs (exercises the per-segment
    # frame-id fix: a leaked global counter would diverge run 2)
    first = run_overload(seed=11)
    second = run_overload(seed=11)
    assert first == second


def test_tracing_does_not_change_behavior():
    untraced = run_overload(seed=13, trace=False)
    traced = run_overload(seed=13, trace=True)
    assert traced["trace_flow"].get("flow.drop", 0) > 0  # sheds visible
    for key in ("got", "gold", "receipts", "gold_admissions", "flow",
                "pending"):
        assert traced[key] == untraced[key], key


def test_slow_consumer_sheds_without_stalling_sibling():
    bus = InformationBus(
        seed=3, cost=CostModel(loss_probability=0.0),
        config=BusConfig(flow=FlowConfig(delivery_queue=32)))
    bus.add_hosts(2)
    publisher = bus.client("node00", "pub")
    fast_latency = []
    slow_count = [0]
    fast = bus.client("node01", "fast")
    # 1/10th of the 200 msg/s offered rate
    slow = bus.client("node01", "slow", service_time=0.05)
    fast.subscribe("feed.data", lambda _s, _o, info: fast_latency.append(
        info.deliver_time - info.publish_time))
    slow.subscribe("feed.data",
                   lambda _s, _o, _i: slow_count.__setitem__(
                       0, slow_count[0] + 1))

    total = [0]

    payload = encode(b"\x00" * 200)

    def fire():
        publisher.publish_bytes("feed.data", payload)
        total[0] += 1
        if bus.sim.now + 0.005 < 5.0:
            bus.sim.schedule(0.005, fire, name="feed")

    bus.sim.schedule(0.0, fire, name="feed")
    bus.run_for(5.0)
    bus.settle(2.0)

    # the fast sibling saw everything, promptly
    assert len(fast_latency) == total[0]
    assert max(fast_latency) < 0.05

    # the slow app's lane stayed bounded and shed per its policy
    lanes = bus.daemon("node01").flow_stats()
    slow_stats = lanes["deliver[slow]"]
    assert slow_stats["high_watermark"] <= 32
    assert slow_stats["dropped_oldest"] > 0
    assert slow_count[0] < total[0]
    # and it still consumed at its own (1/10th) pace
    assert slow_count[0] > total[0] // 20

    # the fast sibling's lane never even queued
    fast_stats = lanes["deliver[fast]"]
    assert fast_stats["dropped"] == 0


def test_reorder_overflow_is_counted_and_traced():
    # satellite: the silent reorder-buffer drop is now counted + traced
    sim = Simulator(seed=1)
    tracer = Tracer(enabled=True)
    config = ReliableConfig(receive_buffer=2)
    delivered = []
    receiver = ReliableReceiver(sim, config,
                                lambda env, _r: delivered.append(env.seq),
                                lambda *_args: None, "me#0", tracer=tracer)

    from repro.core import Envelope
    def env(seq):
        return Envelope(subject="a.b", sender="x", session="s#0", seq=seq,
                        payload=b"p", qos=QoS.RELIABLE)

    receiver.handle_envelope(env(1), session_start=0.0)
    # out-of-order arrivals: 3 and 4 fill the 2-slot buffer...
    receiver.handle_envelope(env(3), session_start=0.0)
    receiver.handle_envelope(env(4), session_start=0.0)
    # ...5 and 6 must shed (drop-newest keeps the gap-fillers)
    receiver.handle_envelope(env(5), session_start=0.0)
    receiver.handle_envelope(env(6), session_start=0.0)
    stats = receiver.sessions["s#0"].stats
    assert stats.overflow_dropped.value == 2
    drops = tracer.select("flow.drop", queue="reliable.reorder")
    assert [d["seq"] for d in drops] == [5, 6]
    # the buffered gap-fillers still deliver once 2 arrives
    receiver.handle_envelope(env(2), session_start=0.0)
    assert delivered == [1, 2, 3, 4]
