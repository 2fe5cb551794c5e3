"""Ablation: flow control under overload.

The Appendix measures the bus at its plateau; this ablation measures it
*past* the plateau.  A publisher offers ~2x the host's send capacity for
five simulated seconds.  Either way publishes wait in the daemon's
admission queue until the send lane is free, so the lane itself holds
at most one datagram.  With flow control OFF (the non-shedding
defaults) nothing pushes back until the 4,096-envelope queue is full:
the backlog — seconds of queued send work — is live memory and
latency.  With flow control ON the queue is small, the overflow policy
sheds the excess visibly (exact counters), throughput holds at the
plateau, and guaranteed QoS still gets through.

"Peak backlog" is the send work waiting when a publish returns, wherever
it waits: the lane's (``host.send_backlog``) plus one datagram's send
time for each envelope in the admission queue.
"""

from repro.bench import Report
from repro.core import (BusConfig, FlowConfig, InformationBus, Packet,
                        PacketKind, POLICY_DROP_NEWEST)
from repro.objects import encode
from repro.sim.network import CostModel

PAYLOAD = encode(b"\x00" * 900)        # ~2.7 ms send CPU per message
PUBLISH_INTERVAL = 0.00145             # ~2x capacity
DURATION = 5.0


def run_overload(flow_control: bool):
    flow = (FlowConfig(publish_queue=64,
                       publish_policy=POLICY_DROP_NEWEST)
            if flow_control else FlowConfig())
    cost = CostModel(loss_probability=0.0)
    bus = InformationBus(seed=42, cost=cost, config=BusConfig(flow=flow))
    bus.add_hosts(2)
    publisher = bus.client("node00", "pub")
    subscriber = bus.client("node01", "sub")
    window_deliveries = [0]
    subscriber.subscribe(
        "load.data",
        lambda *_: window_deliveries.__setitem__(
            0, window_deliveries[0] + (1 if bus.sim.now <= DURATION else 0)))

    counts = {"offered": 0, "accepted": 0}
    peak = {"lane": 0.0, "backlog": 0.0}
    host = bus.host("node00")
    daemon = bus.daemon("node00")
    datagram_time = []        # one queued envelope's send work

    def fire():
        receipt = publisher.publish_bytes("load.data", PAYLOAD)
        counts["offered"] += 1
        counts["accepted"] += 1 if receipt.accepted else 0
        if not datagram_time:
            envelope = receipt.envelope
            datagram_time.append(cost.send_cpu_time(
                Packet(PacketKind.DATA, envelope.session, [envelope]).size))
        lane = host.send_backlog
        queued = daemon.flow_stats()["outbound"]["depth"]
        peak["lane"] = max(peak["lane"], lane)
        peak["backlog"] = max(peak["backlog"],
                              lane + queued * datagram_time[0])
        if bus.sim.now + PUBLISH_INTERVAL < DURATION:
            bus.sim.schedule(PUBLISH_INTERVAL, fire, name="load")

    bus.sim.schedule(0.0, fire, name="load")
    bus.run_for(DURATION)
    bus.settle(10.0)

    outbound = bus.daemon("node00").flow_stats()["outbound"]
    return {
        "offered": counts["offered"],
        "accepted": counts["accepted"],
        "dropped": outbound["dropped"],
        "queue_high_watermark": outbound["high_watermark"],
        "queue_capacity": outbound["capacity"],
        "peak_backlog_sec": peak["backlog"],
        "peak_lane_backlog_sec": peak["lane"],
        "throughput_msgs_sec": window_deliveries[0] / DURATION,
    }


def run_ablation():
    return {"on": run_overload(True), "off": run_overload(False)}


def test_flow_control_bounds_overload(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    on, off = results["on"], results["off"]

    report = Report("ablation_flow_control")
    report.table(
        "Flow-control ablation: publisher at ~2x capacity for 5 s",
        ["flow control", "offered", "admitted", "shed", "queue hwm",
         "peak backlog (s)", "on the lane (s)", "delivered msgs/s"],
        [[name, run["offered"], run["accepted"], run["dropped"],
          f"{run['queue_high_watermark']}/{run['queue_capacity']}",
          run["peak_backlog_sec"], run["peak_lane_backlog_sec"],
          run["throughput_msgs_sec"]]
         for name, run in (("ON", on), ("OFF", off))])
    report.emit()

    # OFF: everything is admitted and nothing is shed — the excess
    # accumulates in the admission queue (live memory and latency:
    # seconds of queued send work after a 5 s burst)
    assert off["accepted"] == off["offered"]
    assert off["dropped"] == 0
    assert off["peak_backlog_sec"] > 1.0

    # ON: bounded memory — the admission queue never exceeded its cap,
    # the lane held about one datagram, the excess was shed *visibly*
    # with exact counts
    assert on["queue_high_watermark"] <= on["queue_capacity"]
    assert on["peak_lane_backlog_sec"] < 0.05
    assert on["dropped"] > 1000
    assert on["accepted"] + on["dropped"] == on["offered"]

    # ... and throughput still holds at the plateau (within 15% of the
    # drain-everything-eventually run measured over the same window)
    assert on["throughput_msgs_sec"] > 0.85 * off["throughput_msgs_sec"]
