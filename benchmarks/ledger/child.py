"""One measured repeat of one workload, in a process of its own.

``run.py`` starts this file once per (workload, repeat) with a JSON job
on the command line and reads one JSON result from the last line of
standard output.  A fresh process per repeat keeps module-global state
(the decode memo in ``core/wire.py``, id counters) identical across
repeats, so the simulated side of every repeat is bit-for-bit the same
and only the machine's timing differs.

Modes: ``plain`` (untraced; the end-to-end numbers), ``trace`` (span
wrappers from ``trace.py`` installed), ``profile`` (the load runs under
``cProfile``).
"""

import sys
import time

_T0 = time.perf_counter()          # set-up starts before the bus imports

import hashlib                     # noqa: E402
import json                        # noqa: E402
import os                          # noqa: E402
import resource                    # noqa: E402
from heapq import heappop, heappush    # noqa: E402
from importlib import util as importlib_util    # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src")]
sys.path.append(HERE)

#: Fixed simulated-time slices the load is advanced in.
SLICES = 40


def calibration_kernel() -> int:
    """A fixed pure-Python unit of work (heap, dict and bytearray ops, the
    operations the bus's hot path is made of).  Frozen: changing it
    changes the meaning of ``norm_cost_per_msg`` in every record."""
    heap: list = []
    table: dict = {}
    buf = bytearray(256)
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (x, i))
        table[x & 1023] = i
        buf[i & 255] = x & 255
        if i & 3 == 3:
            heappop(heap)
    while heap:
        heappop(heap)
    return x ^ len(table) ^ buf[17]


def timed_calibration() -> float:
    """CPU seconds one calibration kernel takes right now."""
    start = time.process_time()
    calibration_kernel()
    return time.process_time() - start


def load_ledger_trace():
    """``trace.py`` under a name that does not shadow the standard
    library's ``trace`` module."""
    spec = importlib_util.spec_from_file_location(
        "ledger_trace", os.path.join(HERE, "trace.py"))
    module = importlib_util.module_from_spec(spec)
    sys.modules["ledger_trace"] = module
    spec.loader.exec_module(module)
    return module


def counters(scenario) -> dict:
    """The program's own counters, read from its public surfaces."""
    from repro.core import wire
    bus = scenario.bus
    lan = bus.lan
    out = {
        "ethernet.frames": lan.frames_transmitted,
        "ethernet.bytes": lan.bytes_transmitted,
        "ethernet.dropped": lan.frames_dropped,
        "ethernet.corrupted": lan.frames_corrupted,
        "node.frames_sent": sum(h.frames_sent for h in bus.hosts()),
        "stable.writes": sum(h.stable.write_count for h in bus.hosts()),
    }
    memo = wire.decode_memo_stats()
    out["wire.decode_memo.hits"] = memo["hits"]
    out["wire.decode_memo.misses"] = memo["misses"]
    typedefs = wire.wire_metrics().snapshot()
    out["typedefs_sent"] = typedefs["wire.typedef.defined"]["value"]
    sums = {"published": 0, "delivered": 0, "acks_sent": 0,
            "corrupt_dropped": 0, "unresolved_dropped": 0,
            "typedef_unresolved_dropped": 0, "skipped_frames": 0,
            "retransmissions": 0, "datagrams_sent": 0,
            "datagrams_received": 0, "nacks_sent": 0, "duplicates": 0,
            "buffered": 0, "gaps_skipped": 0, "flow_dropped": 0}
    for daemon in bus.daemons.values():
        for name in ("published", "delivered", "acks_sent",
                     "corrupt_dropped", "unresolved_dropped",
                     "typedef_unresolved_dropped", "skipped_frames"):
            sums[name] += getattr(daemon, name)
        sums["retransmissions"] += daemon.sender_retransmissions()
        for key, row in daemon.metrics.snapshot().items():
            if key.startswith("transport.daemon["):
                sums[key.rsplit(".", 1)[1]] += row["value"]
            elif key.startswith("reliable.recv["):
                leaf = key.rsplit(".", 1)[1]
                if leaf in ("nacks_sent", "duplicates", "buffered",
                            "gaps_skipped"):
                    sums[leaf] += row["value"]
        for stats in daemon.flow_stats().values():
            sums["flow_dropped"] += (stats["dropped_newest"]
                                     + stats["dropped_oldest"])
    out.update(sums)
    return out


def levels(scenario) -> dict:
    """Sizes and high-water marks (read once, after the load)."""
    daemons = scenario.bus.daemons.values()
    return {
        "patterns": sum(d.subscription_count() for d in daemons),
        "lane_high_watermark": max(
            stats["high_watermark"] for d in daemons
            for name, stats in d.flow_stats().items()
            if name.startswith("deliver[")),
    }


def delivery_digest(scenario) -> str:
    """Digest of every (subscriber, session, seq, deliver_time)."""
    digest = hashlib.blake2b(digest_size=16)
    for recorder in scenario.recorders:
        digest.update(recorder.name.encode())
        digest.update(json.dumps(sorted(recorder.sessions.items())).encode())
        for column in (recorder.sess, recorder.seq, recorder.time):
            digest.update(column.tobytes())
    return digest.hexdigest()


def run(job: dict) -> dict:
    mode = job["mode"]
    import workloads
    tracer = None
    if mode == "trace":
        tracer = load_ledger_trace().SpanTracer()
        tracer.install()        # before any bus object binds a method
    scenario = workloads.build(job["workload"], job["seed"],
                               job.get("divisor", 1))
    bus, spec = scenario.bus, scenario.spec
    bus.run_for(workloads.WARMUP)
    setup_s = time.perf_counter() - _T0

    sim = bus.sim
    publishers = len(scenario.publishers)
    paced = scenario.paced_per_publisher
    interval = publishers / spec.rate
    t_start = sim.now
    paced_seconds = paced * interval
    burst_at = t_start + paced_seconds + workloads.GAP
    total = paced_seconds + workloads.GAP + spec.burst_window + spec.quiesce

    def tick(pub: int, n: int, offset: float) -> None:
        scenario.send(pub, n)
        if n + 1 < paced:
            sim.schedule_at(t_start + offset + (n + 1) * interval,
                            tick, pub, n + 1, offset)

    def burst(pub: int) -> None:
        for n in range(paced, scenario.per_publisher):
            scenario.send(pub, n)

    for pub in range(publishers):
        offset = pub * interval / publishers
        sim.schedule_at(t_start + offset, tick, pub, 0, offset)
        sim.schedule_at(burst_at, burst, pub)
    if scenario.before_burst is not None:
        sim.schedule_at(burst_at - workloads.GAP / 2, scenario.before_burst)

    before = counters(scenario)
    if tracer is not None:
        tracer.begin_load()
    profile = None
    if mode == "profile":
        import cProfile
        profile = cProfile.Profile()

    walls, cpus, cals = [], [], [timed_calibration()]
    events = 0
    for index in range(SLICES):
        deadline = t_start + total * (index + 1) / SLICES
        if profile is not None:
            profile.enable()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        events += sim.run_until(deadline)
        cpu1, wall1 = time.process_time(), time.perf_counter()
        if profile is not None:
            profile.disable()
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        cals.append(timed_calibration())
    if tracer is not None:
        tracer.end_load()
    after = counters(scenario)

    delta = {k: after[k] - before[k] for k in after}
    failures = workloads.verify(scenario)
    expected = scenario.expected_deliveries()
    result = {
        "workload": spec.name, "seed": job["seed"], "mode": mode,
        "messages": spec.messages, "expected_deliveries": expected,
        "setup_s": setup_s, "walls": walls, "cpus": cpus, "cals": cals,
        "failures": failures, "failed": sum(failures.values()),
        "digest": delivery_digest(scenario),
        "kernel_events": events,
        "counters": delta,
        "levels": levels(scenario),
        "payload_bytes": scenario.payload_bytes,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["sim"] = workloads.sim_metrics(scenario, burst_at,
                                          delta["ethernet.bytes"])
    result["sim"]["delivery_failure_ratio"] = result["failed"] / expected
    cost = bus.lan.cost
    result["sim"]["ethernet_utilization"] = (
        (delta["ethernet.bytes"] + delta["ethernet.frames"]
         * cost.frame_overhead) / cost.bandwidth_bytes_per_sec / total)
    if tracer is not None:
        result["trace"] = tracer.report(
            job.get("trace_file"), sum(walls), spec.messages,
            job.get("plain_wall"))
        result["trace"]["count_mismatches"] = count_mismatches(
            result["trace"]["entry_points"], delta, events)
    if profile is not None:
        result["profile"] = load_ledger_trace().profile_shares(profile)
    return result


def count_mismatches(entry_points: dict, delta: dict, events: int) -> list:
    """Wrapper call counts that disagree with the program's own counter
    for the same thing (a missed binding or a double wrap shows here)."""
    def calls(name):
        return entry_points[name]["calls"]

    def raised(name):
        return entry_points[name]["raised"]

    rejected = (delta["corrupt_dropped"] + delta["unresolved_dropped"]
                + delta["typedef_unresolved_dropped"])
    pairs = [
        ("wire.read_digest", calls("wire.read_digest"),
         "datagrams_received", delta["datagrams_received"]),
        ("wire.decode_packet", calls("wire.decode_packet"),
         "digests read - digests rejected - skipped_frames",
         calls("wire.read_digest") - raised("wire.read_digest")
         - delta["skipped_frames"]),
        ("wire frames rejected",
         raised("wire.read_digest") + raised("wire.decode_packet"),
         "corrupt + unresolved dropped", rejected),
        ("ethernet.EthernetSegment.transmit",
         calls("ethernet.EthernetSegment.transmit"),
         "frames_transmitted", delta["ethernet.frames"]),
        ("node.Host.send_frame", calls("node.Host.send_frame"),
         "frames_sent", delta["node.frames_sent"]),
        ("transport.DatagramSocket.sendto",
         calls("transport.DatagramSocket.sendto"),
         "datagrams_sent", delta["datagrams_sent"]),
        ("client.BusClient._deliver", calls("client.BusClient._deliver"),
         "daemon delivered", delta["delivered"]),
        ("daemon.BusDaemon.publish", calls("daemon.BusDaemon.publish"),
         "daemon published", delta["published"]),
        ("stable_storage put+append",
         calls("stable_storage.StableStore.put")
         + calls("stable_storage.StableStore.append"),
         "write_count", delta["stable.writes"]),
        ("kernel.Simulator.step", calls("kernel.Simulator.step"),
         "events fired", events),
    ]
    return [f"{name}: {seen} calls, {counter} = {value}"
            for name, seen, counter, value in pairs if seen != value]


def main() -> int:
    job = json.loads(sys.argv[1])
    result = run(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
