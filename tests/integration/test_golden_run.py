"""Same-seed golden runs of the data path.

Two hostile fixed-seed scenarios — plain dict traffic and DataObject
traffic — each with 5 hosts, a clean warm-up that teaches every daemon
the publisher's string table and typedefs, then 12% bit-flip corruption
(CRC drops, NACK repair, RETRANS), a subscriber that joins and leaves
mid-stream, and one daemon with no interest at all (the digest gate).

``golden_run.json`` holds what they produced at the last commit that
still had ``BusConfig.wire_compression`` / ``interest_gating`` /
``type_plane`` / ``match_memo_capacity`` (PR 13), where the perf
harness's same-seed checks proved these very runs identical — delivery
sequences, trace, counters — to every one of those paths switched off.
Bit-identity of the one remaining configuration is checked against that
history, not against a second implementation.  Nothing in the file
depends on ``PYTHONHASHSEED``.

Regenerate (only for a deliberate change to what the bus puts on the
wire or when it does so)::

    PYTHONPATH=src python tests/integration/test_golden_run.py

or ``make goldens``, which runs it (and the other goldens) under two
hash seeds and fails if the second run changes a file.
"""

import hashlib
import json
import os

import pytest

from repro.core import InformationBus
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Tracer

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_run.json")
SUBJECTS = [f"feed.equity.s{i}" for i in range(8)]
MESSAGES = 80


def tick_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "tick_source", attributes=[AttributeSpec("name", "string")]))
    reg.register(TypeDescriptor(
        "tick", attributes=[
            AttributeSpec("n", "int"),
            AttributeSpec("venue", "string", required=False),
            AttributeSpec("source", "tick_source", required=False)]))
    return reg


def pivot_run(typed: bool) -> dict:
    tracer = Tracer(enabled=True)
    cost = CostModel.ideal()
    # zero wire time: the event timeline does not depend on frame length
    cost.bandwidth_bytes_per_sec = float("inf")
    if typed:
        cost.mtu = 1 << 20        # repairs never fragment
    bus = InformationBus(seed=42, cost=cost, tracer=tracer)
    bus.add_hosts(5)
    reg = tick_registry()
    if typed:
        def payload(n):
            return DataObject(reg, "tick", n=n, venue="NYSE",
                              source=DataObject(reg, "tick_source",
                                                name="feedco"))
    else:
        def payload(n):
            return {"n": n}

    def collector(box):
        return lambda s, obj, info: box.append(
            [s, obj.get("n") if typed else obj["n"]])

    inboxes = {f"node{i:02d}": [] for i in range(1, 5)}
    for address in ("node01", "node02", "node03"):
        bus.client(address, "mon").subscribe("feed.>",
                                             collector(inboxes[address]))
    late = bus.client("node04", "late")
    state = {}
    bus.sim.schedule(0.8, lambda: state.update(
        sub=late.subscribe("feed.>", collector(inboxes["node04"]))))
    bus.sim.schedule(1.8, lambda: late.unsubscribe(state["sub"]))

    publisher = bus.client("node00", "pub",
                           registry=tick_registry() if typed else None)
    for n, subject in enumerate(SUBJECTS):          # clean warm-up
        bus.sim.schedule(0.01 + n * 0.01, publisher.publish,
                         subject, payload(n))
    bus.sim.schedule(0.3, lambda: setattr(bus.lan, "corrupt_rate", 0.12))
    interval = 2.5 / MESSAGES
    for n in range(MESSAGES):
        bus.sim.schedule(0.4 + n * interval, publisher.publish,
                         SUBJECTS[n & 7], payload(n + len(SUBJECTS)))
    bus.run_for(30.0)

    daemons = bus.daemons
    session = daemons["node00"].session
    trace = [[r.time, r.category, r.fields] for r in tracer.records]

    def total(counter):
        return sum(getattr(d, counter) for d in daemons.values())

    return {
        "inboxes": inboxes,
        "corrupt_dropped": total("corrupt_dropped"),
        "unresolved_dropped": total("unresolved_dropped"),
        "typedef_unresolved_dropped": total("typedef_unresolved_dropped"),
        "skipped_frames": total("skipped_frames"),
        "decode_errors": sum(c.decode_errors for d in daemons.values()
                             for c in d.clients.values()),
        "frames_corrupted": bus.lan.frames_corrupted,
        "bytes_transmitted": bus.lan.bytes_transmitted,
        "retransmits": sum(1 for r in tracer.records
                           if r.category == "retransmit"),
        # how every receiver tracked the publisher session:
        # [delivered, duplicates, nacks_sent]
        "recv_stats": {
            address: [stats.delivered.value, stats.duplicates.value, stats.nacks_sent.value]
            for address in sorted(daemons) if address != "node00"
            for stats in [daemons[address].peers[session].stats]},
        "trace_records": len(trace),
        "trace_sha256": hashlib.sha256(
            json.dumps(trace, sort_keys=True).encode()).hexdigest(),
    }


def golden_runs() -> dict:
    return {"dict_traffic": pivot_run(typed=False),
            "typed_traffic": pivot_run(typed=True)}


@pytest.mark.parametrize("scenario", ["dict_traffic", "typed_traffic"])
def test_run_matches_golden(scenario):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)[scenario]
    run = pivot_run(typed=(scenario == "typed_traffic"))
    for key in golden:          # key by key, so a failure names what moved
        assert run[key] == golden[key], (
            f"{key} moved; if the wire or its timing changed on purpose, "
            f"regenerate with `make goldens`")
    assert set(run) == set(golden)
    # the scenario still exercises what it exists to pin
    assert run["frames_corrupted"] > 0 and run["corrupt_dropped"] > 0
    assert run["retransmits"] > 0 and run["skipped_frames"] > 0
    assert run["inboxes"]["node04"], "mid-stream subscriber heard nothing"
    assert run["decode_errors"] == 0


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        # one line per key, so a regenerated file diffs by what moved
        handle.write("{\n" + ",\n".join(
            f'"{name}": {{\n' + ",\n".join(
                f'  "{key}": {json.dumps(run[key], sort_keys=True)}'
                for key in sorted(run)) + "\n}"
            for name, run in sorted(golden_runs().items())) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
