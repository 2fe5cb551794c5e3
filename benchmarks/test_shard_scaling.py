"""Subject-space sharding: simulated-time fan-out drain at 1 vs 4 planes.

Under the paper-calibrated cost model the per-packet CPU pipeline is
the daemon's fan-out ceiling.  ``BusConfig.subject_shards=4`` gives a
host four daemon planes on four CPU lanes against one shared wire; a
burst spread over subjects that hash to all four planes must drain at
least 1.5x faster.  Jitter and loss are zeroed, so the drain time is
pure pipeline shape and fully deterministic.
"""

from repro.bench import Report
from repro.core import BusConfig, InformationBus
from repro.objects import encode
from repro.sim import CostModel

MESSAGES = 600
CONSUMERS = 4
#: first elements whose crc32 lands on planes 0..3 at four shards
SHARD_FIRSTS = ("news", "feed0", "alpha", "beta")


def drain(shards: int) -> dict:
    """Burst ``MESSAGES`` publishes; simulated seconds from the first
    publish to the last delivery, and what each plane published."""
    cost = CostModel(cpu_jitter=0.0, loss_probability=0.0)
    bus = InformationBus(seed=2026, cost=cost,
                         config=BusConfig(subject_shards=shards))
    bus.add_hosts(CONSUMERS + 1)
    done = {"count": 0, "last": 0.0}

    def on_message(subject, obj, info):
        done["count"] += 1
        done["last"] = bus.sim.now

    for i in range(CONSUMERS):
        bus.client(f"node{i + 1:02d}", "consumer").subscribe(">", on_message)
    publisher = bus.client("node00", "pub")
    payload = encode({"tick": 1}, publisher.registry, inline_types=False)
    for n in range(MESSAGES):
        publisher.publish_bytes(f"{SHARD_FIRSTS[n & 3]}.tick{n & 7}", payload)
    bus.settle(180.0)
    return {"sim_seconds": round(done["last"], 4),
            "deliveries": done["count"],
            "published": [plane.published
                          for plane in bus.daemon("node00").planes]}


def run_shard_scaling():
    return {"one": drain(1), "four": drain(4)}


def test_shard_scaling(benchmark):
    results = benchmark.pedantic(run_shard_scaling, rounds=1, iterations=1)
    one, four = results["one"], results["four"]

    ratio = one["sim_seconds"] / four["sim_seconds"]
    report = Report("shard_scaling")
    report.table(
        f"Fan-out drain, {MESSAGES} msgs to {CONSUMERS} consumers "
        "(simulated time)",
        ["planes", "sim seconds", "msgs/sec", "published per plane"],
        [[1, one["sim_seconds"], MESSAGES / one["sim_seconds"],
          one["published"]],
         [4, four["sim_seconds"], MESSAGES / four["sim_seconds"],
          four["published"]]])
    report.note(f"4 planes drain {ratio:.2f}x faster (floor 1.5x)")
    report.emit()

    # nothing lost either way, and every plane carried traffic
    assert one["deliveries"] == four["deliveries"] == MESSAGES * CONSUMERS
    assert len(four["published"]) == 4 and all(four["published"])
    assert ratio >= 1.5
