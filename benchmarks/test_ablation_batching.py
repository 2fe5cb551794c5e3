"""Ablation: the batch parameter.

"The Information Bus has a batch parameter that increases throughput by
delaying small messages, and gathering them together."  With batching
OFF the bus still gathers, without delaying anything: envelopes that
queue behind a frame the publisher's CPU is still sending leave as one
datagram the moment it is sent.  So flat out, where every publish finds
the send lane busy, OFF keeps up with ON, and large messages fill their
datagrams either way.  What the knob still buys shows when publishing is
paced below the per-packet ceiling: the lane is idle at every publish,
OFF sends one frame per message, and ON trades its ``batch_delay`` of
latency for fewer frames — the cost that explains why Figure 5 was
measured with it OFF.
"""

from statistics import median

from repro.bench import AppendixExperiment, Report

SMALL, LARGE = 64, 8000
PACED_RATE, PACED_MESSAGES = 1000.0, 1000


def run_ablation():
    experiment = AppendixExperiment(seed=10)
    out = {}
    out["small_on"] = experiment.run_throughput(SMALL, 1500, batching=True)
    out["small_off"] = experiment.run_throughput(SMALL, 1500,
                                                 batching=False)
    out["large_on"] = experiment.run_throughput(LARGE, 60, batching=True)
    out["large_off"] = experiment.run_throughput(LARGE, 60, batching=False)
    for batching, key in ((True, "paced_on"), (False, "paced_off")):
        out[key] = experiment.run_latency(SMALL, samples=PACED_MESSAGES,
                                          interval=1.0 / PACED_RATE,
                                          batching=batching)
    return out


def test_batching_gains_small_messages(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    p50 = {key: median(results[key].latencies) * 1000.0
           for key in ("paced_on", "paced_off")}

    report = Report("ablation_batching")
    report.table(
        "Batching ablation: throughput (1 pub, 14 consumers)",
        ["size (B)", "batching", "msgs/sec", "KB/sec"],
        [[SMALL, "ON", results["small_on"].msgs_per_sec,
          results["small_on"].bytes_per_sec / 1000],
         [SMALL, "OFF", results["small_off"].msgs_per_sec,
          results["small_off"].bytes_per_sec / 1000],
         [LARGE, "ON", results["large_on"].msgs_per_sec,
          results["large_on"].bytes_per_sec / 1000],
         [LARGE, "OFF", results["large_off"].msgs_per_sec,
          results["large_off"].bytes_per_sec / 1000]])
    report.table(
        f"Batching ablation: paced at {PACED_RATE:,.0f} msgs/s of {SMALL} B",
        ["batching", "frames/msg", "p50 latency (ms)"],
        [["ON", results["paced_on"].frames_per_msg, p50["paced_on"]],
         ["OFF", results["paced_off"].frames_per_msg, p50["paced_off"]]])
    report.emit()

    # flat out, gathering behind the busy lane leaves the knob little to
    # add for small messages ...
    assert results["small_off"].msgs_per_sec >= \
        0.95 * results["small_on"].msgs_per_sec
    # ... and nothing for large ones (per-byte cost dominates; a
    # 8000-byte message fills its datagrams anyway)
    ratio = results["large_on"].msgs_per_sec / \
        results["large_off"].msgs_per_sec
    assert 0.8 < ratio < 1.3
    # paced, the lane is idle at every publish: OFF sends a frame per
    # message, ON gathers for batch_delay and pays for it in latency
    assert results["paced_on"].frames_per_msg <= 0.5
    assert abs(results["paced_off"].frames_per_msg - 1.0) < 0.05
    assert p50["paced_on"] > p50["paced_off"]
