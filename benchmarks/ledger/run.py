#!/usr/bin/env python3
"""The bus ledger: what a publish→deliver costs, end to end and by layer.

Two ways in.

``run.py --workload W --seed N --seconds S --trace 0|1`` is the form the
benchmark driver uses: one workload, one JSON object on the last line of
standard output with ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.

``run.py [--seed N] [--workload W] [--record] [--check-repeatability]``
is for people: all four workloads, the end-to-end table with units and
bounds, then the traced per-layer table and the cross-checks.

This process never imports the bus.  Each repeat is a fresh child
(``child.py``) with ``PYTHONHASHSEED=0``, run one at a time; this file
only schedules them and does the statistics.  Metric names, units,
directions and bounds live in ``BENCHMARK.json`` at the repository root
and are read from there, so there is one copy of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")

#: Traced and profiled runs use 1/4 of the messages.
TRACE_DIVISOR = 4
#: At least this many repeats per end-to-end measurement, however long
#: one takes; at most MAX_REPEATS, however short.
MIN_REPEATS, MAX_REPEATS = 3, 12
CHILD_TIMEOUT = 150.0
#: A layer whose span share and cProfile share differ by more than this
#: many percentage points is reported as ``attribution unresolved``.
DISAGREEMENT_LIMIT = 5.0
MIN_ATTRIBUTED_SHARE = 0.9

#: Simulated-side results that must be identical in every repeat.
DETERMINISTIC = ("digest", "sim", "counters", "kernel_events", "failures",
                 "expected_deliveries", "messages", "levels")
#: End-to-end metrics measured on the machine, not in the simulator.
WALL_METRICS = ("wall_us_per_msg", "norm_cost_per_msg", "setup_s",
                "peak_rss_mb")


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

def run_child(job: dict) -> dict:
    """One repeat in a fresh interpreter; returns its result object."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, env=env, timeout=CHILD_TIMEOUT, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def per_repeat_wall_us(repeat: dict) -> float:
    return sum(repeat["walls"]) / repeat["messages"] * 1e6


def per_repeat_norm(repeat: dict) -> float:
    return sum(repeat["cpus"]) / min(repeat["cals"]) / repeat["messages"]


def nondeterminism(repeats: List[dict]) -> List[str]:
    """Keys of the simulated side that differ between repeats."""
    first = repeats[0]
    return [key for key in DETERMINISTIC
            if any(repeat[key] != first[key] for repeat in repeats[1:])]


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload until ``seconds`` of load have been timed and
    combine the repeats into the nine end-to-end metrics."""
    repeats: List[dict] = []
    timed = 0.0
    while len(repeats) < MAX_REPEATS and (
            timed < seconds or len(repeats) < MIN_REPEATS):
        repeat = run_child({"workload": workload, "seed": seed,
                            "mode": "plain"})
        repeats.append(repeat)
        timed += sum(repeat["walls"])
    first = repeats[0]
    messages = first["messages"]
    slices = range(len(first["walls"]))
    # identical work per slice in every repeat, and a neighbour can only
    # add time: the per-slice minimum is the least disturbed estimate
    wall = sum(min(r["walls"][s] for r in repeats) for s in slices)
    # the same for CPU time, in units of the calibration kernel's own
    # least disturbed timing: machine speed divides out
    cpu = sum(min(r["cpus"][s] for r in repeats) for s in slices)
    norm = cpu / min(c for r in repeats for c in r["cals"])
    sim = first["sim"]
    metrics = {
        "wall_us_per_msg": wall / messages * 1e6,
        "norm_cost_per_msg": norm / messages,
        "sim_latency_p50_ms": sim["sim_latency_p50_ms"],
        "sim_latency_p90_ms": sim["sim_latency_p90_ms"],
        "sim_msgs_per_s": sim["sim_msgs_per_s"],
        "wire_bytes_per_msg": sim["wire_bytes_per_msg"],
        "delivery_ok_ratio": 1.0 - sim["delivery_failure_ratio"],
        "setup_s": statistics.median(r["setup_s"] for r in repeats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
    }
    problems = [f"repeats differ in {key}"
                for key in nondeterminism(repeats)]
    if first["failed"]:
        problems.append(f"delivery oracle: {first['failures']}")
    cals = [c for r in repeats for c in r["cals"]]
    return {
        "workload": workload, "seed": seed, "repeats": len(repeats),
        "metrics": metrics, "problems": problems,
        "attempted": first["expected_deliveries"], "failed": first["failed"],
        "delivery_failure_ratio": sim["delivery_failure_ratio"],
        "latency_samples": sim["sim_latency_samples"],
        "sim": sim,
        "per_repeat": {
            "wall_us_per_msg": [per_repeat_wall_us(r) for r in repeats],
            "norm_cost_per_msg": [per_repeat_norm(r) for r in repeats],
            "setup_s": [r["setup_s"] for r in repeats],
            "peak_rss_mb": [r["peak_rss_mb"] for r in repeats]},
        "calibration_ms": {"median": statistics.median(cals) * 1e3,
                           "spread": spread(cals)},
    }


def spread(values: List[float]) -> float:
    """Interquartile range over the median (the driver's steadiness
    measure); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------

def trace(workload: str, seed: int) -> dict:
    """One untraced, one traced and one profiled run at a quarter of the
    messages; returns the per-layer metrics and the honesty checks."""
    os.makedirs(RESULTS, exist_ok=True)
    job = {"workload": workload, "seed": seed, "divisor": TRACE_DIVISOR}
    plain = run_child(dict(job, mode="plain"))
    traced = run_child(dict(
        job, mode="trace", plain_wall=sum(plain["walls"]),
        trace_file=os.path.join(RESULTS, f"trace_{workload}.jsonl")))
    profiled = run_child(dict(job, mode="profile"))
    report = traced["trace"]
    problems = [f"{label} run differs from the untraced run in {key}"
                for label, run in (("traced", traced),
                                   ("profiled", profiled))
                for key in nondeterminism([plain, run])]
    problems += [f"call count: {line}"
                 for line in report["count_mismatches"]]
    if report["attributed_share"] < MIN_ATTRIBUTED_SHARE:
        problems.append("attributed share %.3f < %.1f"
                        % (report["attributed_share"], MIN_ATTRIBUTED_SHARE))
    if plain["failed"]:
        problems.append(f"delivery oracle: {plain['failures']}")

    messages = plain["messages"]
    delta = plain["counters"]
    points = report["entry_points"]

    def calls(*names: str) -> int:
        return sum(points[name]["calls"] for name in names)

    def us_per_call(*names: str) -> float:
        count = calls(*names)
        return (sum(points[name]["self_s"] for name in names)
                / count * 1e6) if count else 0.0

    metrics: Dict[str, float] = {}
    for layer, row in report["layers"].items():
        metrics[f"{layer}.self_us_per_msg"] = row["self_us_per_msg"]
        metrics[f"{layer}.calls_per_msg"] = row["calls_per_msg"]
    memo = delta["wire.decode_memo.hits"] + delta["wire.decode_memo.misses"]
    flushes = calls("daemon.BusDaemon._send_batch")
    metrics.update({
        "wire.encode_calls_per_msg": calls("wire.encode_packet") / messages,
        "wire.decode_calls_per_msg": calls("wire.decode_packet") / messages,
        "wire.digest_calls_per_msg": calls("wire.read_digest") / messages,
        "wire.decode_us_per_call": us_per_call("wire.decode_packet"),
        "wire.digest_us_per_call": us_per_call("wire.read_digest"),
        "wire.decode_memo_hit_ratio":
            delta["wire.decode_memo.hits"] / memo if memo else 0.0,
        "wire.skipped_frame_ratio":
            delta["skipped_frames"] / max(delta["datagrams_received"], 1),
        "wire.frame_bytes_mean":
            delta["ethernet.bytes"] / max(delta["ethernet.frames"], 1),
        "wire.unresolved_dropped": delta["unresolved_dropped"]
        + delta["typedef_unresolved_dropped"],
        "marshal.encode_us_per_call":
            us_per_call("marshal.encode", "marshal.encode_typed"),
        "marshal.decode_us_per_call": us_per_call("marshal.decode"),
        "marshal.payload_bytes_mean": plain["payload_bytes"] / messages,
        "typeplane.typedefs_sent": delta["typedefs_sent"],
        "subjects.match_us_per_call":
            us_per_call("subjects.SubjectTrie.match",
                        "subjects.SubjectTrie.matches_anything"),
        "subjects.patterns": plain["levels"]["patterns"],
        "batching.envelopes_per_flush":
            calls("batching.Batcher.add") / flushes if flushes else 0.0,
        "reliable.retrans_per_msg": delta["retransmissions"] / messages,
        "reliable.nacks_per_msg": delta["nacks_sent"] / messages,
        "reliable.duplicates_per_msg": delta["duplicates"] / messages,
        "reliable.buffered_per_msg": delta["buffered"] / messages,
        "reliable.gaps_skipped": delta["gaps_skipped"],
        "guaranteed.ledger_writes_per_msg":
            delta["stable.writes"] / messages,
        "guaranteed.acks_per_msg": delta["acks_sent"] / messages,
        "guaranteed.republish_per_msg":
            calls("daemon.BusDaemon._republish_guaranteed") / messages,
        "flow.lane_high_watermark": plain["levels"]["lane_high_watermark"],
        "flow.dropped": delta["flow_dropped"],
        "kernel.events_per_msg": plain["kernel_events"] / messages,
        "ethernet.frames_per_msg": delta["ethernet.frames"] / messages,
        "ethernet.frames_dropped": delta["ethernet.dropped"],
        "ethernet.frames_corrupted": delta["ethernet.corrupted"],
        "ethernet.utilization": plain["sim"]["ethernet_utilization"],
        "transport.fragments_per_msg":
            delta["node.frames_sent"] / max(delta["datagrams_sent"], 1),
        "daemon.corrupt_dropped": delta["corrupt_dropped"],
    })

    # cross-check: span share of each layer against its cProfile share
    profile = profiled["profile"]
    span_total = sum(row["self_us_per_msg"]
                     for row in report["layers"].values()) \
        + max(report["other_us_per_msg"], 0.0)
    shares = {}
    for layer, row in report["layers"].items():
        span_share = 100.0 * row["self_us_per_msg"] / span_total
        profile_share = (100.0 * profile["layer_seconds"][layer]
                         / profile["total_seconds"])
        shares[layer] = (span_share, profile_share)
    metrics.update({
        "trace.overhead_ratio": sum(traced["walls"]) / sum(plain["walls"]),
        "trace.attributed_share": report["attributed_share"],
        "trace.cprofile_disagreement_max":
            max(abs(a - b) for a, b in shares.values()),
        "total.py_calls_per_msg": profile["primitive_calls"] / messages,
    })
    return {"workload": workload, "seed": seed, "metrics": metrics,
            "problems": problems, "shares": shares,
            "attempted": plain["expected_deliveries"],
            "failed": plain["failed"],
            "other_us_per_msg": report["other_us_per_msg"],
            "spans": report["spans"],
            "spans_written": report["spans_written"],
            "overhead_us": report["overhead_us"]}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def driver_line(result: dict, names: List[dict]) -> str:
    """The one JSON object the benchmark driver reads."""
    metrics = {entry["name"]: {"value": result["metrics"][entry["name"]],
                               "unit": entry["unit"]} for entry in names}
    return json.dumps({"correct": not result["problems"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_end_to_end(result: dict, spec: dict) -> None:
    print(f"\n== {result['workload']}  seed {result['seed']}  "
          f"{result['repeats']} repeats  "
          f"{result['attempted']} deliveries expected, "
          f"{result['failed']} failed  "
          f"({result['latency_samples']} latency samples)")
    print(f"   delivery_failure_ratio {result['delivery_failure_ratio']:g}"
          f"   sim_latency_p99_ms {result['sim']['sim_latency_p99_ms']:.6g} "
          "(not a manifest metric: too seed-sensitive under loss)")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        value = result["metrics"][name]
        line = (f"   {name:22s} {value:14.6g} {entry['unit']:6s} "
                f"{entry['better']:6s} bound {entry['bound']:.3g}")
        values = result["per_repeat"].get(name)
        if values:
            q1, q2, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else (values[0],) * 3)
            line += f"   per repeat q1/median/q3 {q1:.6g}/{q2:.6g}/{q3:.6g}"
            if spread(values) > entry["bound"]:
                line += "   UNRESOLVED (spread %.3f > bound)" % spread(values)
        print(line)
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def print_per_layer(result: dict, spec: dict) -> None:
    print(f"\n-- {result['workload']} per layer (traced at 1/{TRACE_DIVISOR} "
          f"the messages; {result['spans']} spans, "
          f"{result['spans_written']} written)")
    print("   layer            self µs/msg  calls/msg  span %  cProfile %")
    for layer, (span_share, profile_share) in result["shares"].items():
        flag = ("  attribution unresolved"
                if abs(span_share - profile_share) > DISAGREEMENT_LIMIT
                else "")
        print(f"   {layer:15s} {result['metrics'][layer + '.self_us_per_msg']:11.2f} "
              f"{result['metrics'][layer + '.calls_per_msg']:10.2f} "
              f"{span_share:7.1f} {profile_share:11.1f}{flag}")
    print(f"   {'other':15s} {result['other_us_per_msg']:11.2f}")
    layer_names = {f"{layer}.{suffix}" for layer in result["shares"]
                   for suffix in ("self_us_per_msg", "calls_per_msg")}
    for entry in spec["per_layer"]:
        if entry["name"] not in layer_names:
            print(f"   {entry['name']:34s} "
                  f"{result['metrics'][entry['name']]:14.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def commit_id() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        return done.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record(seed: int, results: Dict[str, dict]) -> None:
    """Append this run to the committed trajectory."""
    os.makedirs(RESULTS, exist_ok=True)
    line = {"commit": commit_id(), "seed": seed,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": {name: {"end_to_end": pair["end_to_end"]["metrics"],
                                 "per_layer": pair["per_layer"]["metrics"]}
                          for name, pair in results.items()}}
    with open(os.path.join(RESULTS, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def check_repeatability(names: List[str], seed: int, seconds: float,
                        spec: dict) -> int:
    """Two complete sets, back to back: deterministic metrics must be
    identical, machine metrics must agree within their bounds."""
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    failures = 0
    sets = [{name: measure(name, seed, seconds) for name in names}
            for _ in range(2)]
    for name in names:
        first, second = sets[0][name], sets[1][name]
        print(f"\n== {name}: set 1 vs set 2")
        for problem in first["problems"] + second["problems"]:
            print(f"   PROBLEM: {problem}")
            failures += 1
        for metric, entry in bounds.items():
            a, b = first["metrics"][metric], second["metrics"][metric]
            if metric in WALL_METRICS:
                worse = (b - a) / a if entry["better"] == "lower" \
                    else (a - b) / a
                ok = abs(worse) <= entry["bound"]
                verdict = "ok" if ok else "DISAGREE"
                print(f"   {metric:22s} {a:14.6g} {b:14.6g} "
                      f"{100 * worse:+6.2f}% worse (bound "
                      f"{100 * entry['bound']:.1f}%)  {verdict}")
            else:
                ok = a == b
                print(f"   {metric:22s} {a:14.6g} {b:14.6g} "
                      f"{'identical' if ok else 'DIFFERENT'}")
            failures += not ok
        for label, result in (("set 1", first), ("set 2", second)):
            cal = result["calibration_ms"]
            print(f"   calibration kernel {label}: median "
                  f"{cal['median']:.3f} ms, spread {100 * cal['spread']:.1f}%")
    print("\nrepeatability:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = manifest()
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=known)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true",
                        help="append this run to results/history.jsonl")
    parser.add_argument("--check-repeatability", action="store_true")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else known

    if args.check_repeatability:
        return check_repeatability(names, args.seed, args.seconds, spec)

    if args.trace is not None:          # the benchmark driver's form
        if not args.workload:
            parser.error("--trace needs --workload")
        if args.trace:
            result = trace(args.workload, args.seed)
            print_per_layer(result, spec)
            print(driver_line(result, spec["per_layer"]))
        else:
            result = measure(args.workload, args.seed, args.seconds)
            print_end_to_end(result, spec)
            print(driver_line(result, spec["end_to_end"]))
        return 1 if result["problems"] else 0

    results = {}
    for name in names:
        end_to_end = measure(name, args.seed, args.seconds)
        print_end_to_end(end_to_end, spec)
        results[name] = {"end_to_end": end_to_end}
    for name in names:
        per_layer = trace(name, args.seed)
        print_per_layer(per_layer, spec)
        results[name]["per_layer"] = per_layer
    if args.record:
        record(args.seed, results)
    bad = [p for pair in results.values() for part in pair.values()
           for p in part["problems"]]
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        # a repeat died (for one, no bus to import): no result is printed
        sys.exit(f"ledger: a measured repeat failed: {err}")
