#!/usr/bin/env python3
"""Alternating parent/change pairs of the bus ledger, as one command.

    python3 tools/ledger_ab.py PARENT_REV [--workload W ...]
                               [--pairs 10] [--seconds 10] [--first-seed 101]
                               [--out FILE]

The parent is ``PARENT_REV`` exported (``git archive``) into a temporary
directory; the change is the working tree this file sits in.  Each pair
runs the *unchanged* ``benchmarks/ledger/run.py --workload W --seed S
--seconds ... --trace 0`` once in each tree, one after the other on a
fresh seed, alternating which tree goes first.  Both trees run in the
same bytecode state, none: every run gets ``PYTHONDONTWRITEBYTECODE=1``
and a fresh, empty ``PYTHONPYCACHEPREFIX``, so a working tree holding
``__pycache__`` files reads neither ``setup_s`` nor ``peak_rss_mb`` low
against an exported parent that holds none.  Metric names,
directions and bounds come from ``BENCHMARK.json``; which metrics are
measured on the machine (the rest are simulated, and must be identical
for one seed) comes from ``run.py``'s own ``WALL_METRICS``.

For every workload and metric it prints every run, both medians and
quartiles, the pairs won, and a verdict by the rule of the
choosing-metrics guide (section 8):

* a simulated metric is ``identical`` or ``DIFFERENT``; a different one
  also says, per pair, which way it moved: ``better``, ``worse``, or
  ``worse beyond bound`` (by more than its ``BENCHMARK.json`` bound);
* a machine metric is ``better`` when the change wins at least nine
  tenths of the pairs (ties count for neither) and the medians differ
  by more than the distance between the parent's quartiles; ``worse``
  when its median is worse than the parent's by more than the bound;
  ``unresolved`` when the parent's own spread is wider than the bound
  (unless every change run beats every parent run); else
  ``within bound``.

``--out FILE`` also writes all of it as JSON — the parent's commit id
(``git rev-parse PARENT_REV``, not the rev as typed), per workload every
run.py result line, and per metric both sides' values, quartiles, pairs
won and lost, and the verdict — so a record of the comparison can be
committed instead of a pasted table (``benchmarks/ab/``).

Exit status is non-zero on a simulated difference or a run that is not
``correct``.  Nothing under ``benchmarks/ledger/`` is written or read
except ``run.py`` itself.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "ledger", "run.py")


def resolve_rev(rev: str, repo: str = ROOT) -> str:
    """The commit id ``rev`` names in ``repo``."""
    done = subprocess.run(
        ["git", "-C", repo, "rev-parse", "--verify", "--quiet",
         rev + "^{commit}"], stdout=subprocess.PIPE)
    if done.returncode:
        raise SystemExit(f"ledger_ab: {rev!r} names no commit")
    return done.stdout.decode().strip()


def export_parent(rev: str, into: str) -> None:
    """The committed files of ``rev``, unpacked under ``into``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        raise SystemExit(f"ledger_ab: git archive {rev} failed")


def wall_metrics() -> Tuple[str, ...]:
    """``run.py``'s list of the metrics measured on the machine."""
    spec = importlib.util.spec_from_file_location(
        "ledger_run", os.path.join(ROOT, RUN_PY))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.WALL_METRICS)


def run_ledger(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` in ``tree``, reading and writing no
    bytecode cache; its driver line as a dict."""
    with tempfile.TemporaryDirectory(prefix="ledger_ab_pyc_") as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache)
        done = subprocess.run(
            [sys.executable, os.path.join(tree, RUN_PY), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, cwd=tree, env=env)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit(f"ledger_ab: run.py printed nothing in {tree}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], lower_is_better: bool,
            bound: float) -> Tuple[str, int, int]:
    """``(verdict, pairs the change won, pairs it lost)`` for one
    machine-measured metric."""
    sign = 1.0 if lower_is_better else -1.0
    # "cost": smaller is better whichever way the metric points
    p_cost = [sign * v for v in parent]
    c_cost = [sign * v for v in change]
    won = sum(1 for p, c in zip(p_cost, c_cost) if c < p)
    lost = sum(1 for p, c in zip(p_cost, c_cost) if c > p)
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    gap = sign * (c_median - p_median)          # > 0: the change is worse
    if won >= 0.9 * len(parent) and -gap > q3 - q1:
        return "better", won, lost
    if p_median and gap / abs(p_median) > bound:
        return "worse", won, lost
    spread = (q3 - q1) / abs(p_median) if p_median else 0.0
    if spread > bound and not max(c_cost) < min(p_cost):
        return "unresolved", won, lost
    return "within bound", won, lost


def moved(parent: float, change: float, lower_is_better: bool,
          bound: float) -> str:
    """Which way one pair of a simulated metric moved."""
    if change == parent:
        return "identical"
    gap = (change - parent) if lower_is_better else (parent - change)
    if gap < 0:
        return "better"
    return "worse beyond bound" if gap > bound * abs(parent) else "worse"


def summarize(seeds: List[int], parent: List[dict], change: List[dict],
              manifest: dict, machine: Tuple[str, ...]) -> dict:
    """One workload's pairs as data: every run, and per metric both
    sides' values, quartiles and the verdict (what :func:`report`
    prints and ``--out`` keeps)."""
    metrics: Dict[str, dict] = {}
    for entry in manifest["end_to_end"]:
        name = entry["name"]
        p_values = [run["metrics"][name]["value"] for run in parent]
        c_values = [run["metrics"][name]["value"] for run in change]
        row = {"unit": entry["unit"], "parent": p_values, "change": c_values}
        if name not in machine:
            row["verdict"] = ("identical" if p_values == c_values
                              else "different")
            row["identical_pairs"] = sum(
                p == c for p, c in zip(p_values, c_values))
            if row["verdict"] == "different":
                row["moved"] = [moved(p, c, entry["better"] == "lower",
                                      entry["bound"])
                                for p, c in zip(p_values, c_values)]
        else:
            what, won, lost = verdict(p_values, c_values,
                                      entry["better"] == "lower",
                                      entry["bound"])
            pq, cq = quartiles(p_values), quartiles(c_values)
            row.update(verdict=what, won=won, lost=lost,
                       bound=entry["bound"], parent_quartiles=list(pq),
                       change_quartiles=list(cq),
                       median_delta=(cq[1] - pq[1]) / pq[1] if pq[1] else 0.0)
        metrics[name] = row
    incorrect = [{"side": side, "seed": seed, "failed": run["failed"],
                  "attempted": run["attempted"]}
                 for side, runs in (("parent", parent), ("change", change))
                 for seed, run in zip(seeds, runs) if not run["correct"]]
    return {"seeds": seeds, "runs": {"parent": parent, "change": change},
            "incorrect": incorrect, "metrics": metrics}


def report(workload: str, summary: dict) -> None:
    """Print one workload's table."""
    seeds = summary["seeds"]
    print(f"\n== {workload}: {len(seeds)} pairs, seeds "
          f"{seeds[0]}..{seeds[-1]} (parent | change)")
    for run in summary["incorrect"]:
        print(f"   NOT CORRECT: {run['side']} seed {run['seed']} "
              f"({run['failed']} of {run['attempted']} failed)")
    for name, row in summary["metrics"].items():
        p_values, c_values = row["parent"], row["change"]
        if "identical_pairs" in row:
            same = row["verdict"] == "identical"
            print(f"   {name:22s} {'identical' if same else 'DIFFERENT'} "
                  f"in {row['identical_pairs']}/{len(seeds)} pairs")
            if not same:
                print("      parent " + " ".join(f"{v:.6g}" for v in p_values))
                print("      change " + " ".join(f"{v:.6g}" for v in c_values))
                print("      moved  " + ", ".join(row["moved"]))
            continue
        pq, cq = row["parent_quartiles"], row["change_quartiles"]
        print(f"   {name:22s} {row['verdict'].upper():12s} median {pq[1]:.6g}"
              f" -> {cq[1]:.6g} {row['unit']} "
              f"({100 * row['median_delta']:+.1f}%), change won "
              f"{row['won']} lost {row['lost']} of {len(seeds)}, bound "
              f"{100 * row['bound']:.0f}%")
        print(f"      parent q1/median/q3 {pq[0]:.6g}/{pq[1]:.6g}/{pq[2]:.6g}"
              "   runs " + " ".join(f"{v:.6g}" for v in p_values))
        print(f"      change q1/median/q3 {cq[0]:.6g}/{cq[1]:.6g}/{cq[2]:.6g}"
              "   runs " + " ".join(f"{v:.6g}" for v in c_values))


def _wall(run: Dict) -> float:
    return run["metrics"]["wall_us_per_msg"]["value"]


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    known = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]))
    parser.add_argument("--first-seed", type=int, default=101,
                        help="pair k runs seed first-seed + k in both trees")
    parser.add_argument("--out", metavar="FILE",
                        help="also write every run, quartile and verdict "
                             "here as JSON")
    args = parser.parse_args(argv)
    workloads = args.workload or known
    seeds = [args.first_seed + k for k in range(args.pairs)]
    machine = wall_metrics()
    parent_rev = resolve_rev(args.parent_rev)

    failures = 0
    summaries: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="ledger_ab_") as parent_tree:
        export_parent(parent_rev, parent_tree)
        for workload in workloads:
            parent_runs: List[dict] = []
            change_runs: List[dict] = []
            for k, seed in enumerate(seeds):
                order = [(parent_tree, parent_runs), (ROOT, change_runs)]
                if k % 2:
                    order.reverse()
                for tree, runs in order:
                    runs.append(run_ledger(tree, workload, seed,
                                           args.seconds))
                print(f"   {workload} seed {seed}: wall_us_per_msg "
                      f"{_wall(parent_runs[-1]):.1f} | "
                      f"{_wall(change_runs[-1]):.1f}", flush=True)
            summary = summarize(seeds, parent_runs, change_runs, manifest,
                                machine)
            report(workload, summary)
            # runs that were not correct, simulated metrics that moved
            failures += len(summary["incorrect"]) + sum(
                row["verdict"] == "different"
                for row in summary["metrics"].values())
            summaries[workload] = summary
    print("\nledger-ab:", f"{failures} FAILURE(S)" if failures else "ok")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"parent_rev": parent_rev,
                       "seconds": args.seconds, "failures": failures,
                       "workloads": summaries}, handle, indent=1)
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
