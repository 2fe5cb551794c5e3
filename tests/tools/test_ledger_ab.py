"""The verdict rule of ``tools/ledger_ab.py`` (choosing-metrics §8) and
its ``--out`` record, with ``run_ledger`` stubbed (no ledger run here)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "ledger_ab", ROOT / "tools" / "ledger_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [207.0, 205.0, 208.0, 229.0, 206.0, 204.0, 209.0, 207.5, 206.5, 210.0]


def test_better_needs_nine_of_ten_pairs_and_more_than_the_parents_spread():
    verdict = load_tool().verdict
    change = [value - 35.0 for value in PARENT]
    assert verdict(PARENT, change, True, 0.25) == ("better", 10, 0)
    # eight of ten is not a gain, however large the median gap
    mixed = change[:8] + [value + 1.0 for value in PARENT[8:]]
    assert verdict(PARENT, mixed, True, 0.25) == ("within bound", 8, 2)
    # ten of ten by less than the parent's own interquartile distance
    hair = [value - 0.5 for value in PARENT]
    assert verdict(PARENT, hair, True, 0.25) == ("within bound", 10, 0)
    # a higher-is-better metric is judged the other way round
    assert verdict(PARENT, change, False, 0.25)[0] == "within bound"
    assert verdict(PARENT, [value + 35.0 for value in PARENT], False,
                   0.25) == ("better", 10, 0)


def test_worse_and_unresolved():
    verdict = load_tool().verdict
    slower = [value * 1.3 for value in PARENT]
    assert verdict(PARENT, slower, True, 0.25) == ("worse", 0, 10)
    # the parent's own spread is wider than the bound: nothing can be
    # called unchanged ...
    noisy = [100.0, 160.0, 90.0, 170.0, 95.0, 165.0, 100.0, 150.0, 92.0,
             168.0]
    same = [value * 1.01 for value in noisy]
    assert verdict(noisy, same, True, 0.25)[0] == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict(noisy, [80.0] * 10, True, 0.25)[0] in ("better",
                                                          "within bound")


def test_wall_metrics_come_from_run_py():
    assert "wall_us_per_msg" in load_tool().wall_metrics()
    assert "sim_latency_p50_ms" not in load_tool().wall_metrics()


#: what the stubbed ``resolve_rev`` answers for ``HEAD~1``
PARENT_SHA = "0123456789abcdef0123456789abcdef01234567"


def stub_runs(tool, monkeypatch, drift=0.0):
    """No export and no ledger run: the change tree's machine metrics
    are 20% below the parent's, simulated ones equal (plus ``drift`` on
    the change side's ``sim_msgs_per_s``); ``HEAD~1`` is
    :data:`PARENT_SHA`, and the export is asked for that commit."""
    machine = tool.wall_metrics()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_ledger(tree, workload, seed, seconds):
        change = tree == tool.ROOT
        metrics = {}
        for entry in manifest["end_to_end"]:
            name = entry["name"]
            if name in machine:
                value = (100.0 + seed % 3) * (0.8 if change else 1.0)
            else:
                value = 7.0 + (drift if change and name == "sim_msgs_per_s"
                               else 0.0)
            metrics[name] = {"value": value, "unit": entry["unit"]}
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics}

    def export_parent(rev, into):
        assert rev == PARENT_SHA

    monkeypatch.setattr(tool, "resolve_rev",
                        {"HEAD~1": PARENT_SHA}.__getitem__)
    monkeypatch.setattr(tool, "export_parent", export_parent)
    monkeypatch.setattr(tool, "run_ledger", run_ledger)


def test_out_writes_every_run_quartile_and_verdict(monkeypatch, tmp_path,
                                                   capsys):
    tool = load_tool()
    stub_runs(tool, monkeypatch)
    out = tmp_path / "ab.json"
    assert tool.main(["HEAD~1", "--workload", "sparse_interest",
                      "--pairs", "4", "--first-seed", "7",
                      "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["parent_rev"] == PARENT_SHA and record["failures"] == 0
    summary = record["workloads"]["sparse_interest"]
    assert summary["seeds"] == [7, 8, 9, 10]
    assert len(summary["runs"]["parent"]) == len(summary["runs"]["change"]) == 4
    assert summary["incorrect"] == []
    wall = summary["metrics"]["wall_us_per_msg"]
    assert wall["verdict"] == "better" and (wall["won"], wall["lost"]) == (4, 0)
    assert wall["parent"] == [101.0, 102.0, 100.0, 101.0]
    assert wall["parent_quartiles"] == list(tool.quartiles(wall["parent"]))
    assert wall["change_quartiles"][1] == pytest.approx(
        0.8 * wall["parent_quartiles"][1])
    assert wall["median_delta"] == pytest.approx(-0.2)
    latency = summary["metrics"]["sim_latency_p50_ms"]
    assert latency["verdict"] == "identical"
    assert latency["identical_pairs"] == 4
    assert "BETTER" in capsys.readouterr().out


def test_a_moved_simulated_metric_fails_and_is_recorded(monkeypatch,
                                                        tmp_path):
    tool = load_tool()
    stub_runs(tool, monkeypatch, drift=0.5)
    out = tmp_path / "ab.json"
    assert tool.main(["HEAD~1", "--workload", "fanout_small", "--pairs", "2",
                      "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["failures"] == 1
    rows = record["workloads"]["fanout_small"]["metrics"]
    assert rows["sim_msgs_per_s"]["verdict"] == "different"
    assert rows["sim_msgs_per_s"]["identical_pairs"] == 0


def test_a_moved_simulated_metric_says_which_way_per_pair(monkeypatch,
                                                          tmp_path, capsys):
    tool = load_tool()
    # sim_msgs_per_s is higher-is-better with a 3% bound
    assert tool.moved(7.0, 7.5, False, 0.03) == "better"
    assert tool.moved(7.0, 6.9, False, 0.03) == "worse"
    assert tool.moved(7.0, 6.5, False, 0.03) == "worse beyond bound"
    assert tool.moved(7.0, 7.5, True, 0.03) == "worse beyond bound"
    assert tool.moved(7.0, 7.0, True, 0.03) == "identical"
    stub_runs(tool, monkeypatch, drift=-0.5)
    out = tmp_path / "ab.json"
    assert tool.main(["HEAD~1", "--workload", "fanout_small", "--pairs", "2",
                      "--out", str(out)]) == 1         # exit status as before
    rows = json.loads(out.read_text())["workloads"]["fanout_small"]["metrics"]
    assert rows["sim_msgs_per_s"]["moved"] == ["worse beyond bound"] * 2
    assert "moved" not in rows["sim_latency_p50_ms"]   # identical: no list
    assert "moved  worse beyond bound, worse beyond bound" in \
        capsys.readouterr().out


def test_parent_rev_is_recorded_as_the_commit_it_names(tmp_path):
    """``--out`` keeps ``git rev-parse`` of the rev as typed, so a record
    made against ``HEAD`` still names its parent after the next commit."""
    git = ["git", "-C", str(tmp_path), "-c", "user.name=ab",
           "-c", "user.email=ab@example.invalid"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "one"],
                   check=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                         stdout=subprocess.PIPE).stdout.decode().strip()
    tool = load_tool()
    assert len(sha) == 40
    assert tool.resolve_rev("HEAD", str(tmp_path)) == sha
    assert tool.resolve_rev(sha[:10], str(tmp_path)) == sha
    with pytest.raises(SystemExit):
        tool.resolve_rev("no-such-rev", str(tmp_path))


def test_every_run_reads_and_writes_no_bytecode_cache(monkeypatch, tmp_path):
    """Both trees run in one bytecode state: no ``.pyc`` is written, and
    each run looks for cached bytecode only in a fresh, empty directory,
    so ``__pycache__`` files in either tree are never read."""
    tool = load_tool()
    seen = []

    def run(argv, **kwargs):
        env = kwargs["env"]
        cache = env["PYTHONPYCACHEPREFIX"]
        seen.append((argv, kwargs["cwd"], env["PYTHONDONTWRITEBYTECODE"],
                     cache, os.path.isdir(cache) and os.listdir(cache)))
        return subprocess.CompletedProcess(argv, 0, stdout=b'{"ok": 1}\n')

    monkeypatch.setattr(tool.subprocess, "run", run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    for tree in ("parent_tree", tool.ROOT):
        assert tool.run_ledger(tree, "fanout_small", 7, 1.0) == {"ok": 1}
    assert len(seen) == 2
    for (argv, cwd, dont_write, cache, listing), tree in zip(
            seen, ("parent_tree", tool.ROOT)):
        assert argv[:2] == [sys.executable,
                            os.path.join(tree, tool.RUN_PY)]
        assert cwd == tree and dont_write == "1"
        assert cache != str(tmp_path) and listing == []
        assert not os.path.exists(cache)        # removed after the run
    assert seen[0][3] != seen[1][3]
