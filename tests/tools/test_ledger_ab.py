"""The verdict rule of ``tools/ledger_ab.py`` (choosing-metrics §8)."""

import importlib.util
from pathlib import Path

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
