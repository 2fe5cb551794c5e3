"""Unit tests for bench statistics, payloads, and report formatting."""

import math

import pytest

from repro.bench import (MIN_PAYLOAD_SIZE, format_table, mean,
                         payload_of_size, summarize, variance)
from repro.bench import report as report_module
from repro.bench.report import Report
from repro.objects import decode, standard_registry


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------

def test_mean_and_variance_basics():
    assert mean([2.0, 4.0]) == 3.0
    assert variance([2.0, 4.0]) == 2.0
    assert variance([5.0]) == 0.0
    with pytest.raises(ValueError):
        mean([])


def test_summarize_known_series():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    summary = summarize(values)
    assert summary.n == 5
    assert summary.mean == 3.0
    assert summary.variance == 2.5
    assert summary.minimum == 1.0 and summary.maximum == 5.0
    # 99% CI with t(4) = 4.604: 4.604 * sqrt(2.5/5)
    assert math.isclose(summary.ci99, 4.604 * math.sqrt(0.5), rel_tol=1e-6)


def test_summarize_single_sample():
    summary = summarize([7.5])
    assert summary.mean == 7.5
    assert summary.variance == 0.0
    assert summary.ci99 == 0.0


def test_summarize_large_n_uses_normal_tail():
    values = [float(i % 10) for i in range(500)]
    summary = summarize(values)
    # with 499 df the critical value is essentially z = 2.576
    expected = 2.576 * math.sqrt(summary.variance / 500)
    assert math.isclose(summary.ci99, expected, rel_tol=0.02)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


# ----------------------------------------------------------------------
# payloads
# ----------------------------------------------------------------------

@pytest.mark.parametrize("size", [MIN_PAYLOAD_SIZE, 64, 133, 1024, 10000])
def test_payload_exact_sizes(size):
    payload = payload_of_size(size)
    assert len(payload) == size
    decode(payload, standard_registry())   # always a valid encoding


def test_payload_too_small_rejected():
    with pytest.raises(ValueError):
        payload_of_size(MIN_PAYLOAD_SIZE - 1)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table("Title", ["a", "long_header"],
                        [[1, 2.5], [30000.0, 0.001]])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "====="
    assert "long_header" in lines[2]
    assert "30,000" in text          # thousands separator
    assert "0.0010" in text          # small floats keep precision


def test_report_emits_and_persists(tmp_path, monkeypatch):
    monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
    report = Report("unit_test_report")
    report.table("T", ["x"], [[1]])
    report.note("done")
    text = report.emit()
    assert "done" in text
    saved = (tmp_path / "unit_test_report.txt").read_text()
    assert "T" in saved and "done" in saved


# ----------------------------------------------------------------------
# ascii charts
# ----------------------------------------------------------------------

def test_ascii_chart_basic_shape():
    from repro.bench import ascii_chart
    chart = ascii_chart([(1, 10.0), (2, 20.0), (3, 30.0)],
                        title="T", x_label="x", y_label="y")
    lines = chart.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "y"
    assert chart.count("*") == 3
    assert "x" in lines[-1]
    # the max appears on the top tick, min on the bottom tick
    assert any("31.5" in line or "31.0" in line or "32" in line
               for line in lines[:4])


def test_ascii_chart_monotone_series_renders_monotone():
    from repro.bench import ascii_chart
    points = [(x, float(x)) for x in range(1, 11)]
    chart = ascii_chart(points, width=40, height=10)
    rows = [line.split("|", 1)[1] for line in chart.splitlines()
            if "|" in line and not line.strip().startswith("+")]
    # star columns must increase top-to-bottom reversed = increasing
    columns = []
    for row in reversed(rows):
        for index, ch in enumerate(row):
            if ch == "*":
                columns.append(index)
    assert columns == sorted(columns)


def test_ascii_chart_error_bars():
    from repro.bench import ascii_chart
    chart = ascii_chart([(1, 10.0), (10, 10.0)], errors=[5.0, 0.0],
                        height=12, width=30)
    assert "|" in chart.split("+")[0]    # error bar glyphs in the grid


def test_ascii_chart_log_scale_rejects_nonpositive():
    import pytest
    from repro.bench import ascii_chart
    with pytest.raises(ValueError):
        ascii_chart([(0, 1.0), (10, 2.0)], log_x=True)


def test_ascii_chart_degenerate_inputs():
    from repro.bench import ascii_chart
    assert ascii_chart([]) == "(no data)"
    flat = ascii_chart([(1, 5.0), (2, 5.0)])     # zero y-range
    assert "*" in flat
    single = ascii_chart([(3, 7.0)])
    assert "*" in single
