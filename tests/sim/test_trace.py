"""Tests for the tracer."""

from repro.sim import Tracer, trace


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(1.0, "send", subject="a.b")
    assert list(tracer.records) == []


def test_emit_and_select():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "send", subject="a.b", size=10)
    tracer.emit(2.0, "recv", subject="a.b")
    tracer.emit(3.0, "send", subject="c.d", size=20)
    sends = tracer.select("send")
    assert len(sends) == 2
    assert tracer.select("send", subject="a.b")[0]["size"] == 10
    assert tracer.count("recv") == 1
    assert tracer.count("recv", subject="zzz") == 0


def test_listener_and_clear():
    tracer = Tracer(enabled=True)
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit(1.0, "x", k=1)
    assert seen[0].get("k") == 1
    assert seen[0]["k"] == 1
    tracer.clear()
    assert list(tracer.records) == []


def test_ring_buffer_caps_records_and_counts_drops(monkeypatch):
    monkeypatch.setattr(trace, "MAX_RECORDS", 5)
    tracer = Tracer(enabled=True)
    for i in range(8):
        tracer.emit(float(i), "tick", n=i)
    assert len(tracer.records) == 5
    assert tracer.dropped_records == 3
    # the oldest fell off the front; query helpers still work
    assert [r["n"] for r in tracer.select("tick")] == [3, 4, 5, 6, 7]
    assert tracer.count("tick") == 5
    tracer.clear()
    assert len(tracer.records) == 0
    assert tracer.dropped_records == 0


def test_unbounded_tracer_opt_in(monkeypatch):
    monkeypatch.setattr(trace, "MAX_RECORDS", None)
    tracer = Tracer(enabled=True)
    for i in range(10):
        tracer.emit(float(i), "tick")
    assert len(tracer.records) == 10
    assert tracer.dropped_records == 0
