"""Unit tests for the shared flow-control layer (core/flow.py)."""

from collections import Counter

import pytest

from repro.core.flow import (Admission, BoundedBuffer, BoundedQueue,
                             FlowConfig, POLICY_BLOCK, POLICY_DROP_NEWEST,
                             POLICY_DROP_OLDEST, PublishReceipt)
from repro.sim.trace import Tracer


# ----------------------------------------------------------------------
# BoundedQueue basics
# ----------------------------------------------------------------------
def test_accept_until_full_then_policy_applies():
    q = BoundedQueue("q", capacity=2, policy=POLICY_BLOCK)
    assert q.offer("a") is Admission.ACCEPTED
    assert q.offer("b") is Admission.ACCEPTED
    assert q.full
    assert q.offer("c") is Admission.DEFERRED
    assert list(q.items()) == ["a", "b"]


def test_drop_newest_rejects_incoming():
    q = BoundedQueue("q", capacity=1, policy=POLICY_DROP_NEWEST)
    q.offer("a")
    assert q.offer("b") is Admission.DROPPED
    assert q.take() == "a"
    assert q.stats.dropped_newest == 1


def test_drop_oldest_evicts_head():
    evicted = []
    q = BoundedQueue("q", capacity=2, policy=POLICY_DROP_OLDEST,
                     on_evict=evicted.append)
    q.offer("a")
    q.offer("b")
    assert q.offer("c") is Admission.ACCEPTED
    assert list(q.items()) == ["b", "c"]
    assert evicted == ["a"]
    assert q.stats.dropped_oldest == 1


def test_no_shed_forces_defer_even_on_drop_policies():
    for policy in (POLICY_DROP_NEWEST, POLICY_DROP_OLDEST):
        q = BoundedQueue("q", capacity=1, policy=policy)
        q.offer("a")
        assert q.offer("g", no_shed=True) is Admission.DEFERRED
        assert q.stats.dropped == 0
        assert q.take() == "a"


def test_evict_filter_protects_items():
    # guaranteed-style items (here: ints < 0) may never be evicted
    q = BoundedQueue("q", capacity=2, policy=POLICY_DROP_OLDEST,
                     evict_filter=lambda item: item >= 0)
    q.offer(-1)
    q.offer(5)
    # oldest evictable is 5, not -1
    assert q.offer(7) is Admission.ACCEPTED
    assert list(q.items()) == [-1, 7]
    # nothing evictable left beside the protected head -> defer
    q2 = BoundedQueue("q2", capacity=1, policy=POLICY_DROP_OLDEST,
                      evict_filter=lambda item: False)
    q2.offer(-1)
    assert q2.offer(9) is Admission.DEFERRED


def test_admission_truthiness():
    assert Admission.ACCEPTED
    assert not Admission.DEFERRED
    assert not Admission.DROPPED


def test_invalid_policy_and_capacity_rejected():
    with pytest.raises(ValueError):
        BoundedQueue("q", capacity=0)
    with pytest.raises(ValueError):
        BoundedQueue("q", capacity=1, policy="banana")
    with pytest.raises(ValueError):
        FlowConfig(publish_policy="banana")


# ----------------------------------------------------------------------
# stats and tracing
# ----------------------------------------------------------------------
def test_stats_counters_and_high_watermark():
    q = BoundedQueue("q", capacity=3, policy=POLICY_DROP_NEWEST)
    for item in range(3):
        q.offer(item)
    q.offer(99)           # dropped
    q.take()
    q.drain()
    s = q.stats
    assert s.offered == 4
    assert s.accepted == 3
    assert s.dropped == 1
    assert s.drained == 3
    assert s.high_watermark == 3
    assert s.depth == 0
    snap = s.snapshot()
    assert snap["name"] == "q"
    assert snap["dropped"] == 1
    assert snap["high_watermark"] == 3


def test_trace_events_emitted():
    tracer = Tracer(enabled=True)
    clock = [0.0]
    q = BoundedQueue("q", capacity=1, policy=POLICY_DROP_NEWEST,
                     tracer=tracer, now=lambda: clock[0])
    q.offer("a")
    q.offer("b")                       # flow.drop
    q.offer("g", no_shed=True)         # flow.defer
    q.take()                           # flow.credit (pressured, drained)
    counts = Counter(record.category for record in tracer.records
                     if record.category.startswith("flow."))
    assert counts == {"flow.drop": 1, "flow.defer": 1, "flow.credit": 1}
    assert tracer.select("flow.drop")[0]["queue"] == "q"


# ----------------------------------------------------------------------
# credits (backpressure relief)
# ----------------------------------------------------------------------
def test_credit_fires_once_when_drained_to_resume_at():
    fired = []
    q = BoundedQueue("q", capacity=4, policy=POLICY_BLOCK)
    assert q.resume_at == 2            # half the capacity
    q.on_credit(lambda: fired.append(len(q)))
    for item in range(4):
        q.offer(item)
    assert not fired                   # full but nobody pushed back yet
    assert q.offer(99) is Admission.DEFERRED
    assert q.pressured
    q.take()                           # depth 3 > resume_at
    assert not fired
    q.take()                           # depth 2 == resume_at -> credit
    assert fired == [2]
    assert not q.pressured
    q.take()                           # no further credits until re-pressured
    assert fired == [2]
    assert q.stats.credits == 1


def test_clear_does_not_fire_credits():
    fired = []
    q = BoundedQueue("q", capacity=1)
    q.on_credit(lambda: fired.append(1))
    q.offer("a")
    q.offer("b")       # deferred -> pressured
    assert q.clear() == 1
    assert not fired
    assert not q.pressured


# ----------------------------------------------------------------------
# BoundedBuffer (keyed flavour)
# ----------------------------------------------------------------------
def test_buffer_insert_get_pop_and_policies():
    b = BoundedBuffer("b", capacity=2)
    b.insert(1, "a")
    b.insert(2, "b")
    assert b.get(1) == "a"
    assert b.pop(1) == "a"
    assert b.pop(1, "gone") == "gone"
    assert len(b) == 1
    # replacing an existing key never counts against capacity
    b.insert(2, "b2")
    b.insert(3, "c")
    assert b.get(2) == "b2" and b.get(3) == "c"
    assert b.stats.dropped == 0


def test_buffer_drop_oldest_reports_eviction():
    b = BoundedBuffer("b", capacity=2)
    b.insert(10, "x")
    b.insert(11, "y")
    b.insert(12, "z")                  # full: the oldest entry rolls out
    assert b.get(10) is None
    assert [b.get(11), b.get(12)] == ["y", "z"]
    s = b.stats
    assert s.dropped_oldest == 1 and s.dropped_newest == 0
    assert (s.offered, s.accepted) == (3, 3)
    assert (s.depth, s.high_watermark) == (2, 2)
    assert b.pop(11) == "y"
    assert (s.drained, s.depth) == (1, 1)


def test_publish_receipt_truthiness():
    ok = PublishReceipt(Admission.ACCEPTED, 10)
    nope = PublishReceipt(Admission.DEFERRED, 10)
    assert ok and ok.accepted
    assert not nope and not nope.accepted
