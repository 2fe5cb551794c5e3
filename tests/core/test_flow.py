"""Unit tests for the shared flow-control layer (core/flow.py)."""

import dataclasses
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
    assert list(q) == ["a", "b"]


def test_drop_newest_rejects_incoming():
    q = BoundedQueue("q", capacity=1, policy=POLICY_DROP_NEWEST)
    q.offer("a")
    assert q.offer("b") is Admission.DROPPED
    assert q.take() == "a"
    assert q.dropped_newest.value == 1


def test_drop_oldest_evicts_head():
    q = BoundedQueue("q", capacity=2, policy=POLICY_DROP_OLDEST)
    q.offer("a")
    q.offer("b")
    assert q.offer("c") is Admission.ACCEPTED
    assert list(q) == ["b", "c"]
    assert q.dropped_oldest.value == 1


@pytest.mark.parametrize("policy", [POLICY_BLOCK, POLICY_DROP_NEWEST,
                                    POLICY_DROP_OLDEST])
def test_sheddable_predicate_protects_items_under_every_policy(policy):
    # guaranteed-style items (here: ints < 0) may never be shed
    q = BoundedQueue("q", capacity=2, policy=policy,
                     sheddable=lambda item: item >= 0)
    q.offer(-1)
    q.offer(5)
    # an incoming item the predicate refuses is deferred, never shed
    assert q.offer(-2) is Admission.DEFERRED
    assert q.snapshot()["dropped"] == 0
    # a sheddable one gets the policy; the protected head stays put
    expected = {POLICY_BLOCK: (Admission.DEFERRED, [-1, 5]),
                POLICY_DROP_NEWEST: (Admission.DROPPED, [-1, 5]),
                POLICY_DROP_OLDEST: (Admission.ACCEPTED, [-1, 7])}[policy]
    assert (q.offer(7), list(q)) == expected
    # nothing queued is sheddable: drop-oldest defers too
    q2 = BoundedQueue("q2", capacity=1, policy=policy,
                      sheddable=lambda item: item >= 0)
    q2.offer(-1)
    assert q2.offer(9) is {POLICY_BLOCK: Admission.DEFERRED,
                           POLICY_DROP_NEWEST: Admission.DROPPED,
                           POLICY_DROP_OLDEST: Admission.DEFERRED}[policy]
    assert list(q2) == [-1]


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


def test_admission_queue_refuses_drop_oldest():
    """The admission queue holds stamped envelopes, so evicting one
    would open a seq gap no NACK repairs: only the incoming envelope,
    not yet stamped, may be shed there."""
    with pytest.raises(ValueError, match="stamped"):
        FlowConfig(publish_policy=POLICY_DROP_OLDEST)
    for policy in (POLICY_BLOCK, POLICY_DROP_NEWEST):
        assert FlowConfig(publish_policy=policy).publish_policy == policy
    with pytest.raises(dataclasses.FrozenInstanceError):
        FlowConfig().publish_policy = POLICY_DROP_OLDEST


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
    assert q.offered.value == 4
    assert q.accepted.value == 3
    assert q.drained.value == 3
    assert q.high_watermark.value == 3
    assert q.depth.value == 0
    snap = q.snapshot()
    assert snap["name"] == "q"
    assert snap["dropped"] == 1
    assert snap["high_watermark"] == 3


def test_trace_events_emitted():
    tracer = Tracer(enabled=True)
    clock = [0.0]
    q = BoundedQueue("q", capacity=1, policy=POLICY_DROP_NEWEST,
                     sheddable=lambda item: item != "g",
                     tracer=tracer, now=lambda: clock[0])
    q.offer("a")
    q.offer("b")                       # flow.drop
    q.offer("g")                       # flow.defer
    q.take()                           # flow.credit (pressured, drained)
    counts = Counter(record.category for record in tracer.records
                     if record.category.startswith("flow."))
    assert counts == {"flow.drop": 1, "flow.defer": 1, "flow.credit": 1}
    assert tracer.select("flow.drop")[0]["queue"] == "q"


# ----------------------------------------------------------------------
# credits (backpressure relief)
# ----------------------------------------------------------------------
def test_credit_fires_once_when_drained_to_resume_at():
    tracer = Tracer(enabled=True)
    q = BoundedQueue("q", capacity=4, policy=POLICY_BLOCK, tracer=tracer)
    assert q.resume_at == 2            # half the capacity

    def credits():
        return [r["depth"] for r in tracer.select("flow.credit")]

    for item in range(4):
        q.offer(item)
    assert credits() == []             # full but nobody pushed back yet
    assert q.offer(99) is Admission.DEFERRED
    q.take()                           # depth 3 > resume_at
    assert credits() == []
    q.take()                           # depth 2 == resume_at -> credit
    assert credits() == [2]
    q.take()                           # no further credits until re-pressured
    assert credits() == [2]
    assert q.credits.value == 1
    q.offer("a")
    q.offer("b")
    q.offer("c")                       # full again, nobody pushed back
    q.take()
    assert q.credits.value == 1


def test_clear_does_not_fire_credits():
    tracer = Tracer(enabled=True)
    q = BoundedQueue("q", capacity=1, tracer=tracer)
    q.offer("a")
    q.offer("b")       # deferred -> pressured
    assert q.clear() == 1
    q.offer("c")
    q.take()           # clear() relieved the pressure without a credit
    assert q.credits.value == 0
    assert tracer.select("flow.credit") == []


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
    assert b.snapshot()["dropped"] == 0


def test_buffer_drop_oldest_reports_eviction():
    b = BoundedBuffer("b", capacity=2)
    b.insert(10, "x")
    b.insert(11, "y")
    b.insert(12, "z")                  # full: the oldest entry rolls out
    assert b.get(10) is None
    assert [b.get(11), b.get(12)] == ["y", "z"]
    assert b.dropped_oldest.value == 1 and b.dropped_newest.value == 0
    assert (b.offered.value, b.accepted.value) == (3, 3)
    assert (b.depth.value, b.high_watermark.value) == (2, 2)
    assert b.pop(11) == "y"
    assert (b.drained.value, b.depth.value) == (1, 1)


def test_publish_receipt_truthiness():
    ok = PublishReceipt(Admission.ACCEPTED, 10)
    nope = PublishReceipt(Admission.DEFERRED, 10)
    assert ok and ok.accepted
    assert not nope and not nope.accepted
