"""One subscription table per plane, and what dispatch promises.

A plane's trie maps pattern -> ``Subscription`` and is the only place
a subscription is matched: the daemon groups the matches by client in
subscription order and hands each client its own, and the client calls
the active ones without matching again.  So every registration stands
on its own (there is no refcount to get wrong), and a lane entry
carries the matches it was dispatched with.
"""

import pytest

from repro.core import BusDownError, InformationBus
from repro.sim import CostModel


def make_bus(hosts=2):
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(hosts)
    return bus


@pytest.mark.parametrize("dropped, kept", [
    ("durable", "plain"), ("plain", "durable"), ("plain", "plain")],
    ids=["durable-dropped", "plain-dropped", "two-plain"])
def test_dropping_one_of_two_subscriptions_on_a_pattern_keeps_the_other(
        dropped, kept):
    """A plain and a durable subscription on one pattern used to share
    one daemon registration: dropping either silenced the other."""
    bus = make_bus()
    got = []
    mon = bus.client("node01", "mon")
    gone = mon.subscribe("t.>", lambda s, o, i: got.append(("gone", o)),
                         durable=dropped == "durable")
    mon.subscribe("t.>", lambda s, o, i: got.append(("kept", o)),
                  durable=kept == "durable")
    pub = bus.client("node00", "pub")
    pub.publish("t.x", 1)
    bus.run_for(0.5)
    mon.unsubscribe(gone)
    pub.publish("t.x", 2)
    bus.run_for(0.5)
    assert got == [("gone", 1), ("kept", 1), ("kept", 2)]
    assert mon.messages_received == 2
    assert bus.daemons["node01"].subscription_count() == 1


def test_a_queued_envelope_keeps_the_matches_it_was_dispatched_with():
    """A slow consumer's lane entry carries the subscriptions that
    matched at dispatch: one made later is not called for it, one
    dropped while it waits is not called, and two matches are one
    message received."""
    bus = make_bus()
    calls = []

    def record(label):
        return lambda subject, obj, info: calls.append((label, obj))

    slow = bus.client("node01", "slow", service_time=0.05)
    slow.subscribe("t.>", record("early"))
    doomed = slow.subscribe("t.*", record("doomed"))
    pub = bus.client("node00", "pub")
    for n in range(3):
        pub.publish("t.x", n)
    bus.run_for(0.01)               # all three dispatched, none consumed
    assert not calls
    assert bus.daemons["node01"].metrics.get(
        "flow.deliver[node01.slow].depth").value == 3
    slow.subscribe("t.x", record("late"))
    slow.unsubscribe(doomed)
    bus.run_for(1.0)
    assert calls == [("early", 0), ("early", 1), ("early", 2)]
    assert slow.messages_received == 3
    pub.publish("t.x", 3)
    bus.run_for(1.0)
    assert calls[3:] == [("early", 3), ("late", 3)]
    assert slow.messages_received == 4


def test_a_subscribe_refused_on_a_down_host_stays_refused():
    """A subscribe that raised gave the caller no handle, so the host's
    recovery must not bring it to life; the ones made before the crash
    are reattached."""
    bus = make_bus()
    got = []
    mon = bus.client("node01", "mon")
    mon.subscribe("t.>", lambda s, o, i: got.append(("before", o)))
    bus.crash_host("node01")
    with pytest.raises(BusDownError):
        mon.subscribe("t.>", lambda s, o, i: got.append(("refused", o)))
    bus.recover_host("node01")
    bus.run_for(0.5)
    bus.client("node00", "pub").publish("t.x", 1)
    bus.run_for(0.5)
    assert got == [("before", 1)]
    assert len(mon._subscriptions) == 1
    assert bus.daemons["node01"].subscription_count() == 1


@pytest.mark.parametrize("publisher", ["node00", "node01"],
                         ids=["remote", "same-host"])
def test_co_hosted_clients_are_offered_in_subscription_order(publisher):
    """Clients are offered an envelope in the order of their first
    matching subscription, each with all of its own matches in turn."""
    bus = make_bus()
    order = []
    apps = [bus.client("node01", f"app{k}") for k in range(6)]
    for k in (3, 0, 5, 1, 4, 2):
        apps[k].subscribe("t.>", lambda s, o, i, k=k: order.append(k))
    apps[3].subscribe("t.x", lambda s, o, i: order.append("3 again"))
    bus.client(publisher, "pub").publish("t.x", 1)
    bus.run_for(0.5)
    assert order == [3, "3 again", 0, 5, 1, 4, 2]
