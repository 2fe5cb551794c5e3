"""Tests for the "Who's out there?" discovery protocol (Section 3.2)."""

from repro.core import InformationBus
from repro.core.discovery import Inquiry, Responder, inquiry_subject
from repro.sim import CostModel


def make_bus(n=4):
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(n)
    return bus


def test_inquiry_finds_all_responders():
    bus = make_bus()
    for i in (1, 2):
        Responder(bus.client(f"node0{i}", f"server{i}"),
                  "svc.quotes", info={"shard": i})
    results = []
    Inquiry(bus.client("node00", "client"), "svc.quotes", results.append,
            window=0.3)
    bus.run_for(1.0)
    assert len(results) == 1
    discovered = results[0]
    assert {d.responder for d in discovered} == \
        {"node01.server1", "node02.server2"}
    assert {d.info["shard"] for d in discovered} == {1, 2}
    assert all(d.service_subject == "svc.quotes" for d in discovered)


def test_inquiry_with_no_responders_completes_empty():
    bus = make_bus()
    results = []
    Inquiry(bus.client("node00", "client"), "svc.ghost", results.append,
            window=0.2)
    bus.run_for(1.0)
    assert results == [[]]


def test_enough_completes_early():
    bus = make_bus()
    for i in (1, 2, 3):
        Responder(bus.client(f"node0{i}", f"server{i}"), "svc.q")
    results = []
    Inquiry(bus.client("node00", "client"), "svc.q", results.append,
            window=10.0, enough=1)
    bus.run_for(1.0)   # far less than the window
    assert len(results) == 1
    assert len(results[0]) == 1


def test_responder_info_callable_reflects_current_state():
    bus = make_bus()
    state = {"load": 0}
    Responder(bus.client("node01", "server"), "svc.q",
              info=lambda: {"load": state["load"]})
    first, second = [], []
    Inquiry(bus.client("node00", "c1"), "svc.q", first.append, window=0.2)
    bus.run_for(1.0)
    state["load"] = 9
    Inquiry(bus.client("node00", "c2"), "svc.q", second.append, window=0.2)
    bus.run_for(1.0)
    assert first[0][0].info == {"load": 0}
    assert second[0][0].info == {"load": 9}


def test_concurrent_inquiries_do_not_cross_talk():
    bus = make_bus()
    Responder(bus.client("node01", "server"), "svc.q")
    a_results, b_results = [], []
    Inquiry(bus.client("node00", "a"), "svc.q", a_results.append, window=0.3)
    Inquiry(bus.client("node02", "b"), "svc.q", b_results.append, window=0.3)
    bus.run_for(1.0)
    assert len(a_results[0]) == 1
    assert len(b_results[0]) == 1


def test_duplicate_answers_collapsed():
    bus = make_bus()
    client = bus.client("node01", "server")
    Responder(client, "svc.q")
    Responder(client, "svc.q")   # same client answering twice
    results = []
    Inquiry(bus.client("node00", "c"), "svc.q", results.append, window=0.3)
    bus.run_for(1.0)
    assert len(results[0]) == 1


def test_stopped_responder_is_silent():
    bus = make_bus()
    responder = Responder(bus.client("node01", "server"), "svc.q")
    responder.stop()
    results = []
    Inquiry(bus.client("node00", "c"), "svc.q", results.append, window=0.2)
    bus.run_for(1.0)
    assert results == [[]]


def test_should_answer_gate():
    bus = make_bus()
    gate = {"open": False}
    Responder(bus.client("node01", "server"), "svc.q",
              should_answer=lambda: gate["open"])
    results = []
    Inquiry(bus.client("node00", "c1"), "svc.q", results.append, window=0.2)
    bus.run_for(1.0)
    assert results == [[]]
    gate["open"] = True
    Inquiry(bus.client("node00", "c2"), "svc.q", results.append, window=0.2)
    bus.run_for(1.0)
    assert len(results[1]) == 1


def test_cancel_suppresses_callback():
    bus = make_bus()
    Responder(bus.client("node01", "server"), "svc.q")
    results = []
    inquiry = Inquiry(bus.client("node00", "c"), "svc.q", results.append,
                      window=0.5)
    bus.run_for(0.01)
    inquiry.cancel()
    bus.run_for(1.0)
    assert results == []


def test_discovery_traffic_is_admin_scoped():
    """Inquiry/answer chatter must not leak into '>' subscribers."""
    bus = make_bus()
    leaked = []
    bus.client("node03", "snoop").subscribe(">", lambda s, o, i:
                                            leaked.append(s))
    Responder(bus.client("node01", "server"), "svc.q")
    Inquiry(bus.client("node00", "c"), "svc.q", lambda r: None, window=0.2)
    bus.run_for(1.0)
    assert leaked == []
    assert inquiry_subject("svc.q") == "_discovery.svc.q"
