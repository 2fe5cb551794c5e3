"""Tests for remote method invocation (Section 3.3, Figure 2)."""

import pytest

from repro.core import InformationBus
from repro.core.rmi import RmiClient, RmiServer
from repro.objects import (AttributeSpec, DataObject, OperationSpec, ParamSpec,
                           TypeDescriptor, standard_registry)
from repro.objects.service import ServiceObject
from repro.sim import CostModel


def quote_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "quote", attributes=[AttributeSpec("symbol", "string"),
                             AttributeSpec("price", "float")]))
    reg.register(TypeDescriptor(
        "quote_service",
        operations=[
            OperationSpec("last", params=(ParamSpec("symbol", "string"),),
                          result_type="quote"),
            OperationSpec("symbols", result_type="list<string>"),
            OperationSpec("boom", result_type="int"),
        ]))
    return reg


def make_service(reg, prices=None):
    prices = prices or {"GM": 41.5, "IBM": 58.25}
    svc = ServiceObject(reg, "quote_service")
    svc.implement("last", lambda symbol: DataObject(
        reg, "quote", symbol=symbol, price=prices[symbol]))
    svc.implement("symbols", lambda: sorted(prices))
    svc.implement("boom", lambda: 1 // 0)
    return svc


def setup(n=3, seed=1, **server_kw):
    bus = InformationBus(seed=seed, cost=CostModel.ideal())
    bus.add_hosts(n)
    reg = quote_registry()
    server = RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
                       make_service(reg), **server_kw)
    return bus, reg, server


def call_sync(bus, rmi, op, args, run=2.0):
    out = []
    rmi.call(op, args, lambda value, error: out.append((value, error)))
    bus.run_for(run)
    assert len(out) == 1, f"expected one completion, got {out}"
    return out[0]


def test_basic_call_returns_decoded_object():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "last", {"symbol": "GM"})
    assert error is None
    assert value.type_name == "quote"       # client learned the type
    assert value.get("price") == 41.5
    assert server.calls_served == 1


def test_call_without_objects():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    assert value == ["GM", "IBM"]


def test_remote_exception_reported_not_raised():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "boom", {})
    assert value is None
    assert "ZeroDivisionError" in error


def test_unknown_operation_reported():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "ghost", {})
    assert value is None and "no operation" in error


def test_bad_arguments_reported():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "last", {"nope": 1})
    assert value is None and error is not None


def test_no_servers_error():
    """Discovery asks again while the call's timeout leaves room for a
    round and for the call, then reports that no server answered."""
    bus = InformationBus(seed=2, cost=CostModel.ideal())
    bus.add_hosts(2)
    rmi = RmiClient(bus.client("node00", "trader"), "svc.ghost")
    value, error = call_sync(bus, rmi, "last", {"symbol": "GM"},
                             run=rmi.call_timeout)
    assert error == "no servers discovered"


def test_connection_reused_across_calls():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    for _ in range(3):
        value, error = call_sync(bus, rmi, "symbols", {})
        assert error is None
    assert server.calls_served == 3


def test_concurrent_calls_multiplex():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    done = []
    rmi.call("last", {"symbol": "GM"}, lambda v, e: done.append(("gm", e)))
    rmi.call("last", {"symbol": "IBM"}, lambda v, e: done.append(("ibm", e)))
    rmi.call("symbols", {}, lambda v, e: done.append(("sym", e)))
    bus.run_for(2.0)
    assert sorted(k for k, e in done) == ["gm", "ibm", "sym"]
    assert all(e is None for _, e in done)


def test_duplicate_request_answered_from_cache():
    """At-most-once execution: a retried request never re-executes."""
    bus, reg, server = setup()
    counter = {"n": 0}

    def counting_symbols():
        counter["n"] += 1
        return ["X"]

    server.service.implement("symbols", counting_symbols)
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    # replay the same request id at the transport level: encode a raw
    # call frame just like the client would
    from repro.objects import encode
    first_cached = list(server._reply_cache)[0]
    conn = rmi._conn
    conn.send(encode({"kind": "call", "request_id": first_cached,
                      "op": "symbols", "args": b""}))
    bus.run_for(1.0)
    assert counter["n"] == 1   # served from the reply cache


def test_server_crash_fails_inflight_call():
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes",
                    call_timeout=3.0)
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    bus.crash_host("node01")
    out = []
    rmi.call("symbols", {}, lambda v, e: out.append((v, e)))
    bus.run_for(5.0)
    assert len(out) == 1
    assert out[0][0] is None and out[0][1] is not None


def test_multiple_servers_first_policy_picks_one():
    bus = InformationBus(seed=3, cost=CostModel.ideal())
    bus.add_hosts(4)
    reg = quote_registry()
    servers = [RmiServer(bus.client(f"node0{i}", "qsvc"), "svc.quotes",
                         make_service(reg)) for i in (1, 2)]
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes",
                    policy="first")
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    assert sum(s.calls_served for s in servers) == 1


def test_all_policy_least_loaded_chooser():
    bus = InformationBus(seed=4, cost=CostModel.ideal())
    bus.add_hosts(4)
    reg = quote_registry()
    busy = RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
                     make_service(reg), load=lambda: 100.0)
    idle = RmiServer(bus.client("node02", "qsvc"), "svc.quotes",
                     make_service(reg), load=lambda: 1.0)
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes",
                    policy="all")
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    assert idle.calls_served == 1
    assert busy.calls_served == 0


def test_exclusive_group_only_leader_answers():
    """'The servers can decide among themselves which one will respond.'"""
    bus = InformationBus(seed=5, cost=CostModel.ideal())
    bus.add_hosts(4)
    reg = quote_registry()
    primary = RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
                        make_service(reg), rank=0, exclusive=True)
    backup = RmiServer(bus.client("node02", "qsvc"), "svc.quotes",
                       make_service(reg), rank=1, exclusive=True)
    bus.run_for(1.0)   # let presence converge
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes",
                    policy="all")
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    assert primary.calls_served == 1
    assert backup.calls_served == 0


def test_exclusive_group_fails_over_on_leader_crash():
    bus = InformationBus(seed=6, cost=CostModel.ideal())
    bus.add_hosts(4)
    reg = quote_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg), rank=0, exclusive=True)
    backup = RmiServer(bus.client("node02", "qsvc"), "svc.quotes",
                       make_service(reg), rank=1, exclusive=True)
    bus.run_for(1.0)
    bus.crash_host("node01")
    bus.run_for(2.0)   # presence expires; backup becomes leader
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    assert backup.calls_served == 1


def test_server_interface_is_self_describing():
    """The client can browse the discovered interface (app-builder food)."""
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    call_sync(bus, rmi, "symbols", {})
    ops = {o["name"] for o in rmi.server_interface["operations"]}
    assert ops == {"last", "symbols", "boom"}


def test_rmi_protocol_phases():
    """Figure 2: discovery over pub/sub, then point-to-point streams."""
    bus, reg, server = setup()
    client = bus.client("node00", "trader")
    rmi = RmiClient(client, "svc.quotes")
    # before any call: no connection
    assert rmi._conn is None
    value, error = call_sync(bus, rmi, "symbols", {})
    assert error is None
    # after: a live point-to-point connection to the discovered endpoint
    assert rmi._conn is not None and rmi._conn.established
    assert rmi._conn.peer == server.endpoint


def test_hostile_stream_bytes_are_dropped_and_service_continues():
    """One malformed stream message must not escape a simulator callback:
    the nesting bomb used to raise ``RecursionError`` and the bad UTF-8
    ``UnicodeDecodeError`` — neither a ``MarshalError`` — out of
    ``_on_request`` / ``_on_reply`` and kill the run."""
    from repro.objects import encode
    hostile = [
        b"IB\x01" + b"l\x01" * 5000 + b"N",        # nesting bomb
        b"IB\x01s\x02\xff\xfe",                    # invalid UTF-8
        b"IB\x01M\x01N" + b"N",                    # metadata that is no type
        b"IB\x01o\x05quote\x01x\x01\x05price\x54",  # attribute fails its type
        b"not even the magic",
    ]
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    assert call_sync(bus, rmi, "symbols", {}) == (["GM", "IBM"], None)
    # client -> server: hostile requests on the established connection
    for data in hostile:
        rmi._conn.send(data)
    bus.run_for(1.0)
    assert server.calls_served == 1
    # server -> client: hostile replies on the server's end of it
    (server_conn,) = server._streams._conns.values()
    for data in hostile:
        server_conn.send(data)
    # ... and a well-formed reply nobody is waiting for
    server_conn.send(encode({"kind": "reply", "request_id": "ghost",
                             "ok": True, "value": b""}))
    bus.run_for(1.0)
    # both ends still work, on the same connection
    value, error = call_sync(bus, rmi, "last", {"symbol": "IBM"})
    assert error is None and value.get("price") == 58.25
    assert server.calls_served == 2
    assert rmi._conn is not None and rmi._conn.established


def test_ill_shaped_requests_are_dropped_and_service_continues():
    """A stream message that decodes fine and says ``kind == "call"`` but
    lacks a key, or holds one of the wrong type (an unhashable
    ``request_id`` used to reach the reply-cache lookup), is dropped
    like undecodable bytes — no reply, no execution, no exception."""
    from repro.objects import encode
    good = {"kind": "call", "request_id": "r1", "op": "symbols",
            "args": encode({})}
    bad = [{k: v for k, v in good.items() if k != missing}
           for missing in ("request_id", "op", "args")]
    bad += [dict(good, request_id=["r", 1]), dict(good, request_id=7),
            dict(good, op=None), dict(good, args={}), dict(good, args="x")]
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    assert call_sync(bus, rmi, "symbols", {}) == (["GM", "IBM"], None)
    replies = []
    rmi._conn.on_message = lambda data, size: replies.append(data)
    for msg in bad:
        rmi._conn.send(encode(msg))
        bus.run_for(0.5)
        assert server.calls_served == 1 and replies == []
    rmi._conn.on_message = lambda data, size: rmi._on_reply(data)
    assert call_sync(bus, rmi, "symbols", {}) == (["GM", "IBM"], None)
    assert server.calls_served == 2


def test_ill_shaped_reply_completes_the_call_with_an_error():
    """A reply that names a pending call is popped off the books before
    its body is read, so a body that is ill-shaped or fails to decode
    must still complete the call — with an error, exactly once — rather
    than raise out of the simulator and leave the caller waiting."""
    from repro.objects import encode
    bodies = [{"ok": True, "value": b"not marshalled"}, {"ok": True},
              {"ok": True, "value": "text"}, {"ok": "yes", "value": b""},
              {"ok": False}, {"ok": False, "error": 5}, {}]
    bus, reg, server = setup()
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    assert call_sync(bus, rmi, "symbols", {}) == (["GM", "IBM"], None)
    (server_conn,) = server._streams._conns.values()
    server_conn.on_message = lambda data, size: None   # the server is mute
    for n, body in enumerate(bodies):
        out = []
        rmi.call("symbols", {}, lambda value, error: out.append((value, error)),
                 request_id=f"forged{n}")
        # unhashable / missing ids name no call: ignored, not raised
        server_conn.send(encode({"kind": "reply", "request_id": [n]}))
        server_conn.send(encode({"kind": "reply", "ok": True}))
        server_conn.send(encode(dict(body, kind="reply",
                                     request_id=f"forged{n}")))
        bus.run_for(0.5)
        assert len(out) == 1 and out[0][0] is None, (body, out)
        assert out[0][1].startswith("malformed reply"), (body, out)
    assert rmi._pending == {}


def faulty_call(seed, corrupt_rate=0.0, loss_probability=0.0):
    """One call from node00 to the server on node01 of a three-host bus
    whose segment corrupts or loses frames from t = 0, after 1 s of
    warm-up; what the call reported."""
    cost = CostModel.ideal()
    cost.loss_probability = loss_probability
    bus = InformationBus(seed=seed, cost=cost)
    bus.add_hosts(3)
    bus.lan.corrupt_rate = corrupt_rate
    reg = quote_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes", make_service(reg))
    bus.run_for(1.0)
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes")
    return call_sync(bus, rmi, "symbols", {}, run=rmi.call_timeout)


@pytest.mark.parametrize("fault", [{"corrupt_rate": 0.1},
                                   {"loss_probability": 0.05}],
                         ids=["corrupt", "loss"])
def test_discovery_survives_the_faults_the_bus_repairs(fault):
    """A corrupted or lost question or answer is repaired by NACK only
    after a heartbeat reveals the gap, usually after the discovery
    window closed; discovery asks again, and every call completes (a
    single window failed 4 of these 20 seeds under corruption, and 2
    under loss)."""
    for seed in range(1, 21):
        assert faulty_call(seed, **fault) == (["GM", "IBM"], None), seed
