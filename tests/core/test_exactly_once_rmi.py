"""Tests for the exactly-once RMI layer and durable reply caching.

Section 3.3: "Customer-specific requirements such as exactly-once
semantics, which guarantees that the method will be executed exactly
once, even in the presence of failures, can be built on a layer above
standard RMI."
"""

from repro.core import InformationBus
from repro.core.rmi import ExactlyOnceRmiClient, RmiServer
from repro.objects import (OperationSpec, ParamSpec, TypeDescriptor,
                           standard_registry)
from repro.objects.service import ServiceObject
from repro.sim import CostModel


def counting_service(reg):
    reg.register(TypeDescriptor(
        "counter_service",
        operations=[OperationSpec("bump", params=(ParamSpec("by", "int"),),
                                  result_type="int")]))
    state = {"n": 0, "executions": 0}
    svc = ServiceObject(reg, "counter_service")

    def bump(by):
        state["executions"] += 1
        state["n"] += by
        return state["n"]

    svc.implement("bump", bump)
    return svc, state


def setup(seed=1, **server_kw):
    bus = InformationBus(seed=seed, cost=CostModel.ideal())
    bus.add_hosts(3)
    reg = standard_registry()
    svc, state = counting_service(reg)
    server = RmiServer(bus.client("node01", "svc"), "svc.counter", svc,
                       **server_kw)
    return bus, server, state


def test_normal_call_executes_once():
    bus, server, state = setup()
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.counter")
    out = []
    eo.call("bump", {"by": 5}, lambda v, e: out.append((v, e)))
    bus.run_for(2.0)
    assert out == [(5, None)]
    assert state["executions"] == 1
    assert eo.retries == 0


def test_retries_until_server_appears():
    """The server comes up late; the layer keeps retrying discovery."""
    bus = InformationBus(seed=2, cost=CostModel.ideal())
    bus.add_hosts(3)
    reg = standard_registry()
    svc, state = counting_service(reg)
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.counter",
                              retry_delay=0.3)
    out = []
    eo.call("bump", {"by": 1}, lambda v, e: out.append((v, e)))
    bus.sim.schedule(1.0, lambda: RmiServer(
        bus.client("node01", "svc"), "svc.counter", svc))
    bus.run_for(6.0)
    assert out == [(1, None)]
    assert state["executions"] == 1
    assert eo.retries >= 1


def test_retry_through_server_crash_does_not_reexecute():
    """The server executes, crashes before the client ever consumes the
    reply stream, recovers, and the retried request id is answered from
    the durable reply cache — one execution total."""
    bus, server, state = setup(seed=3, durable_replies=True)
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.counter",
                              retry_delay=0.4, call_timeout=1.0)
    out = []
    eo.call("bump", {"by": 7}, lambda v, e: out.append((v, e)))
    bus.run_for(2.0)
    assert out == [(7, None)]
    # crash the server and retry the SAME request id at the raw layer
    bus.crash_host("node01")
    bus.run_for(0.5)
    bus.recover_host("node01")
    bus.run_for(1.0)
    raw = eo.rmi
    if raw._conn is not None:       # drop the stale pre-crash connection
        raw._conn.close()
        raw._conn = None
    replayed = []
    first_request_id = list(server._reply_cache)[0]
    raw.call("bump", {"by": 7}, lambda v, e: replayed.append((v, e)),
             request_id=first_request_id)
    bus.run_for(4.0)
    assert replayed == [(7, None)]     # answered from the durable cache
    assert state["executions"] == 1    # never re-executed


def test_exactly_once_across_partition():
    """The client is partitioned from the server mid-conversation; the
    call times out and retries after healing without double execution."""
    bus, server, state = setup(seed=4, durable_replies=True)
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.counter",
                              retry_delay=0.5, call_timeout=1.0)
    # warm up the connection so the partition hits an established path
    warm = []
    eo.call("bump", {"by": 1}, lambda v, e: warm.append(v))
    bus.run_for(2.0)
    assert warm == [1]
    bus.partition({"node00"}, {"node01", "node02"})
    out = []
    eo.call("bump", {"by": 10}, lambda v, e: out.append((v, e)))
    bus.run_for(2.5)
    assert out == []           # still retrying across the partition
    bus.heal()
    bus.run_for(6.0)
    assert len(out) == 1
    value, error = out[0]
    assert error is None
    assert value == 11
    # executed exactly once no matter how many transmissions happened
    assert state["executions"] == 2    # warm-up + the partitioned call


def test_gives_up_after_attempts_exhausted(monkeypatch):
    monkeypatch.setattr(ExactlyOnceRmiClient, "ATTEMPTS", 3)
    bus = InformationBus(seed=5, cost=CostModel.ideal())
    bus.add_hosts(2)
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.ghost",
                              retry_delay=0.2)
    out = []
    eo.call("bump", {"by": 1}, lambda v, e: out.append((v, e)))
    bus.run_for(5.0)
    assert len(out) == 1
    assert out[0][0] is None
    assert "no servers" in out[0][1]
    assert eo.retries == 2      # attempts - 1


def test_remote_exception_is_not_retried():
    bus, server, state = setup(seed=6)
    server.service.implement("bump", lambda by: 1 // 0)
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.counter")
    out = []
    eo.call("bump", {"by": 1}, lambda v, e: out.append((v, e)))
    bus.run_for(3.0)
    assert len(out) == 1
    assert "ZeroDivisionError" in out[0][1]
    assert eo.retries == 0      # application errors are final


def test_client_host_recovery_rebinds():
    """The CLIENT's own host crashes and recovers mid-conversation; the
    retry layer keeps working because the stream port rebinds."""
    bus, server, state = setup(seed=7, durable_replies=True)
    eo = ExactlyOnceRmiClient(bus.client("node00", "app"), "svc.counter",
                              retry_delay=0.5, call_timeout=1.0)
    warm = []
    eo.call("bump", {"by": 1}, lambda v, e: warm.append(v))
    bus.run_for(2.0)
    assert warm == [1]
    bus.crash_host("node00")
    bus.run_for(0.5)
    bus.recover_host("node00")
    bus.run_for(1.0)
    out = []
    eo.call("bump", {"by": 2}, lambda v, e: out.append((v, e)))
    bus.run_for(6.0)
    assert out == [(3, None)]
    assert state["executions"] == 2
