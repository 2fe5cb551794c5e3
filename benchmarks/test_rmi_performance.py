"""RMI performance (an extension: the paper benchmarks only pub/sub).

Measures request/reply latency and sustained call rate on the calibrated
SPARC/Ethernet model, for growing result payloads.  The interesting
shape: small calls are dominated by fixed per-message costs (two CPU
passes + two wire crossings each way), so latency starts near twice the
one-way pub/sub figure and grows linearly with payload, while calls/sec
is its reciprocal.
"""

from repro.bench import Report, summarize
from repro.core import InformationBus
from repro.core.rmi import RmiClient, RmiServer
from repro.objects import (OperationSpec, ParamSpec, TypeDescriptor,
                           standard_registry)
from repro.objects.service import ServiceObject

SIZES = [0, 1000, 4000, 8000]
CALLS = 30


def build_world():
    bus = InformationBus(seed=17)
    bus.add_hosts(3)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "blob_service",
        operations=[OperationSpec("fetch",
                                  params=(ParamSpec("size", "int"),),
                                  result_type="bytes")]))
    svc = ServiceObject(reg, "blob_service")
    svc.implement("fetch", lambda size: b"\x00" * size)
    RmiServer(bus.client("node01", "blobs"), "svc.blobs", svc)
    client = RmiClient(bus.client("node00", "reader"), "svc.blobs",
                       call_timeout=30.0)
    return bus, client


def run_series():
    out = []
    for size in SIZES:
        bus, client = build_world()
        latencies = []
        state = {"start": None}

        def call_next(remaining):
            if remaining == 0:
                return
            state["start"] = bus.sim.now

            def done(value, error, remaining=remaining):
                assert error is None, error
                latencies.append(bus.sim.now - state["start"])
                call_next(remaining - 1)

            client.call("fetch", {"size": size}, done)

        call_next(CALLS)
        bus.run_for(60.0)
        summary = summarize(latencies)
        out.append((size, summary, CALLS / sum(latencies)))
    return out


def test_rmi_latency_and_rate(benchmark):
    series = benchmark.pedantic(run_series, rounds=1, iterations=1)

    report = Report("rmi_performance")
    report.table(
        "RMI request/reply performance (sequential calls, warm "
        "connection)",
        ["result bytes", "mean latency (ms)", "99% CI ± (ms)",
         "calls/sec"],
        [[size, s.mean * 1000, s.ci99 * 1000, rate]
         for size, s, rate in series])
    report.note("extension measurement: the paper's Appendix covers "
                "publish/subscribe only")
    report.emit()

    by_size = {size: (s, rate) for size, s, rate in series}
    # every call completed
    assert all(s.n == CALLS for _, s, _ in series)
    # request/reply costs about two one-way hops at the small end
    small = by_size[0][0].mean
    assert 0.001 < small < 0.02
    # latency grows with payload; rate falls
    assert by_size[8000][0].mean > 3 * small
    assert by_size[0][1] > 2 * by_size[8000][1]