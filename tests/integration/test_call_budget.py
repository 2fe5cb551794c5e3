"""A noise-free tripwire on the steady-state publish→deliver path.

Wall-clock CI cannot see a 10% hot-path regression; a count of Python
calls can, because for a fixed seed it repeats exactly.  This is the
ledger's ``fanout_small`` workload in miniature, built with the public
API only — one publisher host, eight subscriber hosts on
``feed.equity.>``, default ``BusConfig()`` and ``CostModel()`` — and the
load runs under ``cProfile``, which counts every Python-level and
builtin call (``total.py_calls_per_msg`` in the ledger is the same
count over the full workload).

The ceiling is what the fast paths described in DESIGN.md ("Wall-clock
performance") reach, plus ~8%.  It must not depend on set or dict
order: CI runs this file under ``PYTHONHASHSEED`` 0 and 1.

Re-baselining (only for a deliberate change to the hot path): run

    PYTHONPATH=src python tests/integration/test_call_budget.py

which prints the measured calls per message, and set ``CEILING`` to
that figure plus 8%, rounded up to the next ten.
"""

import cProfile
import pstats

from repro.core import BusConfig, InformationBus
from repro.objects import encode
from repro.sim import CostModel

SUBSCRIBERS = 8
MESSAGES = 400
RATE = 800.0            # msgs/s, paced
WARMUP = 2.0            # simulated seconds before the first publish
QUIESCE = 1.0           # simulated seconds after the last one

#: Python + builtin calls per published message (8 deliveries each).
#: Measured 903.7 on CPython 3.11 with the fast paths in place (1,227.1
#: before them); later interpreters inline comprehensions and count
#: fewer.
CEILING = 980


def measure_calls_per_message():
    bus = InformationBus(seed=1993, cost=CostModel(), config=BusConfig())
    bus.add_hosts(1 + SUBSCRIBERS)
    received = []
    for k in range(SUBSCRIBERS):
        bus.client(f"node{k + 1:02d}", "mon").subscribe(
            "feed.equity.>",
            lambda subject, obj, info: received.append(info.seq))
    publisher = bus.client("node00", "pub")
    subjects = [f"feed.equity.s{i}" for i in range(8)]
    payload = encode("0123456789a")
    assert len(payload) == 16
    bus.run_for(WARMUP)

    start = bus.sim.now
    for n in range(MESSAGES):
        bus.sim.schedule_at(start + n / RATE, publisher.publish_bytes,
                            subjects[n & 7], payload)
    profile = cProfile.Profile()
    profile.enable()
    bus.run_for(MESSAGES / RATE + QUIESCE)
    profile.disable()
    calls = pstats.Stats(profile).prim_calls
    return calls / MESSAGES, received


def test_calls_per_message_stay_inside_the_budget():
    per_message, received = measure_calls_per_message()
    assert len(received) == MESSAGES * SUBSCRIBERS
    assert per_message <= CEILING, (
        f"{per_message:.1f} Python calls per message on the steady-state "
        f"publish→deliver path, budget {CEILING} — a hot-path regression "
        "(or re-baseline as the module docstring says)")


if __name__ == "__main__":
    per_message, received = measure_calls_per_message()
    print(f"{per_message:.1f} calls/msg, {len(received)} deliveries")
