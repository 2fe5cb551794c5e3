"""A noise-free tripwire on the steady-state publish→deliver path.

Wall-clock CI cannot see a 10% hot-path regression; a count of Python
calls can, because for a fixed seed it repeats exactly.  Three of the
ledger's workloads in miniature, built with the public API only, with
default ``BusConfig()`` and ``CostModel()`` — each load running under
``cProfile``, which counts every Python-level and builtin call
(``total.py_calls_per_msg`` in the ledger is the same count over the
full workload):

* ``fanout_small``: one publisher host and eight subscriber hosts, all
  on ``feed.equity.>``, so every frame is decoded and delivered eight
  times;
* ``sparse_interest``: the same hosts, 2,000 literal subjects, each
  subscriber wanting one in eight, so seven of eight daemons skip each
  frame at the interest gate and subject matching is probed against a
  working set far larger than any memo;
* ``typed_feed``: two publisher hosts of ~1.8 KB typed stories (two
  fragments each) and four subscriber hosts that learn the types from
  the session type plane, so every delivery decodes a typed object
  (the marshal layer's per-type readers).

Each ceiling is what the fast paths described in DESIGN.md ("Wall-clock
performance") reach, plus ~8%.  Neither may depend on set or dict
order: CI runs this file under ``PYTHONHASHSEED`` 0 and 1.

Re-baselining (only for a deliberate change to the hot path): run

    PYTHONPATH=src python tests/integration/test_call_budget.py

which prints the measured calls per message of every scenario, and set
each ceiling to that figure plus 8%, rounded up to the next ten.
"""

import cProfile
import pstats
import random

from repro.core import BusConfig, InformationBus
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor, encode,
                           standard_registry)
from repro.sim import CostModel

SUBSCRIBERS = 8
MESSAGES = 400
WARMUP = 2.0            # simulated seconds before the first publish
QUIESCE = 1.0           # simulated seconds after the last one

FANOUT_RATE = 800.0     # msgs/s, paced
#: Python + builtin calls per published message (8 deliveries each).
#: Measured 702.9 on CPython 3.11 with no table advert on a bus
#: without a router (746.6 while every subscribe broadcast an add and
#: every plane a periodic digest; 753.2 while a receiver resumed a
#: digest read at the bodies, with a top-level string payload decoded
#: in one step; 802.2 while it took four calls; 831.0 with the fast
#: paths in place, one subscription match per delivery, in the daemon,
#: and retention that only inserts; 835.0 while every stamp also read
#: the clock for an age bound; 862.6 while the client matched again;
#: 1,227.1 before the fast paths); later interpreters inline
#: comprehensions and count fewer.
CEILING = 760

SPARSE_SUBJECTS = 2000
SPARSE_RATE = 600.0     # msgs/s, paced
#: Python + builtin calls per published message (1 delivery each).
#: Measured 492.3 on CPython 3.11 with no table advert on a bus
#: without a router (541.5 while each of its 2,000 subscribes broadcast
#: an add; 548.1 while a digest read left a partial parse, with each
#: plane's periodic advert a digest of its table and a top-level string
#: payload decoded in one step; 563.2 while every plane re-sent its
#: 250-pattern table and the string decode took four calls; 590.4 with
#: literal patterns matched in one dict probe, once per delivery, and
#: retention that only inserts; 594.4 with the age-bound check on every
#: stamp; 598.4 while the client matched again; 798.8 when every probe
#: validated and walked the trie).
SPARSE_CEILING = 540

TYPED_SUBSCRIBERS = 4
TYPED_RATE = 400.0      # msgs/s, paced, the two publishers alternating
#: Python + builtin calls per published message (4 deliveries each).
#: Measured 1,278.8 on CPython 3.11 with a decode reader per object type
#: (1,653.5 while every value took the generic walk and every object
#: the constructor's checks).
TYPED_CEILING = 1390


def _calls_per_message(bus, sends, rate):
    """Make each of ``sends`` — ``(publish method, subject, payload)`` —
    at ``rate`` after a warm-up; Python calls per message over the
    load."""
    bus.run_for(WARMUP)
    start = bus.sim.now
    for n, send in enumerate(sends):
        bus.sim.schedule_at(start + n / rate, *send)
    profile = cProfile.Profile()
    profile.enable()
    bus.run_for(len(sends) / rate + QUIESCE)
    profile.disable()
    return pstats.Stats(profile).prim_calls / len(sends)


def _small_payload():
    payload = encode("0123456789a")
    assert len(payload) == 16
    return payload


def _bus():
    bus = InformationBus(seed=1993, cost=CostModel(), config=BusConfig())
    bus.add_hosts(1 + SUBSCRIBERS)
    return bus


def measure_calls_per_message():
    bus = _bus()
    received = []
    for k in range(SUBSCRIBERS):
        bus.client(f"node{k + 1:02d}", "mon").subscribe(
            "feed.equity.>",
            lambda subject, obj, info: received.append(info.seq))
    publisher = bus.client("node00", "pub")
    subjects = [f"feed.equity.s{i}" for i in range(8)]
    payload = _small_payload()
    sends = [(publisher.publish_bytes, subjects[n & 7], payload)
             for n in range(MESSAGES)]
    return _calls_per_message(bus, sends, FANOUT_RATE), received


def measure_sparse_calls_per_message():
    bus = _bus()
    received = []
    subjects = [f"mkt.s{i}.tick" for i in range(SPARSE_SUBJECTS)]
    for k in range(SUBSCRIBERS):
        client = bus.client(f"node{k + 1:02d}", "mon")
        for i in range(k, SPARSE_SUBJECTS, SUBSCRIBERS):
            client.subscribe(
                subjects[i],
                lambda subject, obj, info: received.append(info.seq))
    publisher = bus.client("node00", "pub")
    rng = random.Random(7)
    payload = _small_payload()
    sends = [(publisher.publish_bytes,
              subjects[rng.randrange(SPARSE_SUBJECTS)], payload)
             for _ in range(MESSAGES)]
    return _calls_per_message(bus, sends, SPARSE_RATE), received


def _story_registry():
    """A ``story`` shaped like the ledger's ``typed_feed`` one: three
    ints, two strings, a ``list<string>`` and a nested object."""
    registry = standard_registry()
    registry.register(TypeDescriptor("story_source", attributes=[
        AttributeSpec("name", "string"), AttributeSpec("desk", "string")]))
    registry.register(TypeDescriptor("story", attributes=[
        AttributeSpec("pub", "int"), AttributeSpec("n", "int"),
        AttributeSpec("chk", "int"), AttributeSpec("headline", "string"),
        AttributeSpec("body", "string"),
        AttributeSpec("tags", "list<string>"),
        AttributeSpec("src", "story_source")]))
    return registry


def measure_typed_calls_per_message():
    bus = InformationBus(seed=1993, cost=CostModel(), config=BusConfig())
    bus.add_hosts(2 + TYPED_SUBSCRIBERS)
    received = []
    for k in range(TYPED_SUBSCRIBERS):
        bus.client(f"node{k + 2:02d}", "mon").subscribe(
            "news.>", lambda subject, obj, info: received.append(
                (info.session, obj.get("n"))))
    rng = random.Random(7)
    stories = []
    for pub in range(2):
        registry = _story_registry()
        publisher = bus.client(f"node{pub:02d}", "feed", registry=registry)
        source = DataObject(registry, "story_source", name=f"wire{pub}",
                            desk="equities")
        for n in range(MESSAGES // 2):
            text = " ".join(rng.choice(("bus", "quote", "story", "wafer"))
                            for _ in range(400))
            stories.append((publisher.publish, f"news.equity.s{n & 7}",
                            DataObject(registry, "story", pub=pub, n=n,
                                       chk=rng.getrandbits(32),
                                       headline=text[:60],
                                       body=text[:1700].ljust(1700, "."),
                                       tags=[f"s{n & 7}", "equity"],
                                       src=source)))
    # the two publishers alternate, each in its own order
    sends = [send for pair in zip(stories[:MESSAGES // 2],
                                  stories[MESSAGES // 2:]) for send in pair]
    return _calls_per_message(bus, sends, TYPED_RATE), received


def test_calls_per_message_stay_inside_the_budget():
    per_message, received = measure_calls_per_message()
    assert len(received) == MESSAGES * SUBSCRIBERS
    assert per_message <= CEILING, (
        f"{per_message:.1f} Python calls per message on the steady-state "
        f"publish→deliver path, budget {CEILING} — a hot-path regression "
        "(or re-baseline as the module docstring says)")


def test_sparse_interest_calls_stay_inside_the_budget():
    per_message, received = measure_sparse_calls_per_message()
    assert len(received) == MESSAGES     # each subject has one consumer
    assert per_message <= SPARSE_CEILING, (
        f"{per_message:.1f} Python calls per message with sparse interest, "
        f"budget {SPARSE_CEILING} — a gate or subject-matching regression "
        "(or re-baseline as the module docstring says)")


def test_typed_feed_calls_stay_inside_the_budget():
    per_message, received = measure_typed_calls_per_message()
    assert len(received) == MESSAGES * TYPED_SUBSCRIBERS
    assert per_message <= TYPED_CEILING, (
        f"{per_message:.1f} Python calls per typed message, budget "
        f"{TYPED_CEILING} — a marshal or type-plane regression "
        "(or re-baseline as the module docstring says)")


if __name__ == "__main__":
    for name, measure in (("fanout_small", measure_calls_per_message),
                          ("sparse_interest",
                           measure_sparse_calls_per_message),
                          ("typed_feed", measure_typed_calls_per_message)):
        per_message, received = measure()
        print(f"{name}: {per_message:.1f} calls/msg, "
              f"{len(received)} deliveries")
