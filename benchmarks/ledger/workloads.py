"""The four ledger workloads and the delivery oracle that checks them.

A workload is a :class:`Scenario`: a built bus, its publishers, one
:class:`Recorder` per subscriber, and the seeded inputs.  The benchmark
owns ``--seed`` and turns it into subjects, payloads and QoS choices
here; the bus itself always runs on :data:`SIM_SEED`, so its fault and
CPU-jitter streams are the environment, not the input.

Every payload carries ``(publisher, n, check)`` so the oracle can tell
exactly which publish a callback belongs to.  Small payloads are that
triple packed into one int and marshalled as its hex string; ``check``
has a seeded number of bits, so payload size (14–18 bytes) and with it
the simulated timing depend on the seed in every workload.  Recorders only append to
arrays inside the timed region; :func:`verify` judges them afterwards.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import BusClient, InformationBus, QoS
from repro.core.daemon import BusConfig
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor, encode,
                           standard_registry)
from repro.sim import CostModel

#: The simulator's own seed (loss, duplication, corruption and CPU-jitter
#: streams).  Fixed: ``--seed`` varies the inputs, never the environment.
SIM_SEED = 1993

#: Simulated seconds between the end of set-up and the first publish
#: (first adverts and heartbeats are out, send lanes are idle).
WARMUP = 2.0

#: Simulated seconds between the last paced publish and the burst.
GAP = 0.5

_CHECK_BITS = 20


def pack(pub: int, n: int, check: int) -> int:
    """One int that names a publish: what small payloads carry."""
    return (check << 32) | (pub << 28) | n


def unpack(value: int) -> Tuple[int, int, int]:
    return (value >> 28) & 0xF, value & 0xFFFFFFF, value >> 32


@dataclass
class Spec:
    """Name and size of one workload (why each exists is in
    ``BENCHMARK.json`` and the README)."""

    name: str
    messages: int          # all publishers together, both phases
    burst: int             # of which flat out at the end
    rate: float            # paced msgs/s, all publishers together
    burst_window: float    # simulated seconds allowed for the burst
    quiesce: float         # simulated seconds of silence after it
    build: Callable[["Spec", int], "Scenario"] = field(repr=False,
                                                       default=None)


class Recorder:
    """One subscriber's callback log (columns, appended in the hot path)."""

    def __init__(self, name: str):
        self.name = name
        self.sessions: Dict[str, int] = {}
        self.sess = array("B")
        self.seq = array("q")
        self.time = array("d")
        self.subject = array("H")
        self.key = array("q")        # pack(pub, n, check) read back
        self.bad_payloads = 0

    def callback(self, subject_ids: Dict[str, int], typed: bool):
        sessions = self.sessions
        add_sess, add_seq = self.sess.append, self.seq.append
        add_time, add_subject = self.time.append, self.subject.append
        add_key = self.key.append

        def on_message(subject, obj, info):
            try:
                key = (pack(obj.get("pub"), obj.get("n"), obj.get("chk"))
                       if typed else int(obj, 16))
            except Exception:
                self.bad_payloads += 1
                return
            sid = sessions.get(info.session)
            if sid is None:
                sid = sessions[info.session] = len(sessions)
            add_sess(sid)
            add_seq(info.seq)
            add_time(info.deliver_time)
            add_subject(subject_ids.get(subject, 0xFFFF))
            add_key(key)

        return on_message


@dataclass
class Scenario:
    spec: Spec
    bus: InformationBus
    publishers: List[BusClient]
    recorders: List[Recorder]
    subjects: List[str]
    #: per publisher, per message: (subject index, check, guaranteed)
    inputs: List[List[Tuple[int, int, bool]]]
    #: per publisher, per message: what to hand ``publish``
    bodies: List[list]
    typed: bool
    #: does subscriber ``r`` expect a message on subject index ``s``?
    wants: Callable[[int, int], bool]
    #: per publisher: simulated publish time of each message (filled in
    #: by :meth:`send`)
    sent_at: List[array] = field(default_factory=list)
    #: marshalled payload bytes the bus accepted (from the receipts)
    payload_bytes: int = 0
    #: run between the paced phase and the burst, if the workload changes
    #: the environment there
    before_burst: Optional[Callable[[], None]] = None

    def __post_init__(self) -> None:
        count = len(self.publishers)
        self.sent_at = [array("d") for _ in range(count)]
        # whole messages per publisher, so per-message figures divide by
        # what was actually published
        self.spec = replace(self.spec,
                            messages=self.spec.messages // count * count,
                            burst=self.spec.burst // count * count)

    @property
    def per_publisher(self) -> int:
        return self.spec.messages // len(self.publishers)

    @property
    def burst_per_publisher(self) -> int:
        return self.spec.burst // len(self.publishers)

    @property
    def paced_per_publisher(self) -> int:
        return self.per_publisher - self.burst_per_publisher

    def send(self, pub: int, n: int) -> None:
        """Publish message ``n`` of publisher ``pub`` now."""
        subject_index, _check, guaranteed = self.inputs[pub][n]
        client = self.publishers[pub]
        self.sent_at[pub].append(client.sim.now)
        subject = self.subjects[subject_index]
        if self.typed:
            receipt = client.publish(subject, self.bodies[pub][n])
        else:
            receipt = client.publish_bytes(
                subject, self.bodies[pub][n],
                QoS.GUARANTEED if guaranteed else QoS.RELIABLE)
        self.payload_bytes += receipt.size
        if not receipt.accepted:
            raise RuntimeError(f"{self.spec.name}: publish {pub}/{n} was "
                               f"{receipt.admission}")

    def expected_deliveries(self) -> int:
        total = 0
        for r in range(len(self.recorders)):
            for rows in self.inputs:
                total += sum(1 for s, _c, _g in rows if self.wants(r, s))
        return total


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def _small_inputs(rng: random.Random, publishers: int, per_pub: int,
                  pick_subject: Callable[[int], int],
                  guaranteed_every: int = 0):
    inputs, bodies = [], []
    for pub in range(publishers):
        rows, payloads = [], []
        for n in range(per_pub):
            check = rng.getrandbits(rng.randrange(4, _CHECK_BITS + 1))
            guaranteed = bool(guaranteed_every) and \
                rng.randrange(guaranteed_every) == 0
            rows.append((pick_subject(n), check, guaranteed))
            payloads.append(encode(format(pack(pub, n, check), "x")))
        inputs.append(rows)
        bodies.append(payloads)
    return inputs, bodies


def build_fanout_small(spec: Spec, seed: int) -> Scenario:
    rng = random.Random(f"{spec.name}/{seed}")
    subjects = [f"feed.equity.s{i}" for i in range(8)]
    subject_ids = {s: i for i, s in enumerate(subjects)}
    inputs, bodies = _small_inputs(rng, 1, spec.messages, lambda n: n & 7)
    bus = InformationBus(seed=SIM_SEED)
    bus.add_hosts(9)
    recorders = []
    for k in range(8):
        recorder = Recorder(f"node{k + 1:02d}.mon")
        bus.client(f"node{k + 1:02d}", "mon").subscribe(
            "feed.equity.>", recorder.callback(subject_ids, False))
        recorders.append(recorder)
    publishers = [bus.client("node00", "pub")]
    return Scenario(spec, bus, publishers, recorders, subjects, inputs,
                   bodies, False, lambda r, s: True)


_WORDS = ("bus", "subject", "publish", "daemon", "market", "equity", "wafer",
          "lot", "quote", "story", "ledger", "router", "adapter", "object",
          "type", "service", "monitor", "trade", "floor", "feed")


def _story_registry():
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


def build_typed_feed(spec: Spec, seed: int) -> Scenario:
    rng = random.Random(f"{spec.name}/{seed}")
    symbols = ["gmc", "ibm", "dec", "sun", "hp", "att", "ge", "xon", "mo",
               "ko", "pg", "mrk", "t", "f", "c", "ba"]
    subjects = [f"news.equity.{s}" for s in symbols]
    subject_ids = {s: i for i, s in enumerate(subjects)}
    per_pub = spec.messages // 2
    bus = InformationBus(seed=SIM_SEED)
    bus.add_hosts(6)
    publishers, inputs, bodies = [], [], []
    for pub in range(2):
        registry = _story_registry()
        source = DataObject(registry, "story_source",
                            name=f"wire{pub}", desk="equities")
        rows, stories = [], []
        for n in range(per_pub):
            check = rng.getrandbits(_CHECK_BITS)
            subject_index = rng.randrange(len(subjects))
            text = " ".join(rng.choice(_WORDS) for _ in range(330))
            stories.append(DataObject(
                registry, "story", pub=pub, n=n, chk=check,
                headline=text[:60], body=text[:1700].ljust(1700, "."),
                tags=[symbols[subject_index], "equity", rng.choice(_WORDS)],
                src=source))
            rows.append((subject_index, check, False))
        inputs.append(rows)
        bodies.append(stories)
        publishers.append(bus.client(f"node{pub:02d}", "feed",
                                     registry=registry))
    recorders = []
    for k in range(4):
        recorder = Recorder(f"node{k + 2:02d}.mon")
        bus.client(f"node{k + 2:02d}", "mon").subscribe(
            "news.>", recorder.callback(subject_ids, True))
        recorders.append(recorder)
    return Scenario(spec, bus, publishers, recorders, subjects, inputs,
                   bodies, True, lambda r, s: True)


def build_sparse_interest(spec: Spec, seed: int) -> Scenario:
    rng = random.Random(f"{spec.name}/{seed}")
    subjects = [f"mkt.s{i}.tick" for i in range(4000)]
    subject_ids = {s: i for i, s in enumerate(subjects)}
    inputs, bodies = _small_inputs(rng, 1, spec.messages,
                                   lambda n: rng.randrange(4000))
    bus = InformationBus(seed=SIM_SEED)
    bus.add_hosts(9)
    recorders = []
    for k in range(8):
        recorder = Recorder(f"node{k + 1:02d}.mon")
        client = bus.client(f"node{k + 1:02d}", "mon")
        callback = recorder.callback(subject_ids, False)
        for i in range(k, 4000, 8):
            client.subscribe(subjects[i], callback)
        recorders.append(recorder)
    publishers = [bus.client("node00", "pub")]
    return Scenario(spec, bus, publishers, recorders, subjects, inputs,
                   bodies, False, lambda r, s: s % 8 == r)


def build_lossy_mixed_qos(spec: Spec, seed: int) -> Scenario:
    rng = random.Random(f"{spec.name}/{seed}")
    subjects = [f"feed.fx.s{i}" for i in range(8)]
    subject_ids = {s: i for i, s in enumerate(subjects)}
    inputs, bodies = _small_inputs(rng, 2, spec.messages // 2,
                                   lambda n: n & 7, guaranteed_every=20)
    config = BusConfig()
    config.batch.enabled = True
    cost = CostModel(loss_probability=0.05, duplicate_probability=0.02,
                     reorder_jitter=0.003)
    bus = InformationBus(seed=SIM_SEED, cost=cost, config=config)
    bus.lan.corrupt_rate = 0.02
    bus.add_hosts(7)             # node06 stays idle: gate under faults
    recorders = []
    for k in range(4):
        recorder = Recorder(f"node{k + 2:02d}.mon")
        bus.client(f"node{k + 2:02d}", "mon").subscribe(
            "feed.>", recorder.callback(subject_ids, False),
            durable=(k == 0))
        recorders.append(recorder)
    publishers = [bus.client(f"node{p:02d}", "pub") for p in range(2)]
    scenario = Scenario(spec, bus, publishers, recorders, subjects, inputs,
                       bodies, False, lambda r, s: True)

    def calm() -> None:
        # Faults stay on for the 8,000 paced messages, where latency and
        # repair are measured.  A 1,000-message burst per publisher is
        # ~27 frames: under 5% loss its completion time is decided by
        # which few frames are lost (spread > 20% across seeds), so the
        # burst runs on the default wire and measures batched throughput.
        clean = CostModel()
        cost.loss_probability = clean.loss_probability
        cost.duplicate_probability = clean.duplicate_probability
        cost.reorder_jitter = clean.reorder_jitter
        bus.lan.corrupt_rate = 0.0

    scenario.before_burst = calm
    return scenario


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("fanout_small", messages=10_000, burst=2_000,
         rate=800.0, burst_window=3.0, quiesce=1.0,
         build=build_fanout_small),
    Spec("typed_feed", messages=2_500, burst=500,
         rate=100.0, burst_window=4.0, quiesce=1.0,
         build=build_typed_feed),
    Spec("sparse_interest", messages=8_000, burst=2_000,
         rate=600.0, burst_window=3.0, quiesce=1.0,
         build=build_sparse_interest),
    Spec("lossy_mixed_qos", messages=10_000, burst=2_000,
         rate=2000.0, burst_window=3.0, quiesce=15.0,
         build=build_lossy_mixed_qos),
)}


def build(name: str, seed: int, divisor: int = 1) -> Scenario:
    """The workload at ``1/divisor`` of its message count (traced and
    profiled runs use 4); rates and windows are unchanged."""
    spec = SPECS[name]
    spec = replace(spec, messages=spec.messages // divisor,
                   burst=spec.burst // divisor)
    return spec.build(spec, seed)


# ----------------------------------------------------------------------
# the delivery oracle
# ----------------------------------------------------------------------

def verify(scenario: Scenario) -> Dict[str, int]:
    """Judge every recorded callback against the inputs.

    Returns counts of each way a delivery can fail; all zero means every
    subscriber received exactly the messages it should have, once each,
    with the payload that was published, in per-session ``seq`` order,
    and no guaranteed publish is still waiting in a ledger.
    """
    failures = {"missing": 0, "duplicate": 0, "out_of_order": 0,
                "wrong_payload": 0, "undrained_ledger": 0}
    inputs = scenario.inputs
    for r, recorder in enumerate(scenario.recorders):
        failures["wrong_payload"] += recorder.bad_payloads
        seen = [bytearray(len(rows)) for rows in inputs]
        last_seq = [0] * max(len(recorder.sessions), 1)
        for sid, seq, subject, key in zip(recorder.sess, recorder.seq,
                                          recorder.subject, recorder.key):
            if seq <= last_seq[sid]:
                failures["out_of_order"] += 1
            last_seq[sid] = seq
            pub, n, check = unpack(key)
            if pub >= len(inputs) or n >= len(inputs[pub]):
                failures["wrong_payload"] += 1
                continue
            want_subject, want_check, _g = inputs[pub][n]
            if (check != want_check or subject != want_subject
                    or not scenario.wants(r, want_subject)):
                failures["wrong_payload"] += 1
                continue
            if seen[pub][n]:
                failures["duplicate"] += 1
            seen[pub][n] = 1
        for pub, rows in enumerate(inputs):
            for n, (subject_index, _c, _g) in enumerate(rows):
                if scenario.wants(r, subject_index) and not seen[pub][n]:
                    failures["missing"] += 1
    for daemon in scenario.bus.daemons.values():
        failures["undrained_ledger"] += len(daemon.guaranteed_pending())
        for client in daemon.clients.values():
            failures["wrong_payload"] += client.decode_errors
    return failures


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sim_metrics(scenario: Scenario, burst_start: float,
                wire_bytes: int) -> Dict[str, float]:
    """The simulated-time end-to-end numbers (exact for a seed).

    Latency is over the paced phase, from the instant each publish was
    due.  Throughput is the burst's messages over the simulated time by
    which 95% of the burst's deliveries are in: the last few deliveries
    of a lossy burst wait on a heartbeat or a backed-off NACK, and
    timing to the very last one measures that lottery, not the bus.
    """
    paced = scenario.paced_per_publisher
    latencies: List[float] = []
    burst_times: List[float] = []
    for recorder in scenario.recorders:
        for time, key in zip(recorder.time, recorder.key):
            pub, n, _check = unpack(key)
            if pub >= len(scenario.sent_at) or \
                    n >= len(scenario.sent_at[pub]):
                continue
            if n < paced:
                latencies.append(time - scenario.sent_at[pub][n])
            else:
                burst_times.append(time - burst_start)
    latencies.sort()
    burst_times.sort()
    return {
        "sim_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_latency_p90_ms": percentile(latencies, 90) * 1e3,
        "sim_latency_p99_ms": percentile(latencies, 99) * 1e3,
        "sim_latency_samples": len(latencies),
        "sim_msgs_per_s": scenario.spec.burst / percentile(burst_times, 95),
        "wire_bytes_per_msg": wire_bytes / scenario.spec.messages,
    }
