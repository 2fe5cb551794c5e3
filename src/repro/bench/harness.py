"""The Appendix experiment harness.

Reproduces the measurement setup of the paper's Appendix: one publisher
and fourteen consumers spread over fifteen nodes on a lightly loaded
10 Mbit/s Ethernet, reliable (not guaranteed) delivery, constant message
size per run, batching ON for throughput runs and OFF for latency runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core import BusConfig, InformationBus
from ..sim.background import BackgroundTraffic
from .payloads import payload_of_size
from .stats import Summary, summarize

__all__ = ["AppendixExperiment", "ThroughputResult", "LatencyResult"]

#: Safety cap on simulated seconds per run.
_MAX_SIM_SECONDS = 600.0


@dataclass
class ThroughputResult:
    """One point on Figures 6/7/8."""

    size: int
    messages: int
    consumers: int
    subjects: int
    per_consumer_received: List[int]
    per_consumer_msgs_per_sec: List[float]
    duration: float                    # publish start -> last delivery

    @property
    def msgs_per_sec(self) -> float:
        """Mean per-consumer delivery rate (what Figure 6 plots)."""
        return summarize(self.per_consumer_msgs_per_sec).mean

    @property
    def bytes_per_sec(self) -> float:
        """Mean per-consumer byte rate (what Figures 7/8 plot)."""
        return self.msgs_per_sec * self.size

    @property
    def cumulative_msgs_per_sec(self) -> float:
        """Across all consumers ("proportional to the number of
        subscribers")."""
        return sum(self.per_consumer_msgs_per_sec)

    @property
    def delivery_ratio(self) -> float:
        expected = self.messages * self.consumers
        return sum(self.per_consumer_received) / expected if expected else 1.0

    def rate_summary(self) -> Summary:
        return summarize(self.per_consumer_msgs_per_sec)


@dataclass
class LatencyResult:
    """One point on Figure 5."""

    size: int
    samples: int
    consumers: int
    latencies: List[float] = field(repr=False, default_factory=list)
    #: frames the publisher's host sent over the run (heartbeats and
    #: repairs included)
    frames_sent: int = 0

    def summary(self) -> Summary:
        return summarize(self.latencies)

    @property
    def frames_per_msg(self) -> float:
        return self.frames_sent / self.samples if self.samples else 0.0

    @property
    def mean_ms(self) -> float:
        return self.summary().mean * 1000.0

    @property
    def ci99_ms(self) -> float:
        return self.summary().ci99 * 1000.0

    @property
    def variance_ms(self) -> float:
        """Sample variance in milliseconds² (the Appendix quotes variance
        ranges per data set)."""
        return self.summary().variance * 1e6


class AppendixExperiment:
    """Builds the paper's topology and runs one measurement per call.

    Every run constructs a fresh simulated bus, so runs are independent
    and deterministic for a given seed.  With no router on the bus, the
    10,000 subscribes of a Figure 8 consumer put nothing on the wire.
    """

    def __init__(self, seed: int = 1, nodes: int = 15, consumers: int = 14,
                 unicast_fanout: bool = False,
                 background_load: float = 0.0):
        if consumers > nodes - 1:
            raise ValueError("need a node for the publisher")
        self.seed = seed
        self.nodes = nodes
        self.consumers = consumers
        self.unicast_fanout = unicast_fanout
        #: fraction of segment bandwidth consumed by unrelated traffic
        #: ("collisions from unrelated network activity", Appendix)
        self.background_load = background_load

    # ------------------------------------------------------------------
    def _config(self, batching: bool) -> BusConfig:
        config = BusConfig()
        config.batch.enabled = batching
        config.reliable.retention = 65536   # retain the whole run
        return config

    def _build(self, batching: bool):
        # the default cost model: the calibrated SPARC/Ethernet one
        bus = InformationBus(seed=self.seed, config=self._config(batching))
        bus.add_hosts(self.nodes)
        if self.background_load > 0:
            BackgroundTraffic(bus.sim, bus.lan, load=self.background_load)
        publisher = bus.client("node00", "publisher")
        return bus, publisher

    def _subjects(self, count: int) -> List[str]:
        if count == 1:
            return ["bench.data"]
        return [f"bench.s{i:05d}.data" for i in range(count)]

    # ------------------------------------------------------------------
    def run_throughput(self, size: int, messages: int,
                       subjects: int = 1,
                       batching: bool = True) -> ThroughputResult:
        """Publish ``messages`` of ``size`` bytes flat out.

        Batching defaults ON (the Figure 6-8 configuration); pass
        ``batching=False`` for the ablation.
        """
        bus, publisher = self._build(batching=batching)
        subject_list = self._subjects(subjects)
        counts: Dict[int, int] = {}
        last_seen: Dict[int, float] = {}

        for index in range(self.consumers):
            client = bus.client(f"node{index + 1:02d}", "consumer")

            def on_message(subj, obj, info, index=index):
                counts[index] = counts.get(index, 0) + 1
                last_seen[index] = info.deliver_time

            if self.unicast_fanout:
                # ablation: each consumer listens on a private subject;
                # the publisher must transmit one copy per consumer
                client.subscribe(f"bench.unicast.c{index:02d}", on_message)
            elif subjects == 1:
                client.subscribe(subject_list[0], on_message)
            else:
                # "the fourteen consumers subscribed to all ten thousand
                # subjects" — subscribe to each one explicitly
                for subject in subject_list:
                    client.subscribe(subject, on_message)

        payload = payload_of_size(size)
        start = bus.sim.now
        if self.unicast_fanout:
            for i in range(messages):
                for index in range(self.consumers):
                    publisher.publish_bytes(
                        f"bench.unicast.c{index:02d}", payload)
        else:
            for i in range(messages):
                subject = subject_list[i % len(subject_list)]
                publisher.publish_bytes(subject, payload)
        bus.daemon("node00").flush()

        # run until deliveries stop arriving (or the cap)
        previous = -1
        while bus.sim.now - start < _MAX_SIM_SECONDS:
            bus.run_for(1.0)
            delivered = sum(counts.values())
            if delivered == previous:
                break
            previous = delivered

        received = [counts.get(i, 0) for i in range(self.consumers)]
        rates = []
        for index in range(self.consumers):
            window = last_seen.get(index, start) - start
            rates.append(counts.get(index, 0) / window if window > 0
                         else 0.0)
        duration = max(last_seen.values(), default=start) - start
        return ThroughputResult(
            size=size, messages=messages, consumers=self.consumers,
            subjects=subjects, per_consumer_received=received,
            per_consumer_msgs_per_sec=rates, duration=duration)

    # ------------------------------------------------------------------
    def run_latency(self, size: int, samples: int = 60,
                    interval: float = 0.1,
                    batching: bool = False) -> LatencyResult:
        """Paced publishing, batching OFF by default (the Figure 5
        setup); pass ``batching=True`` for the ablation."""
        bus, publisher = self._build(batching=batching)
        latencies: List[float] = []
        for index in range(self.consumers):
            client = bus.client(f"node{index + 1:02d}", "consumer")
            client.subscribe("bench.data",
                             lambda s, o, info: latencies.append(
                                 info.latency))
        payload = payload_of_size(size)
        host = bus.daemon("node00").host
        frames_before = host.frames_sent
        for i in range(samples):
            bus.sim.schedule(i * interval, publisher.publish_bytes,
                             "bench.data", payload)
        bus.run_for(samples * interval + 5.0)
        return LatencyResult(size=size, samples=samples,
                             consumers=self.consumers, latencies=latencies,
                             frames_sent=host.frames_sent - frames_before)
