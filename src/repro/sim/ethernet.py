"""A shared 10 Mbit/s Ethernet broadcast segment.

This is the substrate the paper's LAN implementation runs on: "reliable
publication is implemented with Ethernet broadcast ... the same data [is]
delivered to a large number of destinations without a performance penalty"
(Section 3.1).  The segment therefore models:

* a single shared medium — frames serialize through it at the configured
  bandwidth (this is what makes bytes/sec plateau in Figure 7);
* true broadcast — one transmission is seen by every attached host, so
  latency and publisher throughput are independent of the consumer count
  (the Appendix's headline claims);
* per-receiver loss, duplication, bit corruption (:attr:`corrupt_rate`),
  and optional delivery jitter (the network "may lose, delay, and
  duplicate messages, or deliver messages out of order", Section 2);
* partitions — the host set can be split into groups that cannot hear
  each other, and later healed.
"""

from __future__ import annotations

import dataclasses
import itertools

from typing import Dict, Iterable, List, Optional, Set

from .framing import flip_random_bit
from .kernel import Simulator
from .network import BROADCAST, Address, CostModel, Frame
from .node import Host

__all__ = ["EthernetSegment"]


class EthernetSegment:
    """A broadcast domain connecting a set of :class:`Host` objects."""

    def __init__(self, sim: Simulator, name: str = "lan",
                 cost: Optional[CostModel] = None):
        self.sim = sim
        self.name = name
        self.cost = cost or CostModel()
        self._hosts: Dict[Address, Host] = {}
        #: per-segment frame-id counter (a module-global here would leak
        #: ids across simulators in one process and break same-seed
        #: reproducibility between back-to-back runs)
        self._frame_ids = itertools.count(1)
        self._medium_busy_until = 0.0
        self._partition: Optional[List[Set[Address]]] = None
        #: the segment's fault stream, held after its first use (a named
        #: stream is created once and never reset, so holding the object
        #: cannot change a draw)
        self._rng = None
        #: per-receiver probability that a frame arrives with one bit
        #: flipped.  The payload bytes are altered, the receiver's
        #: checksum fails, and the frame is dropped above the socket —
        #: exercising the NACK/ARQ repair path end-to-end.
        self.corrupt_rate = 0.0
        # traffic counters
        self.frames_transmitted = 0
        self.bytes_transmitted = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(self, host: Host) -> Host:
        if host.address in self._hosts:
            raise ValueError(f"address {host.address!r} already on {self.name}")
        self._hosts[host.address] = host
        host.segment = self
        host.cost = self.cost
        return host

    def add_host(self, address: Address) -> Host:
        """Create a host with this segment's cost model and attach it."""
        return self.attach(Host(self.sim, address, self.cost))

    def host(self, address: Address) -> Host:
        return self._hosts[address]

    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, *groups: Iterable[Address]) -> None:
        """Split the segment: frames only reach hosts in the sender's group.

        Hosts not named in any group form an implicit final group.
        """
        sets = [set(g) for g in groups]
        named = set().union(*sets) if sets else set()
        rest = set(self._hosts) - named
        if rest:
            sets.append(rest)
        self._partition = sets

    def heal(self) -> None:
        """Remove any partition; the segment is whole again."""
        self._partition = None

    def partitioned(self) -> bool:
        return self._partition is not None

    def _reachable(self, src: Address, dst: Address) -> bool:
        if self._partition is None:
            return True
        for group in self._partition:
            if src in group:
                return dst in group
        return False  # unknown sender: isolated

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Serialize ``frame`` through the medium, then deliver it.

        Called by :meth:`Host.send_frame` once the sender's CPU has emitted
        the packet.  The medium is a FIFO: if it is busy the frame waits,
        which is how unrelated traffic shows up as queueing delay.
        """
        if frame.frame_id == 0:
            frame.frame_id = next(self._frame_ids)
        tx_time = self.cost.wire_time(frame.size)
        start = max(self.sim.now, self._medium_busy_until)
        end = start + tx_time
        self._medium_busy_until = end
        self.frames_transmitted += 1
        self.bytes_transmitted += frame.size
        arrival = end + self.cost.propagation_delay
        self.sim.schedule(arrival - self.sim.now, self._deliver, frame,
                          name="ether.deliver")

    def _deliver(self, frame: Frame) -> None:
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.rng(f"ether.{self.name}")
        src = frame.src
        if frame.dst == BROADCAST:
            targets = [h for a, h in self._hosts.items() if a != src]
        else:
            host = self._hosts.get(frame.dst)
            targets = [host] if host is not None else []
        # the rates are the same for every receiver of one frame; per
        # receiver the draws stay loss -> corrupt -> duplicate -> jitter,
        # each made only when its rate is > 0
        cost = self.cost
        loss = cost.loss_probability
        corrupt = self.corrupt_rate
        duplicate = cost.duplicate_probability
        jitter = cost.reorder_jitter
        partitioned = self._partition is not None
        draw = rng.random
        for host in targets:
            if partitioned and not self._reachable(src, host.address):
                continue
            if loss > 0 and draw() < loss:
                self.frames_dropped += 1
                continue
            delivered = frame
            if corrupt > 0 and draw() < corrupt:
                delivered = self._corrupt(frame, rng)
            copies = 1
            if duplicate > 0 and draw() < duplicate:
                copies = 2
            for _ in range(copies):
                if jitter > 0:
                    self.sim.schedule(draw() * jitter, host.deliver_frame,
                                      delivered, name="ether.jitter")
                else:
                    host.deliver_frame(delivered)

    def _corrupt(self, frame: Frame, rng) -> Frame:
        """One receiver's copy of ``frame`` with a bit flipped in its bytes.

        Only this receiver's copy is altered (the medium broadcast itself
        is fine — corruption happens at the NIC).  Frames whose payload
        does not carry bytes (e.g. injected background traffic) pass
        through unchanged.
        """
        inner = frame.payload
        data = getattr(inner, "payload", inner)
        if not isinstance(data, (bytes, bytearray)) or not data:
            return frame
        self.frames_corrupted += 1
        flipped = flip_random_bit(bytes(data), rng)
        if inner is data:
            return dataclasses.replace(frame, payload=flipped)
        return dataclasses.replace(
            frame, payload=dataclasses.replace(inner, payload=flipped))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EthernetSegment {self.name} hosts={len(self._hosts)}>"
