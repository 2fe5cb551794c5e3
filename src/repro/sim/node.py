"""Fail-stop hosts.

A :class:`Host` models one workstation: it owns a CPU (serialized send and
receive processing per the :class:`~repro.sim.network.CostModel`), a set of
bound ports, crash/recover state, and a :class:`~repro.sim.stable_storage.
StableStore` that survives crashes.

Failure semantics follow Section 2 of the paper: fail-stop only.  A crashed
host silently drops every frame addressed to it and everything queued in its
CPU pipelines; volatile listener state is the owning protocol's problem
(protocols re-register on the recovery callback).

A host may expose several CPU *lanes* — independent send/receive pipelines
modelling one process pinned per core.  Lane 0 is the default everywhere, so
single-lane hosts behave exactly as before; the sharded daemon binds each
shard's sockets to its own lane so shard planes serialize independently
(the multi-core story behind ``BusConfig.subject_shards``).  The wire is
still shared: lanes contend on the same Ethernet segment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .kernel import Simulator
from .network import Address, CostModel, Frame
from .stable_storage import StableStore

if TYPE_CHECKING:  # pragma: no cover
    from .ethernet import EthernetSegment

__all__ = ["Host", "PortInUseError"]


class PortInUseError(RuntimeError):
    """Raised when binding a port that already has a listener."""


class Host:
    """One fail-stop workstation attached to an Ethernet segment."""

    def __init__(self, sim: Simulator, address: Address,
                 cost: Optional[CostModel] = None):
        self.sim = sim
        self.address = address
        self.cost = cost or CostModel()
        self.segment: Optional["EthernetSegment"] = None
        self.stable = StableStore()
        self._up = True
        #: epoch increments on every crash; stale deliveries check it
        self.epoch = 0
        self._ports: Dict[int, Callable[[Frame], None]] = {}
        #: port -> CPU lane whose receive pipeline processes its frames
        self._port_lanes: Dict[int, int] = {}
        # CPU pipelines are serialized *per lane*; lane 0 always exists
        self._send_ready_at: Dict[int, float] = {0: 0.0}
        self._recv_ready_at: Dict[int, float] = {0: 0.0}
        self._crash_listeners: List[Callable[[], None]] = []
        self._recover_listeners: List[Callable[[], None]] = []
        #: this host's CPU-noise stream, held after its first use (a
        #: named stream is created once and never reset, so holding the
        #: object cannot change a draw)
        self._cpu_rng = None
        # traffic counters (used by benches)
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    def crash(self) -> None:
        """Fail-stop: lose all volatile state, stop sending and receiving."""
        if not self._up:
            return
        self._up = False
        self.epoch += 1
        self._ports.clear()
        self._port_lanes.clear()
        for lane in self._send_ready_at:
            self._send_ready_at[lane] = self.sim.now
        for lane in self._recv_ready_at:
            self._recv_ready_at[lane] = self.sim.now
        for listener in list(self._crash_listeners):
            listener()

    def recover(self) -> None:
        """Restart the host.  Stable storage is intact; ports are empty."""
        if self._up:
            return
        self._up = True
        for listener in list(self._recover_listeners):
            listener()

    def on_crash(self, listener: Callable[[], None]) -> None:
        self._crash_listeners.append(listener)

    def on_recover(self, listener: Callable[[], None]) -> None:
        self._recover_listeners.append(listener)

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: Callable[[Frame], None],
             lane: int = 0) -> None:
        """Attach ``handler`` to ``port``.  One listener per port.

        ``lane`` selects which CPU receive pipeline serializes the port's
        inbound frames (default lane 0 — the pre-lane behaviour).
        """
        if port in self._ports:
            raise PortInUseError(f"{self.address}: port {port} already bound")
        self._ports[port] = handler
        if lane:
            self._port_lanes[port] = lane
            self._send_ready_at.setdefault(lane, 0.0)
            self._recv_ready_at.setdefault(lane, 0.0)

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)
        self._port_lanes.pop(port, None)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    @property
    def send_backlog(self) -> float:
        """Seconds of queued work in the busiest CPU send lane.

        0.0 means the next :meth:`send_frame` starts immediately.  The
        bus itself never reads it (its batcher asks
        :meth:`send_free_at`, and waits for an idle lane); the
        flow-control ablation reports it as the work already on the
        lane.
        """
        now = self.sim.now
        return max(0.0, max(self._send_ready_at.values()) - now)

    def send_free_at(self, lane: int) -> float:
        """Simulated time at which one *bound* CPU send lane falls idle
        (at or before ``sim.now`` when it already is).  One dict read:
        the batcher asks it once per publish."""
        return self._send_ready_at[lane]

    def _jitter(self) -> float:
        """Per-packet CPU-cost noise factor (scheduler/cache effects)."""
        jitter = self.cost.cpu_jitter
        if jitter <= 0:
            return 1.0
        rng = self._cpu_rng
        if rng is None:
            rng = self._cpu_rng = self.sim.rng(f"cpu.{self.address}")
        return 1.0 + jitter * (2.0 * rng.random() - 1.0)

    def send_frame(self, frame: Frame, lane: int = 0) -> float:
        """Push ``frame`` through one CPU send lane onto the segment.

        Returns the simulated time at which the frame reaches the wire.
        Raises if the host is down or detached from a segment.
        """
        if not self._up:
            raise RuntimeError(f"{self.address} is down")
        if self.segment is None:
            raise RuntimeError(f"{self.address} is not attached to a segment")
        cpu = self.cost.send_cpu_time(frame.size) * self._jitter()
        now = self.sim.now
        start = self._send_ready_at.get(lane, 0.0)
        if start < now:
            start = now
        done = start + cpu
        self._send_ready_at[lane] = done
        self.frames_sent += 1
        self.bytes_sent += frame.size
        self.sim.schedule(done - now, self._to_wire, frame, self.segment,
                          self.epoch, name="host.send")
        return done

    def _to_wire(self, frame: Frame, segment: "EthernetSegment",
                 epoch: int) -> None:
        # a crash between enqueue and wire kills the frame
        if self._up and self.epoch == epoch:
            segment.transmit(frame)

    def deliver_frame(self, frame: Frame) -> None:
        """Called by the segment when a frame arrives at this host's NIC."""
        if not self._up:
            return
        cpu = self.cost.recv_cpu_time(frame.size) * self._jitter()
        now = self.sim.now
        ready = self._recv_ready_at
        lanes = self._port_lanes
        lane = lanes.get(frame.dst_port, 0) if lanes else 0
        start = ready.get(lane, 0.0)
        if start < now:
            start = now
        done = start + cpu
        ready[lane] = done
        self.sim.schedule(done - now, self._to_socket, frame, self.epoch,
                          name="host.recv")

    def _to_socket(self, frame: Frame, epoch: int) -> None:
        if not self._up or self.epoch != epoch:
            return
        handler = self._ports.get(frame.dst_port)
        if handler is not None:
            self.frames_received += 1
            self.bytes_received += frame.size
            handler(frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self._up else "DOWN"
        return f"<Host {self.address} {state}>"
