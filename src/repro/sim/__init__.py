"""Discrete-event simulation substrate for the Information Bus reproduction.

The paper's testbed — a 15-node SPARCstation LAN on 10 Mbit/s Ethernet —
is replaced by this package: a deterministic event kernel
(:class:`~repro.sim.kernel.Simulator`), fail-stop hosts
(:class:`~repro.sim.node.Host`), a shared broadcast segment
(:class:`~repro.sim.ethernet.EthernetSegment`), UDP-like and TCP-like
transports (:mod:`repro.sim.transport`), and crash-surviving stable
storage (:class:`~repro.sim.stable_storage.StableStore`).
"""

from .framing import CorruptFrame, FRAME_OVERHEAD, frame, unframe
from .kernel import Event, PeriodicTimer, SimError, Simulator
from .network import BROADCAST, Address, CostModel, Frame
from .node import Host, PortInUseError
from .ethernet import EthernetSegment
from .stable_storage import StableStore
from .transport import DatagramSocket, Endpoint, StreamConnection, StreamManager
from .trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "Address", "BROADCAST", "CorruptFrame", "CostModel", "DatagramSocket",
    "Endpoint", "EthernetSegment", "Event", "FRAME_OVERHEAD", "Frame",
    "Host", "NULL_TRACER", "PeriodicTimer", "PortInUseError", "SimError",
    "Simulator", "StableStore", "StreamConnection", "StreamManager",
    "TraceRecord", "Tracer", "frame", "unframe",
]
