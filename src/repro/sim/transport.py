"""Transport layer: UDP-like datagrams and TCP-like streams.

The Information Bus implementation the paper describes uses "UDP packets in
combination with a retransmission protocol" for publish/subscribe, and "any
simple connection mechanism, such as a TCP/IP connection" for the RMI
point-to-point leg (Sections 3.1 and 3.3).  This module provides both:

* :class:`DatagramSocket` — unreliable, unordered datagrams with IP-style
  fragmentation above the MTU (losing any fragment loses the datagram);
* :class:`StreamManager` / :class:`StreamConnection` — a connection-oriented
  reliable, in-order message stream built on go-back-N ARQ over datagrams.

Everything on the wire is real ``bytes``: datagrams are byte buffers,
fragments are slices of the buffer, and stream segments are encoded with
the checksummed framing from :mod:`repro.sim.framing`.  Sizes are measured
(``len(data)``), never declared by the caller.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from io import BytesIO
from typing import Callable, Deque, Dict, Optional, Tuple

from .framing import (CorruptFrame, Cursor, frame, unframe_view,
                      write_bytes, write_varint)
from ..core.metrics import MetricsRegistry
from .kernel import Event, Simulator
from .network import BROADCAST, Address, Frame
from .node import Host

__all__ = ["DatagramSocket", "StreamManager", "StreamConnection",
           "Endpoint", "FRAGMENT_HEADER"]

#: Bytes of fragmentation header accounted per fragment (the simulated
#: IP-style header carrying datagram id / index / count).
FRAGMENT_HEADER = 8

#: How long a partially reassembled datagram is kept before being purged.
REASSEMBLY_TIMEOUT = 5.0

Endpoint = Tuple[Address, int]

_datagram_ids = itertools.count(1)


@dataclass
class _Fragment:
    datagram_id: int
    index: int
    count: int
    payload: bytes     # this fragment's slice of the datagram buffer
    total_size: int    # length of the whole datagram, for sanity checks


class DatagramSocket:
    """An unreliable datagram endpoint bound to ``(host, port)``.

    ``on_datagram(data, size, src_endpoint)`` is invoked with the
    reassembled byte buffer for each fully received datagram
    (``size == len(data)``).  Delivery may be lossy, duplicated, corrupted,
    or reordered according to the segment's fault knobs.
    """

    def __init__(self, sim: Simulator, host: Host, port: int,
                 on_datagram: Callable[[bytes, int, Endpoint], None],
                 metrics=None, metrics_name: str = "", lane: int = 0):
        self.sim = sim
        self.host = host
        self.port = port
        self.lane = lane
        self.on_datagram = on_datagram
        self._reassembly: Dict[Tuple[Address, int], Dict[int, bytes]] = {}
        self._reassembly_deadline: Dict[Tuple[Address, int], float] = {}
        # counters live in the owner's MetricsRegistry when one is
        # handed in (`metrics_name` scopes them); otherwise in a private
        # detached registry
        if metrics is None:
            metrics = MetricsRegistry()
        scope = metrics.scope(metrics_name) if metrics_name else metrics
        self._datagrams_sent = scope.counter("datagrams_sent")
        self._datagrams_received = scope.counter("datagrams_received")
        host.bind(port, self._on_frame, lane=lane)

    def close(self) -> None:
        self.host.unbind(self.port)

    # ------------------------------------------------------------------
    def sendto(self, data: bytes, dst: Address, dst_port: int) -> None:
        """Send one datagram of ``data``; fragments above the MTU."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"datagram payload must be bytes, "
                            f"got {type(data).__name__}")
        data = bytes(data)
        size = len(data)
        mtu = self.host.cost.mtu
        if size <= mtu:
            frame = Frame(self.host.address, dst, self.port, dst_port,
                          _Fragment(next(_datagram_ids), 0, 1, data, size),
                          size)
            self.host.send_frame(frame, lane=self.lane)
            self._datagrams_sent.value += 1
            return
        datagram_id = next(_datagram_ids)
        count = (size + mtu - 1) // mtu
        for index in range(count):
            chunk = data[index * mtu:(index + 1) * mtu]
            frag = _Fragment(datagram_id, index, count, chunk, size)
            frame = Frame(self.host.address, dst, self.port, dst_port,
                          frag, len(chunk) + FRAGMENT_HEADER)
            self.host.send_frame(frame, lane=self.lane)
        self._datagrams_sent.value += 1

    def broadcast(self, data: bytes, dst_port: int) -> None:
        self.sendto(data, BROADCAST, dst_port)

    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        frag: _Fragment = frame.payload
        src = (frame.src, frame.src_port)
        if frag.count == 1:
            self._datagrams_received.value += 1
            self.on_datagram(frag.payload, len(frag.payload), src)
            return
        key = (frame.src, frag.datagram_id)
        chunks = self._reassembly.setdefault(key, {})
        chunks[frag.index] = frag.payload
        self._reassembly_deadline[key] = self.sim.now + REASSEMBLY_TIMEOUT
        if len(chunks) == frag.count:
            del self._reassembly[key]
            del self._reassembly_deadline[key]
            data = b"".join(chunks[i] for i in range(frag.count))
            self._datagrams_received.value += 1
            self.on_datagram(data, len(data), src)
        elif len(self._reassembly) > 256:
            self._purge_stale()

    def _purge_stale(self) -> None:
        now = self.sim.now
        stale = [k for k, dl in self._reassembly_deadline.items() if dl < now]
        for key in stale:
            self._reassembly.pop(key, None)
            self._reassembly_deadline.pop(key, None)
        # still over the cap (a burst of half-arrived datagrams that are
        # not yet stale): evict the oldest — their missing fragments are
        # the least likely to still show up
        overflow = len(self._reassembly) - 256
        if overflow > 0:
            oldest = sorted(self._reassembly_deadline,
                            key=self._reassembly_deadline.get)[:overflow]
            for key in oldest:
                self._reassembly.pop(key, None)
                self._reassembly_deadline.pop(key, None)


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------

_conn_ids = itertools.count(1)

# segment kinds
_SYN, _SYN_ACK, _DATA, _ACK, _FIN = "syn", "syn_ack", "data", "ack", "fin"

_KIND_TO_CODE = {_SYN: 0, _SYN_ACK: 1, _DATA: 2, _ACK: 3, _FIN: 4}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}


@dataclass
class _StreamSeg:
    kind: str
    conn_id: int
    seq: int
    payload: bytes = b""


def _encode_seg(seg: _StreamSeg) -> bytes:
    """Encode a stream segment to one checksummed wire frame."""
    out = BytesIO()
    out.write(bytes((_KIND_TO_CODE[seg.kind],)))
    write_varint(out, seg.conn_id)
    write_varint(out, seg.seq)
    write_bytes(out, seg.payload)
    return frame(out.getvalue())


def _decode_seg(data: bytes) -> _StreamSeg:
    """Decode one wire frame back to a segment; raises CorruptFrame."""
    cur = Cursor(unframe_view(data))
    try:
        kind = _CODE_TO_KIND[cur.u8()]
    except KeyError:
        raise CorruptFrame("unknown segment kind code") from None
    conn_id = cur.varint()
    seq = cur.varint()
    payload = cur.bytes_()
    if not cur.exhausted:
        raise CorruptFrame(f"{cur.remaining()} trailing bytes after segment")
    return _StreamSeg(kind, conn_id, seq, payload)


class StreamConnection:
    """One reliable, in-order, message-oriented connection endpoint.

    Created by :meth:`StreamManager.connect` (initiator side) or handed to
    the listener's ``on_accept`` callback (responder side).  Use
    :meth:`send` to transmit a message and set :attr:`on_message` /
    :attr:`on_close` to receive.
    """

    WINDOW = 16
    INITIAL_RTO = 0.08
    MAX_RETRIES = 8

    def __init__(self, manager: "StreamManager", conn_id: int,
                 peer: Endpoint, initiator: bool):
        self._manager = manager
        self.sim = manager.sim
        self.conn_id = conn_id
        self.peer = peer
        self.initiator = initiator
        self.established = not initiator   # responder is live on SYN
        self.closed = False
        self.on_message: Optional[Callable[[bytes, int], None]] = None
        self.on_close: Optional[Callable[[Optional[str]], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        # send side
        self._next_seq = 0
        self._unacked: Dict[int, bytes] = {}
        self._send_queue: Deque[bytes] = deque()
        self._retry_event: Optional[Event] = None
        self._retries = 0
        self._rto = self.INITIAL_RTO
        # receive side
        self._next_expected = 0
        # connect retries (initiator only)
        self._syn_event: Optional[Event] = None
        self._syn_tries = 0

    # ------------------------------------------------------------------
    @property
    def local_endpoint(self) -> Endpoint:
        return (self._manager.host.address, self._manager.port)

    def send(self, data: bytes) -> None:
        """Queue ``data`` for reliable, in-order delivery to the peer."""
        if self.closed:
            raise RuntimeError("connection is closed")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"stream payload must be bytes, "
                            f"got {type(data).__name__}")
        self._send_queue.append(bytes(data))
        self._pump()

    def close(self, error: Optional[str] = None) -> None:
        """Close the connection.  Unsent queued messages are dropped."""
        if self.closed:
            return
        self.closed = True
        self._cancel_timers()
        if error is None and self.established:
            self._manager._send_seg(self.peer, _StreamSeg(
                _FIN, self.conn_id, self._next_seq))
        self._manager._forget(self.conn_id)
        if self.on_close is not None:
            self.on_close(error)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cancel_timers(self) -> None:
        for ev in (self._retry_event, self._syn_event):
            if ev is not None:
                ev.cancel()
        self._retry_event = None
        self._syn_event = None

    def _start_connect(self) -> None:
        self._syn_tries += 1
        if self._syn_tries > self.MAX_RETRIES:
            self.close(error="connect timed out")
            return
        self._manager._send_seg(self.peer, _StreamSeg(_SYN, self.conn_id, 0))
        self._syn_event = self.sim.schedule(
            self._rto * self._syn_tries, self._start_connect, name="syn.retry")

    def _on_established(self) -> None:
        if self.established:
            return
        self.established = True
        if self._syn_event is not None:
            self._syn_event.cancel()
            self._syn_event = None
        if self.on_established is not None:
            self.on_established()
        self._pump()

    def _pump(self) -> None:
        """Move queued messages into the in-flight window."""
        if not self.established or self.closed:
            return
        while self._send_queue and len(self._unacked) < self.WINDOW:
            data = self._send_queue.popleft()
            seq = self._next_seq
            self._next_seq += 1
            self._unacked[seq] = data
            self._transmit(seq)
        self._arm_retry()

    def _transmit(self, seq: int) -> None:
        self._manager._send_seg(self.peer, _StreamSeg(
            _DATA, self.conn_id, seq, self._unacked[seq]))

    def _arm_retry(self) -> None:
        if self._retry_event is not None or not self._unacked:
            return
        self._retry_event = self.sim.schedule(self._rto, self._on_retry,
                                              name="stream.rto")

    def _on_retry(self) -> None:
        self._retry_event = None
        if self.closed or not self._unacked:
            return
        self._retries += 1
        if self._retries > self.MAX_RETRIES:
            self.close(error="peer unreachable")
            return
        self._rto = min(self._rto * 2, 2.0)   # exponential backoff
        for seq in sorted(self._unacked):      # go-back-N retransmit
            self._transmit(seq)
        self._arm_retry()

    def _on_ack(self, seq: int) -> None:
        """Cumulative ack: everything below ``seq`` is delivered."""
        # any ack is proof the peer is alive — retransmit exhaustion should
        # mean unreachability, not a lossy stretch on a reachable path
        self._retries = 0
        acked = [s for s in self._unacked if s < seq]
        for s in acked:
            del self._unacked[s]
        if acked:
            self._rto = self.INITIAL_RTO
            if self._retry_event is not None:
                self._retry_event.cancel()
                self._retry_event = None
        self._pump()

    def _on_data(self, seg: _StreamSeg) -> None:
        if seg.seq == self._next_expected:
            self._next_expected += 1
            if self.on_message is not None:
                self.on_message(seg.payload, len(seg.payload))
        # ack what we have so far (duplicates and out-of-order re-ack)
        self._manager._send_seg(self.peer, _StreamSeg(
            _ACK, self.conn_id, self._next_expected))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<StreamConnection {self.local_endpoint}->{self.peer} "
                f"id={self.conn_id} est={self.established}>")


class StreamManager:
    """Owns every stream endpoint at one ``(host, port)``.

    A server calls :meth:`listen`; a client calls :meth:`connect`.  Both
    sides of every connection at this port multiplex over one datagram
    socket.
    """

    def __init__(self, sim: Simulator, host: Host, port: int):
        self.sim = sim
        self.host = host
        self.port = port
        self._socket = DatagramSocket(sim, host, port, self._on_datagram)
        self._on_accept: Optional[Callable[[StreamConnection], None]] = None
        self._conns: Dict[int, StreamConnection] = {}
        #: segments dropped because their frame failed validation
        self.corrupt_dropped = 0

    def listen(self, on_accept: Callable[[StreamConnection], None]) -> None:
        self._on_accept = on_accept

    def connect(self, dst: Address, dst_port: int) -> StreamConnection:
        """Open a connection; returns immediately, use ``on_established``."""
        conn = StreamConnection(self, next(_conn_ids), (dst, dst_port),
                                initiator=True)
        self._conns[conn.conn_id] = conn
        conn._start_connect()
        return conn

    def close(self) -> None:
        for conn in list(self._conns.values()):
            conn.close(error="manager closed")
        self._socket.close()

    # ------------------------------------------------------------------
    def _forget(self, conn_id: int) -> None:
        self._conns.pop(conn_id, None)

    def _send_seg(self, peer: Endpoint, seg: _StreamSeg) -> None:
        if not self.host.up:
            return
        self._socket.sendto(_encode_seg(seg), peer[0], peer[1])

    def _on_datagram(self, data: bytes, size: int, src: Endpoint) -> None:
        try:
            seg = _decode_seg(data)
        except CorruptFrame:
            # a corrupted segment is just loss; ARQ repairs it
            self.corrupt_dropped += 1
            return
        conn = self._conns.get(seg.conn_id)
        if seg.kind == _SYN:
            if conn is None:
                if self._on_accept is None:
                    return   # not listening: silently drop, initiator times out
                conn = StreamConnection(self, seg.conn_id, src,
                                        initiator=False)
                self._conns[seg.conn_id] = conn
                self._on_accept(conn)
            # (re)confirm — SYNs may be duplicated or retried
            self._send_seg(src, _StreamSeg(_SYN_ACK, seg.conn_id, 0))
        elif conn is None:
            return   # stale segment for a closed connection
        elif seg.kind == _SYN_ACK:
            conn._on_established()
        elif seg.kind == _DATA:
            conn._on_data(seg)
        elif seg.kind == _ACK:
            conn._on_ack(seg.seq)
        elif seg.kind == _FIN:
            conn.close()
