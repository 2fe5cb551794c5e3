"""Byte-level wire framing: a body with a CRC trailer.

Everything that crosses a simulated socket is real ``bytes``.  A frame is

    +----------+-----------------+
    |   body   | CRC-32 of body  |
    |          |   big-endian    |
    +----------+-----------------+

and nothing else: the datagram (or stream segment) that carries the
frame already gives its length, and the checksum rejects a truncated
buffer as surely as a corrupted one (see the ``corrupt_rate`` knob on
:class:`~repro.sim.ethernet.EthernetSegment`).  Any validation failure
raises :class:`CorruptFrame` — the caller drops the frame and lets the
retransmission machinery repair the loss, exactly like a UDP checksum
failure on a real network.

This module also provides the primitive field codecs (varints, strings,
floats) shared by the packet codec (:mod:`repro.core.wire`) and the
stream-segment codec (:mod:`repro.sim.transport`): the ``write_*``
functions, and one reader, :class:`Cursor` — one object walks a single
:class:`memoryview` of the frame body with precompiled
:class:`struct.Struct` unpackers, so field reads never slice new
``bytes`` objects (strings decode straight out of the buffer, and only
payload fields pay a copy).  Pair it with :func:`unframe_view`, which
CRC-validates a frame and returns the body as a zero-copy view.

It sits at the bottom of the layering: it knows nothing about envelopes,
packets, or segments.
"""

from __future__ import annotations

import struct
import zlib
from io import BytesIO

__all__ = ["CorruptFrame", "Cursor", "FRAME_OVERHEAD", "MAX_VARINT_BYTES",
           "frame", "unframe", "unframe_view", "flip_random_bit",
           "write_bytes", "write_f64", "write_str", "write_varint"]

_CRC = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: Framing bytes added to every body: the checksum.
FRAME_OVERHEAD = _CRC.size

#: Hard cap on encoded varint length.  Ten 7-bit groups cover every value
#: a 64-bit field can carry; anything longer is a corrupt or hostile
#: frame, and the decoder must not spin through an arbitrary run of
#: continuation bytes before noticing.
MAX_VARINT_BYTES = 10


class CorruptFrame(ValueError):
    """A frame failed validation (too short, or a checksum mismatch),
    or a field inside it did."""


def frame(body: bytes) -> bytes:
    """``body`` followed by its checksum."""
    return body + _CRC.pack(zlib.crc32(body))


def unframe_view(data: bytes) -> memoryview:
    """Validate framing and return the body as a zero-copy memoryview.

    The decode fast path: the CRC is computed over the view, and a
    :class:`Cursor` then reads fields straight out of the original
    buffer.  Raises :class:`CorruptFrame` on any validation failure.
    """
    length = len(data) - FRAME_OVERHEAD
    if length < 0:
        raise CorruptFrame(f"frame too short ({len(data)} bytes)")
    body = memoryview(data)[:length]
    (crc,) = _CRC.unpack_from(data, length)
    if crc != zlib.crc32(body):
        raise CorruptFrame("checksum mismatch")
    return body


def unframe(data: bytes) -> bytes:
    """Validate framing and return the body; raises :class:`CorruptFrame`."""
    return unframe_view(data).tobytes()


def flip_random_bit(data: bytes, rng) -> bytes:
    """Return a copy of ``data`` with one random bit inverted.

    Consumes a *fixed* amount of entropy (one 32-bit draw) regardless of
    the buffer length: ``rng.randrange(n)`` re-draws until its sample
    fits ``n``, so differently sized buffers would advance the stream by
    different amounts and same-seed runs whose encodings differ (e.g.
    wire compression on vs off) would see diverging fault sequences.
    The modulo bias is irrelevant for fault injection.
    """
    if not data:
        return data
    flipped = bytearray(data)
    bit = rng.getrandbits(32) % (len(flipped) * 8)
    flipped[bit >> 3] ^= 1 << (bit & 7)
    return bytes(flipped)


# ----------------------------------------------------------------------
# allocation-lean cursor (the decode fast path)
# ----------------------------------------------------------------------

class Cursor:
    """Sequential field reader over one frame body.

    Holds a single :class:`memoryview` and a position; every ``read``
    advances the position or raises :class:`CorruptFrame`.  Strings are
    decoded directly from the view (no intermediate ``bytes``), floats
    unpack in place via a precompiled :class:`struct.Struct`, and only
    :meth:`bytes_` — payload fields that must outlive the buffer — pays
    a copy.
    """

    __slots__ = ("buf", "pos", "end")

    def __init__(self, data) -> None:
        buf = data if isinstance(data, memoryview) else memoryview(data)
        self.buf = buf
        self.pos = 0
        self.end = len(buf)

    @property
    def exhausted(self) -> bool:
        return self.pos >= self.end

    def remaining(self) -> int:
        return self.end - self.pos

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise CorruptFrame("truncated byte field")
        self.pos = pos + 1
        return self.buf[pos]

    def varint(self) -> int:
        buf, pos, end = self.buf, self.pos, self.end
        if pos < end:
            # one-byte values (ids, small counts and lengths) are nearly
            # every varint on the wire; the loop below reads any length
            byte = buf[pos]
            if byte < 0x80:
                self.pos = pos + 1
                return byte
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise CorruptFrame("truncated varint")
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7
            if shift >= MAX_VARINT_BYTES * 7:
                raise CorruptFrame(
                    f"varint longer than {MAX_VARINT_BYTES} bytes")

    def bytes_(self) -> bytes:
        length = self.varint()
        pos = self.pos
        if pos + length > self.end:
            raise CorruptFrame("truncated bytes field")
        self.pos = pos + length
        return self.buf[pos:pos + length].tobytes()

    def str_(self) -> str:
        length = self.varint()
        pos = self.pos
        if pos + length > self.end:
            raise CorruptFrame("truncated string field")
        self.pos = pos + length
        try:
            return str(self.buf[pos:pos + length], "utf-8")
        except UnicodeDecodeError as error:
            raise CorruptFrame(
                f"invalid UTF-8 in string field: {error}") from None

    def f64(self) -> float:
        pos = self.pos
        if pos + 8 > self.end:
            raise CorruptFrame("truncated float field")
        self.pos = pos + 8
        return _F64.unpack_from(self.buf, pos)[0]


# ----------------------------------------------------------------------
# primitive field writers
# ----------------------------------------------------------------------

#: the one-byte varints, prebuilt: ids, small counts and lengths are
#: nearly every varint written
_ONE_BYTE_VARINTS = tuple(bytes((value,)) for value in range(0x80))


def write_varint(out: BytesIO, value: int) -> None:
    if 0 <= value < 0x80:
        out.write(_ONE_BYTE_VARINTS[value])
        return
    if value < 0:
        raise ValueError(f"varint must be non-negative: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def write_bytes(out: BytesIO, raw: bytes) -> None:
    write_varint(out, len(raw))
    out.write(raw)


def write_str(out: BytesIO, text: str) -> None:
    write_bytes(out, text.encode("utf-8"))


def write_f64(out: BytesIO, value: float) -> None:
    out.write(_F64.pack(value))
