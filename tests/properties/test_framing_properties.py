"""Property-based tests for the framing primitives: varint hygiene and
the allocation-lean :class:`~repro.sim.framing.Cursor` fast path.

A corrupt frame must never make the varint decoder spin through an
unbounded run of continuation bytes — the length is capped at
:data:`~repro.sim.framing.MAX_VARINT_BYTES` and anything longer raises
:class:`~repro.sim.framing.CorruptFrame`.  The cursor is the one
reader: it must read back exactly what the ``write_*`` functions wrote,
from a whole buffer and from a view into a larger one alike.
"""

from io import BytesIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.framing import (CorruptFrame, Cursor, MAX_VARINT_BYTES,
                               frame, unframe, unframe_view, write_bytes,
                               write_f64, write_str, write_varint)


def cursors(data):
    """A :class:`Cursor` over ``data`` as each buffer a caller may hold:
    the ``bytes`` themselves, and a view into the middle of a larger
    buffer (what :func:`unframe_view` hands the codec) — whose own end,
    not the buffer's, is where a read must stop."""
    return Cursor(data), Cursor(memoryview(b"\x00" + data + b"\x01")[1:-1])


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_varint_round_trip(value):
    out = BytesIO()
    write_varint(out, value)
    data = out.getvalue()
    assert len(data) <= MAX_VARINT_BYTES
    for cur in cursors(data):
        assert cur.varint() == value
        assert cur.pos == len(data) and cur.exhausted


@given(st.integers(min_value=-(2**64), max_value=-1))
@settings(max_examples=50, deadline=None)
def test_write_varint_rejects_negative(value):
    with pytest.raises(ValueError):
        write_varint(BytesIO(), value)


@given(st.integers(MAX_VARINT_BYTES, 64))
@settings(max_examples=50, deadline=None)
def test_overlong_varint_is_rejected(length):
    """``length`` continuation bytes never terminate within the cap: the
    decoder must raise instead of spinning through the run."""
    data = b"\x80" * length + b"\x01"
    for cur in cursors(data):
        with pytest.raises(CorruptFrame):
            cur.varint()


def test_maximal_varint_is_accepted():
    """Exactly 10 bytes encodes up to 70 bits — the cap must not reject
    a legitimate 64-bit value."""
    value = 2**64 - 1
    out = BytesIO()
    write_varint(out, value)
    data = out.getvalue()
    assert len(data) == MAX_VARINT_BYTES
    for cur in cursors(data):
        assert cur.varint() == value


def _reference_varint(value: int) -> bytes:
    """LEB128, the general loop: what both one-byte fast paths
    (``write_varint``'s prebuilt table, ``Cursor.varint``'s first-byte
    return) must agree with."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


@pytest.mark.parametrize("value", [0, 1, 126, 127, 128, 129, 16_383, 16_384,
                                   2**63, 2**64 - 1])
def test_varint_fast_paths_at_the_byte_boundaries(value):
    """Either side of every length boundary the fast paths straddle:
    the bytes are the reference's, the reader returns the value and
    stops at the right byte, and a following field is not disturbed."""
    encoded = _reference_varint(value)
    assert len(encoded) == max(1, (value.bit_length() + 6) // 7)
    out = BytesIO()
    write_varint(out, value)
    write_varint(out, 5)                       # a field behind it
    assert out.getvalue() == encoded + b"\x05"
    for cur in cursors(out.getvalue()):
        assert cur.varint() == value and cur.pos == len(encoded)
        assert cur.varint() == 5 and cur.exhausted
    for cur in cursors(encoded[:-1]):          # truncated, even to nothing
        with pytest.raises(CorruptFrame):
            cur.varint()


def test_every_one_byte_varint_matches_the_reference():
    for value in range(128):
        out = BytesIO()
        write_varint(out, value)
        assert out.getvalue() == _reference_varint(value) == bytes((value,))
        assert Cursor(bytes((value,))).varint() == value


@given(st.binary(max_size=64), st.text(max_size=32),
       st.floats(allow_nan=False, allow_infinity=False),
       st.integers(0, 2**40))
@settings(max_examples=200, deadline=None)
def test_cursor_agrees_with_read_functions(raw, text, value, number):
    out = BytesIO()
    write_bytes(out, raw)
    write_str(out, text)
    write_f64(out, value)
    write_varint(out, number)
    data = out.getvalue()
    for cur in cursors(data):
        assert cur.bytes_() == raw
        assert cur.str_() == text
        assert cur.f64() == value
        assert cur.varint() == number
        assert cur.pos == len(data)
        assert cur.exhausted and cur.remaining() == 0


@given(st.binary(max_size=256))
@settings(max_examples=100, deadline=None)
def test_unframe_view_is_zero_copy_unframe(body):
    framed = frame(body)
    view = unframe_view(framed)
    assert isinstance(view, memoryview)
    assert view.tobytes() == unframe(framed) == body


@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_cursor_rejects_truncation(body):
    """Reading past the end of a buffer always raises, never wraps."""
    out = BytesIO()
    write_bytes(out, body)
    data = out.getvalue()[:-1]
    with pytest.raises(CorruptFrame):
        Cursor(data).bytes_()
    with pytest.raises(CorruptFrame):
        cur = Cursor(b"")
        cur.u8()
    with pytest.raises(CorruptFrame):
        Cursor(b"\x00" * 7).f64()
