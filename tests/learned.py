"""What a receiver has learned from peer sessions, without a daemon.

Codec tests drive :func:`repro.core.wire.decode_packet` /
:func:`~repro.core.wire.read_digest` directly.  Those take the receiving
plane's ``ReliableReceiver`` and touch only its ``sessions`` mapping
(``session -> record``, of a record only ``strings`` and ``types``) and
``hear(session)`` for a session not yet in it — this is the smallest
thing with that shape: a dict that is its own ``sessions``.  Records
compare by value, so two receivers' learned state can be asserted equal.
"""

from types import SimpleNamespace


def record(strings=None, types=None):
    """One session's learned tables, optionally pre-filled."""
    return SimpleNamespace(strings=dict(strings or {}),
                           types=dict(types or {}))


class Learned(dict):
    """``session -> record``; every session heard gets a record."""

    sessions = property(lambda self: self)

    def hear(self, session):
        heard = self[session] = record()
        return heard
