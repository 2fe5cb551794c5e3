"""Structured event tracing for simulations.

Protocols emit trace records (a timestamped category + fields dict); tests
and benches query them afterwards.  Tracing defaults to off, and hot paths
guard with the tracer's truthiness::

    if self.tracer:
        self.tracer.emit(self.sim.now, "publish", subject=subject, ...)

so the disabled-tracing cost is one attribute test — the ``**fields``
kwargs dict is never built.  :data:`NULL_TRACER` is the shared disabled
instance components fall back to when none is supplied.

Flow-control events (:mod:`repro.core.flow`) share the ``flow.`` prefix:

``flow.drop``
    A queue shed a message (``queue``, ``policy``/``reason``, ``depth``).
``flow.defer``
    A full queue pushed back instead of shedding — always the fate of
    guaranteed-QoS traffic (``queue``, ``depth``).

Tracing must never change behavior — emitters may not branch on what
was recorded, so a traced run and an untraced run of the same seed are
identical (a property the flow-control tests assert).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List

__all__ = ["MAX_RECORDS", "NULL_TRACER", "TraceRecord", "Tracer"]

#: Ring-buffer capacity of :attr:`Tracer.records`, read when a tracer is
#: built (``None`` is unbounded).  Long sims with tracing left on used to
#: grow memory without bound; past the cap the oldest records are
#: discarded and counted in ``dropped_records``.
MAX_RECORDS = 100_000


@dataclass
class TraceRecord:
    time: float
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Tracer:
    """Collects :class:`TraceRecord` objects."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        #: a bounded ring: at :data:`MAX_RECORDS` the oldest record falls
        #: off (and is tallied below)
        self.records: Deque[TraceRecord] = deque(maxlen=MAX_RECORDS)
        #: records discarded off the front of the full ring
        self.dropped_records = 0
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def __bool__(self) -> bool:
        """Truthy iff emitting would record — the hot-path guard."""
        return self.enabled

    def emit(self, time: float, category: str, **fields: Any) -> None:
        if not self.enabled:
            return
        record = TraceRecord(time, category, fields)
        ring = self.records
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped_records += 1
        ring.append(record)
        for listener in self._listeners:
            listener(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        self._listeners.append(listener)

    def select(self, category: str, **match: Any) -> List[TraceRecord]:
        """Records of ``category`` whose fields equal every ``match`` item."""
        out = []
        for record in self.records:
            if record.category != category:
                continue
            if all(record.fields.get(k) == v for k, v in match.items()):
                out.append(record)
        return out

    def count(self, category: str, **match: Any) -> int:
        return len(self.select(category, **match))

    def clear(self) -> None:
        self.records.clear()
        self.dropped_records = 0


#: Shared always-disabled tracer.  Do not enable it: every component that
#: was constructed without an explicit tracer holds this one instance.
NULL_TRACER = Tracer(enabled=False)
