"""The unified metrics registry: the bus describes itself with data.

The paper's deepest claim is that the bus is its own application —
infrastructure state should be self-describing objects addressable by
subject, which is exactly how its bus browser and system-management
tools work (Section 5.1).  Before this module the repro contradicted
that: telemetry was a pile of hand-rolled dicts (one per subsystem, a
``Router.stats()`` there, module globals in :mod:`repro.core.wire`) with
no common shape and no way to observe a running bus *over the bus*.

This module is the common shape.  Three instrument flavours:

* :class:`Counter` — a monotonic event count.  The hot path increments
  with a plain attribute add (``counter.value += 1``): no method call,
  no lock, no allocation.  Snapshot-time cost is paid at snapshot time.
* :class:`Gauge` — a point-in-time level.  Either set directly
  (``gauge.value = depth``) or given a ``source`` callable that is
  evaluated lazily at snapshot time (queue depths, table sizes).
* :class:`Histogram` — fixed-bucket distribution (service times,
  delivery latencies).  ``observe`` is one bisection over a handful of
  bucket bounds plus two adds.

A :class:`MetricsRegistry` names instruments hierarchically
(``daemon.<host>.wire.unresolved_dropped``, ``flow.<queue>.drops``) and
renders the whole family as plain self-describing dicts via
:meth:`~MetricsRegistry.snapshot` — ready to marshal with
:mod:`repro.objects` and publish on the reserved ``_bus.stat.*``
subjects (a daemon does, every ``BusConfig.stat_interval`` seconds:
see :meth:`repro.core.daemon.BusDaemon._publish_stats`).

Two properties the telemetry plane guarantees, both test-asserted:

1. **Metrics never change behavior.**  Instruments are written with
   plain attribute arithmetic and read only at snapshot time, so a run
   with stat publishing on is bit-identical (deliveries, traces,
   counters) to the same seed with it off.
2. **Stat traffic never echo-amplifies.**  Stat envelopes are stamped
   ``seq == 0`` and excluded from the counters they would perturb; the
   daemon's stat timer, skip rule and stat socket are deliberately
   *not* registry instruments (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

__all__ = ["Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
           "MetricsRegistry", "MetricsScope"]


class Counter:
    """A monotonically increasing event count.

    Hot paths write ``counter.value += 1`` directly — one attribute add,
    nothing allocated.  ``inc`` exists for call sites that prefer a
    method (or add more than one).
    """

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time level: queue depth, table size, high watermark.

    Set ``gauge.value`` directly from the owning component, or construct
    with a ``source`` callable — then the gauge reads its owner lazily,
    only when a snapshot is actually taken (zero steady-state cost).
    """

    __slots__ = ("name", "value", "source")
    kind = "gauge"

    def __init__(self, name: str = "",
                 source: Optional[Callable[[], Union[int, float]]] = None):
        self.name = name
        self.value: Union[int, float] = 0
        self.source = source

    def read(self) -> Union[int, float]:
        return self.source() if self.source is not None else self.value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.read()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.read()}>"


#: Default histogram bucket upper bounds (seconds) — spans the simulated
#: latencies this repro produces, from LAN microseconds to WAN seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class Histogram:
    """A fixed-bucket distribution (cumulative-style at snapshot time).

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last bound.
    ``observe`` finds the bucket with one C-level bisection: the first
    bound that is >= the value, or the overflow bucket past the last.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str = "",
                 bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must ascend: {bounds!r}")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "histogram", "bounds": list(self.bounds),
                "counts": list(self.bucket_counts),
                "count": self.count, "sum": self.sum}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count}>"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named family of instruments with one snapshot surface.

    Names are hierarchical dot paths (``daemon.node00.published``,
    ``flow.outbound[node00].dropped_oldest``); :meth:`scope` builds a
    prefixing view so components need not know where they live in the
    hierarchy.  Lookups are get-or-create: asking twice for one name
    returns the *same* instrument, which is how a restarted component
    re-finds counters that are documented to survive restarts — and why
    components whose counters are documented *volatile* call
    :meth:`drop_prefix` when they restart.
    """

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type) -> Optional[Instrument]:
        instrument = self._instruments.get(name)
        if instrument is None:
            return None
        if not isinstance(instrument, kind):
            raise ValueError(
                f"metric {name!r} is a {type(instrument).kind}, "
                f"not a {kind.kind}")
        return instrument

    def counter(self, name: str) -> Counter:
        instrument = self._get(name, Counter)
        if instrument is None:
            instrument = Counter(name)
            self._instruments[name] = instrument
        return instrument

    def gauge(self, name: str,
              source: Optional[Callable[[], Union[int, float]]] = None
              ) -> Gauge:
        instrument = self._get(name, Gauge)
        if instrument is None:
            instrument = Gauge(name, source)
            self._instruments[name] = instrument
        elif source is not None:
            # a recreated owner re-points the gauge at its live state
            instrument.source = source
        return instrument

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._get(name, Histogram)
        if instrument is None:
            instrument = Histogram(name, bounds)
            self._instruments[name] = instrument
        return instrument

    def register(self, name: str, instrument: Instrument) -> Instrument:
        """Adopt an externally constructed instrument under ``name``.

        Components that must work detached (a :class:`WanLink` built
        before any router exists) create their instruments standalone
        and register them when a registry appears.  Registering the same
        object twice is a no-op; a *different* object under a taken name
        is an error — two components may not share a name by accident.
        """
        existing = self._instruments.get(name)
        if existing is instrument:
            return instrument
        if existing is not None:
            raise ValueError(f"metric {name!r} is already registered")
        instrument.name = name
        self._instruments[name] = instrument
        return instrument

    # ------------------------------------------------------------------
    # views and maintenance
    # ------------------------------------------------------------------
    def scope(self, prefix: str) -> "MetricsScope":
        """A view that prefixes every name with ``prefix.``."""
        return MetricsScope(self, prefix)

    def names(self) -> List[str]:
        return list(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def drop_prefix(self, prefix: str) -> int:
        """Unregister every instrument under ``prefix`` (volatile state:
        a restarted daemon's per-session reliable counters must start
        from zero, like the sessions themselves).  Returns the count."""
        doomed = [name for name in self._instruments
                  if name.startswith(prefix)]
        for name in doomed:
            del self._instruments[name]
        return len(doomed)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The whole registry as plain self-describing dicts, keyed by
        instrument name — directly marshallable by :mod:`repro.objects`
        for publication on ``_bus.stat.*`` subjects."""
        return {name: instrument.snapshot()
                for name, instrument in self._instruments.items()}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricsRegistry {len(self._instruments)} instruments>"


class MetricsScope:
    """A prefixing view over a registry (``scope("daemon.node00")``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self._prefix}.{name}")

    def gauge(self, name: str,
              source: Optional[Callable[[], Union[int, float]]] = None
              ) -> Gauge:
        return self._registry.gauge(f"{self._prefix}.{name}", source)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._registry.histogram(f"{self._prefix}.{name}", bounds)

    def register(self, name: str, instrument: Instrument) -> Instrument:
        return self._registry.register(f"{self._prefix}.{name}", instrument)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, f"{self._prefix}.{prefix}")


def sum_counters(snapshot: Dict[str, Dict[str, Any]],
                 suffixes: Iterable[str]) -> int:
    """Sum every counter in ``snapshot`` whose name ends with one of
    ``suffixes`` — the aggregation primitive ``bus_top()``-style views
    are built from (see :mod:`repro.apps.bus_browser`)."""
    ends = tuple(suffixes)
    return sum(entry.get("value", 0)
               for name, entry in snapshot.items()
               if entry.get("type") == "counter" and name.endswith(ends))


__all__.append("sum_counters")
