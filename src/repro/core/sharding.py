"""Subject-space sharding: hash-partitioned daemon planes on one host.

The paper runs one daemon per host, which makes that daemon the fan-out
bottleneck: every publish and every inbound frame serializes on one CPU
pipeline.  This module partitions the *subject space* instead of the
host — a :class:`ShardMap` deterministically assigns each subject's
first element to one of N shard planes.  A host is always a plane set:
:meth:`~repro.core.bus.InformationBus.add_host` builds
``BusConfig.subject_shards`` (default 1) :class:`~repro.core.daemon.
BusDaemon` planes that share one ``planes`` list, and a
:class:`~repro.core.client.BusClient` holds that list and a map over it
— which plane carries a subject is a placement decision the client
binds late from the map, not a second kind of daemon.  Each plane is a
self-contained bus daemon: its own port pair, CPU lane, reliable
sessions, wire string table, session type table, and telemetry
publisher.  Planes never share wire state, so everything the
wire-efficiency arc built (header compression, the interest gate, the
type plane) rides unchanged per plane.

Shard map rules (all deterministic, all derived from the subject's
first element — the paper's own partitioning hint):

* concrete subjects hash ``crc32(first_element) % N`` (crc32, not
  Python's ``hash()``, so placement is stable across interpreter runs
  and ``PYTHONHASHSEED`` values);
* reserved subjects (first element starting with ``_``) pin to shard 0
  — the stat plane, discovery inquiries, and guaranteed-repair control
  traffic stay single-writer on one plane;
* literal-first subscription patterns register on the one shard their
  first element hashes to;
* wildcard-first patterns (``*.foo``, ``>``) fan to every shard — any
  plane could carry a matching subject;
* reserved *patterns* (``_bus.stat.>``, ``_sub.advert``) also fan to
  every shard: a client publishes reserved subjects on shard 0, but
  each plane's daemon emits its own control traffic (subscription
  adverts, telemetry snapshots) on its own plane, and a subscriber
  must hear all of them.
"""

from __future__ import annotations

import zlib
from typing import Tuple

__all__ = ["ShardMap"]


class ShardMap:
    """Deterministic first-element → shard-plane assignment."""

    __slots__ = ("shards", "_all")

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = shards
        self._all: Tuple[int, ...] = tuple(range(shards))

    def shard_of(self, subject: str) -> int:
        """The plane that carries publishes on concrete ``subject``."""
        if self.shards == 1:
            return 0
        first = subject.split(".", 1)[0]
        if first.startswith("_"):
            return 0   # reserved control/telemetry space is single-writer
        return zlib.crc32(first.encode("utf-8")) % self.shards

    def shards_for_pattern(self, pattern: str) -> Tuple[int, ...]:
        """Every plane a subscription on ``pattern`` must register on."""
        if self.shards == 1:
            return self._all
        first = pattern.split(".", 1)[0]
        if first in ("*", ">"):
            return self._all   # any plane could carry a match
        if first.startswith("_"):
            # client publishes pin reserved subjects to shard 0, but
            # every plane emits its own adverts/snapshots locally
            return self._all
        return (zlib.crc32(first.encode("utf-8")) % self.shards,)
