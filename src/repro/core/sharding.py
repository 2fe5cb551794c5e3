"""Subject-space sharding: hash-partitioned daemon planes on one host.

The paper runs one daemon per host, which makes that daemon the fan-out
bottleneck: every publish and every inbound frame serializes on one CPU
pipeline.  This module partitions the *subject space* instead of the
host — a :class:`ShardMap` deterministically assigns each subject's
first element to one of N shard planes, and a :class:`ShardedDaemon`
facade owns N :class:`~repro.core.daemon.BusDaemon` instances behind
the daemon interface clients and routers already speak.  Each plane is
a self-contained bus daemon: its own port pair, CPU lane, reliable
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
  every shard: the facade publishes reserved subjects on shard 0, but
  each plane's daemon emits its own control traffic (subscription
  adverts, telemetry snapshots) on its own plane, and a subscriber
  must hear all of them.

``BusConfig.subject_shards`` (default 1) selects the plane count;
:class:`~repro.core.bus.InformationBus` builds the facade only when it
is greater than 1, so the default path is bit-for-bit the classic
single daemon.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..sim.kernel import Simulator
from ..sim.node import Host
from ..sim.trace import NULL_TRACER, Tracer
from .daemon import BusConfig, BusDaemon
from .flow import PublishReceipt
from .guaranteed import LedgerEntry
from .message import QoS
from .typeplane import TypeTable

__all__ = ["ShardMap", "ShardedDaemon"]


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
            # facade publishes pin reserved subjects to shard 0, but
            # every plane emits its own adverts/snapshots locally
            return self._all
        return (zlib.crc32(first.encode("utf-8")) % self.shards,)


class ShardedDaemon:
    """N shard-plane daemons on one host behind the daemon interface.

    Everything an application or router calls on a
    :class:`~repro.core.daemon.BusDaemon` works here: publishes route
    to the owning plane, subscriptions register per the shard map,
    stats surfaces aggregate across planes.  Clients are attached to
    every plane (each plane delivers its own matches through its own
    lanes); the facade re-attaches them once after a host recovery,
    when all planes are back up.
    """

    def __init__(self, sim: Simulator, host: Host,
                 config: Optional[BusConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.host = host
        self.config = config or BusConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        count = max(self.config.subject_shards, 1)
        self.map = ShardMap(count)
        self.shards: List[BusDaemon] = [
            BusDaemon(sim, host, self.config, tracer,
                      shard=shard, shard_count=count)
            for shard in range(count)
        ]
        # routing counters live in shard 0's registry (the single-writer
        # telemetry plane), under the same daemon.<host> scope as the
        # rest of the daemon family
        scope = self.shards[0].metrics.scope(f"daemon.{host.address}")
        self._routed = [scope.counter(f"shard.routed[s{shard}]")
                        for shard in range(count)]
        self._fanout_subs = scope.counter("shard.fanout_subscriptions")
        host.on_recover(self._on_recover)

    # ------------------------------------------------------------------
    # identity and liveness
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self.map.shards

    @property
    def metrics(self):
        """Shard 0's registry (where the facade's own counters live)."""
        return self.shards[0].metrics

    @property
    def clients(self) -> Dict[str, Any]:
        return self.shards[0].clients

    @property
    def session(self) -> str:
        """Shard 0's session — the host's canonical bus identity."""
        return self.shards[0].session

    @property
    def session_started(self) -> float:
        return self.shards[0].session_started

    @property
    def up(self) -> bool:
        return all(daemon.up for daemon in self.shards)

    def _on_recover(self) -> None:
        # runs after every plane's own recovery listener (the facade
        # registered last), so fanned re-subscriptions find all planes up
        if self.config.auto_restart_clients:
            for client in list(self.clients.values()):
                client._reattach()

    # ------------------------------------------------------------------
    # client registration (mirrors BusDaemon's surface)
    # ------------------------------------------------------------------
    def attach_client(self, client) -> None:
        for daemon in self.shards:
            daemon.attach_client(client)
        # every plane wired a latency histogram into its own registry;
        # the client observes into shard 0's (single-writer stat plane)
        client._latency = self.shards[0].metrics.histogram(
            f"client.{client.name}.latency")

    def detach_client(self, client) -> None:
        for daemon in self.shards:
            daemon.detach_client(client)

    def on_publish_credit(self, callback) -> None:
        for daemon in self.shards:
            daemon.on_publish_credit(callback)

    def add_subscription(self, pattern: str, client, durable: bool) -> None:
        targets = self.map.shards_for_pattern(pattern)
        if len(targets) > 1:
            self._fanout_subs.value += 1
        for shard in targets:
            self.shards[shard].add_subscription(pattern, client, durable)

    def remove_subscription(self, pattern: str, client,
                            durable: bool) -> None:
        for shard in self.map.shards_for_pattern(pattern):
            self.shards[shard].remove_subscription(pattern, client, durable)

    def subscription_count(self) -> int:
        return sum(d.subscription_count() for d in self.shards)

    # ------------------------------------------------------------------
    # publish path
    # ------------------------------------------------------------------
    def publish(self, client_id: str, subject: str, payload: bytes,
                qos: QoS = QoS.RELIABLE,
                via: tuple = (), type_refs: tuple = ()) -> PublishReceipt:
        shard = self.map.shard_of(subject)
        self._routed[shard].value += 1
        return self.shards[shard].publish(client_id, subject, payload,
                                          qos, via=via, type_refs=type_refs)

    def flush(self) -> None:
        for daemon in self.shards:
            daemon.flush()

    # ------------------------------------------------------------------
    # telemetry plane (reserved subjects pin to shard 0)
    # ------------------------------------------------------------------
    def publish_stat_bytes(self, subject: str, payload: bytes,
                           via: tuple = ()) -> None:
        self.shards[0].publish_stat_bytes(subject, payload, via=via)

    # ------------------------------------------------------------------
    # session type plane
    # ------------------------------------------------------------------
    @property
    def type_table(self) -> TypeTable:
        return self.shards[0].type_table

    def type_table_for(self, subject: str) -> TypeTable:
        """The owning plane's type table — typed payloads must reference
        ids defined on the plane that carries them."""
        return self.shards[self.map.shard_of(subject)].type_table

    def type_resolver(self, session: str):
        for daemon in self.shards:
            resolver = daemon.type_resolver(session)
            if resolver is not None:
                return resolver
        return None

    # ------------------------------------------------------------------
    # counter views (sums across planes)
    # ------------------------------------------------------------------
    @property
    def published(self) -> int:
        return sum(d.published for d in self.shards)

    @property
    def delivered(self) -> int:
        return sum(d.delivered for d in self.shards)

    @property
    def acks_sent(self) -> int:
        return sum(d.acks_sent for d in self.shards)

    @property
    def guaranteed_deferred(self) -> int:
        return sum(d.guaranteed_deferred for d in self.shards)

    @property
    def corrupt_dropped(self) -> int:
        return sum(d.corrupt_dropped for d in self.shards)

    @property
    def unresolved_dropped(self) -> int:
        return sum(d.unresolved_dropped for d in self.shards)

    @property
    def typedef_unresolved_dropped(self) -> int:
        return sum(d.typedef_unresolved_dropped for d in self.shards)

    @property
    def skipped_frames(self) -> int:
        return sum(d.skipped_frames for d in self.shards)

    @property
    def skipped_envelopes(self) -> int:
        return sum(d.skipped_envelopes for d in self.shards)

    @property
    def bad_subjects(self) -> int:
        return sum(d.bad_subjects for d in self.shards)

    # ------------------------------------------------------------------
    # introspection (aggregated across planes)
    # ------------------------------------------------------------------
    def flow_stats(self) -> Dict[str, Dict[str, Any]]:
        """Queue snapshots merged across planes.

        Counters sum, depths sum, high watermarks take the max, and the
        name/capacity/policy identity fields come from shard 0 — so
        ``flow_stats()["deliver[app]"]`` reads the same on either kind
        of daemon.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for daemon in self.shards:
            for key, snap in daemon.flow_stats().items():
                seen = merged.get(key)
                merged[key] = snap if seen is None else \
                    _merge_snapshots(seen, snap)
        return merged

    def guaranteed_pending(self) -> List[LedgerEntry]:
        pending: List[LedgerEntry] = []
        for daemon in self.shards:
            pending.extend(daemon.guaranteed_pending())
        return pending

    def sender_retransmissions(self) -> int:
        return sum(d.sender_retransmissions() for d in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ShardedDaemon {self.host.address} "
                f"shards={self.map.shards} clients={len(self.clients)}>")


#: snapshot fields that identify the queue rather than count traffic
_IDENTITY_KEYS = frozenset({"name", "capacity", "policy"})
_MAX_KEYS = frozenset({"high_watermark"})


def _merge_snapshots(base: Dict[str, Any], snap: Dict[str, Any]) \
        -> Dict[str, Any]:
    out = dict(base)
    for key, value in snap.items():
        if key in _IDENTITY_KEYS or not isinstance(value, (int, float)):
            continue
        if key in _MAX_KEYS:
            out[key] = max(out[key], value)
        else:
            out[key] = out[key] + value
    return out
