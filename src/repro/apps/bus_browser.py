"""The bus browser: a directory and traffic monitor for one bus.

Section 5.1: "It is possible to examine the list of available services
on the Information Bus by using various name services.  Services are
self-describing, so users can inspect the interface description for
each service."

The :class:`BusBrowser` is such a tool:

* a **service directory** built from the ``_svc.advert`` announcements
  every :class:`~repro.core.rmi.RmiServer` publishes (up / periodic
  presence / down) — services whose presence lapses are marked stale;
* a **traffic monitor** counting messages and bytes per subject for
  every ordinary subject (one ``>`` subscription; reserved ``_``
  subjects stay invisible to it);
* a **telemetry console** subscribed to the reserved ``_bus.stat.>``
  space: every daemon plane publishing registry snapshots (a bus built
  with ``BusConfig(stat_interval=...)``) shows up in :meth:`telemetry`,
  and :meth:`bus_top` aggregates the fleet's headline counters — the
  bus monitored through the bus itself;
* :meth:`inspect` fetches a live service's full interface description
  through the ordinary discovery protocol, so a user can go from "what
  exists?" to "what operations does it have?" to driving it via the
  application builder, all from metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core import BusClient, MessageInfo, STAT_SUBJECT_PREFIX
from ..core.contracts import admits
from ..core.discovery import Inquiry
from ..core.metrics import sum_counters
from ..core.rmi import SERVICE_ADVERT_SUBJECT

__all__ = ["BusBrowser", "HostTelemetry", "ServiceEntry", "SubjectStats"]

#: A service is stale after missing this many presence periods.
_STALE_AFTER = 3.0


@dataclass
class ServiceEntry:
    """One advertised service implementation."""

    service_subject: str
    server: str                 # client id of the serving application
    interface_name: str
    operations: List[str]
    first_seen: float
    last_seen: float
    down: bool = False

    def alive(self, now: float) -> bool:
        return not self.down and now - self.last_seen < _STALE_AFTER


@dataclass
class SubjectStats:
    """Traffic accounting for one concrete subject."""

    subject: str
    messages: int = 0
    bytes: int = 0
    senders: set = field(default_factory=set, init=False)
    first_seen: float = 0.0
    last_seen: float = 0.0

    def rate(self, now: float) -> float:
        window = max(now - self.first_seen, 1e-9)
        return self.messages / window


@dataclass
class HostTelemetry:
    """The latest ``_bus.stat.*`` snapshot from one publishing source.

    On a sharded host every shard plane is its own source (subject
    ``..daemon.s<k>``, one snapshot stream per plane); ``shard`` labels
    which plane this row describes, ``None`` for unsharded publishers.
    """

    source: str                  # "node00.daemon", "node00.daemon.s1", ...
    interval: float              # the publisher's advertised period
    first_seen: float
    last_seen: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    snapshots: int = 0
    shard: Optional[int] = None

    def alive(self, now: float) -> bool:
        """Fresh iff a snapshot arrived within ~3 publisher periods
        (missing that many means the publisher is down or unreachable)."""
        return now - self.last_seen < _STALE_AFTER * self.interval


class BusBrowser:
    """A monitoring application: service directory + per-subject traffic."""

    def __init__(self, client: BusClient):
        self.client = client
        self.services: Dict[tuple, ServiceEntry] = {}
        self.subjects: Dict[str, SubjectStats] = {}
        #: telemetry sources keyed by "<host>.daemon[.s<k>]" (subject suffix)
        self.stats: Dict[str, HostTelemetry] = {}
        self._subscriptions = [
            client.subscribe(SERVICE_ADVERT_SUBJECT, self._on_advert),
            # reserved subjects are invisible to plain ">" — the
            # telemetry plane must be watched explicitly
            client.subscribe(f"{STAT_SUBJECT_PREFIX}.>", self._on_stat),
            client.subscribe(">", self._on_traffic),
        ]

    # ------------------------------------------------------------------
    # service directory
    # ------------------------------------------------------------------
    def _on_advert(self, subject: str, payload: Any,
                   info: MessageInfo) -> None:
        if not admits(payload, "svc_advert", self.client.metrics):
            return
        key = (payload["service"], payload["server"])
        now = self.client.sim.now
        entry = self.services.get(key)
        if entry is None:
            entry = ServiceEntry(
                service_subject=payload["service"],
                server=payload["server"],
                interface_name=payload["interface_name"],
                operations=[], first_seen=now, last_seen=now)
            self.services[key] = entry
        entry.last_seen = now
        entry.operations = list(payload["operations"])
        # a "down" marks it; any later advert means it came back
        entry.down = payload["action"] == "down"

    def live_services(self) -> List[ServiceEntry]:
        """Currently alive services, one row per (subject, server)."""
        now = self.client.sim.now
        return sorted((e for e in self.services.values() if e.alive(now)),
                      key=lambda e: (e.service_subject, e.server))

    def inspect(self, service_subject: str,
                on_result: Callable[[List[dict]], None],
                window: float = 0.3) -> None:
        """Fetch the live interface descriptions for a service subject.

        Uses the ordinary discovery protocol; ``on_result`` receives the
        interface description dicts of every responding server.
        """
        Inquiry(self.client, service_subject,
                lambda responses: on_result(
                    [r.info.get("interface") for r in responses
                     if r.info.get("interface")]),
                window=window)

    # ------------------------------------------------------------------
    # traffic monitoring
    # ------------------------------------------------------------------
    def _on_traffic(self, subject: str, payload: Any,
                    info: MessageInfo) -> None:
        stats = self.subjects.get(subject)
        now = self.client.sim.now
        if stats is None:
            stats = SubjectStats(subject=subject, first_seen=now)
            self.subjects[subject] = stats
        stats.messages += 1
        stats.bytes += info.size
        stats.senders.add(info.sender)
        stats.last_seen = now

    def top_subjects(self, n: int = 10) -> List[SubjectStats]:
        return sorted(self.subjects.values(), key=lambda s: -s.messages)[:n]

    # ------------------------------------------------------------------
    # telemetry (the reserved ``_bus.stat.*`` space)
    # ------------------------------------------------------------------
    def _on_stat(self, subject: str, payload: Any,
                 info: MessageInfo) -> None:
        if not admits(payload, "stat_snapshot", self.client.metrics):
            return
        source = subject.split(".", 2)[-1]   # "_bus.stat.<host>.daemon"
        now = self.client.sim.now
        entry = self.stats.get(source)
        if entry is None:
            entry = HostTelemetry(source=source, interval=payload["interval"],
                                  first_seen=now, last_seen=now)
            self.stats[source] = entry
        entry.interval = payload["interval"]
        entry.metrics = payload["metrics"]
        entry.shard = payload.get("shard", entry.shard)
        entry.last_seen = now
        entry.snapshots += 1

    def telemetry(self) -> List[HostTelemetry]:
        """Telemetry sources with a fresh snapshot, sorted by source.

        A sharded host contributes one row per shard plane (the shard
        id is on the row); :meth:`bus_top` sums across them, so fleet
        totals cover every plane without double counting.
        """
        now = self.client.sim.now
        return sorted((t for t in self.stats.values() if t.alive(now)),
                      key=lambda t: t.source)

    def bus_top(self) -> Dict[str, int]:
        """A ``top``-style fleet aggregate over every fresh snapshot.

        Sums the headline counters of every live daemon plane on this
        browser's bus, so one browser shows the whole bus.  Each
        snapshot is as old as its publisher's last interval, so a total
        can lag the daemons' live counters but never lead them.
        """
        totals = {"hosts": 0, "published": 0, "delivered": 0,
                  "dropped": 0, "deferred": 0, "retransmissions": 0}
        for entry in self.telemetry():
            totals["hosts"] += 1
            metrics = entry.metrics
            # the reliable layer re-counts deliveries per session, so
            # sums are scoped by family to count each event exactly once
            daemon = {n: e for n, e in metrics.items()
                      if n.startswith("daemon.")}
            flow = {n: e for n, e in metrics.items()
                    if n.startswith("flow.")}
            totals["published"] += sum_counters(daemon, [".published"])
            totals["delivered"] += sum_counters(daemon, [".delivered"])
            totals["dropped"] += sum_counters(
                flow, [".dropped_newest", ".dropped_oldest"])
            totals["dropped"] += sum_counters(
                metrics, [".corrupt_dropped", ".unresolved_dropped"])
            totals["deferred"] += sum_counters(flow, [".deferred"])
            totals["deferred"] += sum_counters(daemon,
                                               [".guaranteed_deferred"])
            totals["retransmissions"] += sum_counters(
                metrics, [".retransmissions"])
        return totals

    # ------------------------------------------------------------------
    def report(self) -> str:
        """A human-readable snapshot (what an operator console shows)."""
        now = self.client.sim.now
        lines = ["== services =="]
        for entry in self.live_services():
            lines.append(f"  {entry.service_subject:<28} {entry.server:<22}"
                         f" ops={','.join(entry.operations)}")
        if len(lines) == 1:
            lines.append("  (none)")
        lines.append("== busiest subjects ==")
        for stats in self.top_subjects(8):
            lines.append(f"  {stats.subject:<32} {stats.messages:>7} msgs"
                         f" {stats.bytes:>10} B"
                         f" {stats.rate(now):>8.1f}/s"
                         f" senders={len(stats.senders)}")
        if len(self.subjects) == 0:
            lines.append("  (no traffic)")
        lines.append("== telemetry ==")
        live = self.telemetry()
        if live:
            top = self.bus_top()
            lines.append(
                f"  {top['hosts']} sources:"
                f" pub={top['published']} dlv={top['delivered']}"
                f" drop={top['dropped']} defer={top['deferred']}"
                f" rexmit={top['retransmissions']}")
            for entry in live:
                shard = (f" shard={entry.shard}"
                         if entry.shard is not None else "")
                lines.append(f"  {entry.source:<28}"
                             f" snapshots={entry.snapshots}"
                             f" instruments={len(entry.metrics)}{shard}")
        else:
            lines.append("  (no stat publishers)")
        return "\n".join(lines)

    def stop(self) -> None:
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions = []
