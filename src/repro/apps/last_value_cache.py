"""A last-value cache (LVC) service.

Anonymous pub/sub deliberately gives late joiners no history: "a new
subscriber ... will start receiving immediately new objects" (Section
3.1) — and nothing older.  For market-data-style subjects where the
*current* value is what matters, the classic companion service (which
the Information Bus's commercial descendants shipped as exactly this)
is a cache that subscribes to everything, remembers the latest object
per subject, and answers snapshot requests over RMI.

A late joiner then does snapshot-then-subscribe:

1. subscribe to the live subjects (start buffering),
2. RMI the LVC for current values,
3. apply the snapshot, then the buffered updates.

:class:`LastValueCache` is the server; :func:`snapshot_then_subscribe`
packages the client-side pattern.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core import BusClient, MessageInfo
from ..core.rmi import RmiClient, RmiServer
from ..objects import OperationSpec, ParamSpec, TypeDescriptor
from ..objects.service import ServiceObject

__all__ = ["LVC_SERVICE_TYPE", "LastValueCache", "snapshot_then_subscribe"]

LVC_SERVICE_TYPE = "last_value_cache_service"

#: The subject a cache serves its snapshots on.
LVC_SUBJECT = "svc.lvc"

#: Subjects one cache holds: past it, new subjects are refused (cached
#: ones keep updating) rather than the cache growing without bound.
MAX_SUBJECTS = 100_000


def _register_service_type(registry) -> None:
    if registry.has(LVC_SERVICE_TYPE):
        return
    registry.register(TypeDescriptor(
        LVC_SERVICE_TYPE,
        operations=[
            OperationSpec("current",
                          params=(ParamSpec("subject", "string"),),
                          result_type="any",
                          doc="the most recent object on a subject, or "
                              "nil if never seen"),
            OperationSpec("snapshot",
                          params=(ParamSpec("pattern", "string"),),
                          result_type="map<any>",
                          doc="subject -> latest object for every cached "
                              "subject matching the pattern"),
            OperationSpec("cached_subjects", result_type="list<string>"),
        ],
        doc="current-value snapshots for bus subjects"))


class LastValueCache:
    """Caches the latest object per subject; serves snapshots over RMI."""

    def __init__(self, client: BusClient, patterns: List[str]):
        self.client = client
        self.updates_seen = 0
        self._latest: Dict[str, Any] = {}
        self._subscriptions = [client.subscribe(p, self._on_message)
                               for p in patterns]
        _register_service_type(client.registry)
        service = ServiceObject(client.registry, LVC_SERVICE_TYPE)
        service.implement("current", self._current)
        service.implement("snapshot", self._snapshot)
        service.implement("cached_subjects",
                          lambda: sorted(self._latest))
        self.rmi = RmiServer(client, LVC_SUBJECT, service)

    def _on_message(self, subject: str, obj: Any,
                    info: MessageInfo) -> None:
        if subject not in self._latest and \
                len(self._latest) >= MAX_SUBJECTS:
            return   # bounded: refuse new subjects rather than grow
        self._latest[subject] = obj
        self.updates_seen += 1

    def _current(self, subject: str) -> Any:
        return self._latest.get(subject)

    def _snapshot(self, pattern: str) -> Dict[str, Any]:
        from ..core import subject_matches
        return {subject: obj for subject, obj in self._latest.items()
                if subject_matches(pattern, subject)}

    def __len__(self) -> int:
        return len(self._latest)

    def stop(self) -> None:
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions = []
        self.rmi.stop()


def snapshot_then_subscribe(
        client: BusClient, pattern: str,
        on_value: Callable[[str, Any, bool], None],
        lvc_subject: str = LVC_SUBJECT,
        on_ready: Optional[Callable[[], None]] = None) -> None:
    """The late-joiner pattern: live subscribe, fetch a snapshot, replay.

    ``on_value(subject, obj, is_snapshot)`` fires once per snapshot entry
    and then for every live update.  Updates arriving while the snapshot
    is in flight are buffered and applied afterwards (skipping subjects
    the buffer already superseded is left to the caller — values are
    delivered oldest-first, so applying in order is always correct).
    """
    state = {"ready": False, "buffer": []}

    def on_live(subject: str, obj: Any, info: MessageInfo) -> None:
        if state["ready"]:
            on_value(subject, obj, False)
        else:
            state["buffer"].append((subject, obj))

    client.subscribe(pattern, on_live)
    rmi = RmiClient(client, lvc_subject)

    def on_snapshot(values: Optional[Dict[str, Any]],
                    error: Optional[str]) -> None:
        for subject in sorted(values or {}):
            on_value(subject, (values or {})[subject], True)
        state["ready"] = True
        for subject, obj in state["buffer"]:
            on_value(subject, obj, False)
        state["buffer"] = []
        rmi.close()
        if on_ready is not None:
            on_ready()

    rmi.call("snapshot", {"pattern": pattern}, on_snapshot)
