"""Crash-surviving storage for guaranteed delivery and the repository.

The paper's *guaranteed* quality of service logs each message to
non-volatile storage before sending (Section 3.1).  :class:`StableStore`
models that storage: append-only logs plus a key-value area, both of which
survive :meth:`Host.crash`.

Values are deep-copied on the way in and out so that a protocol cannot
accidentally mutate its "disk" through a live reference — a classic source
of unrealistically optimistic recovery tests.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, List

__all__ = ["StableStore"]


class StableStore:
    """Per-host non-volatile storage: named append-only logs + a KV area."""

    def __init__(self) -> None:
        self._logs: Dict[str, List[Any]] = {}
        self._kv: Dict[str, Any] = {}
        self.write_count = 0   # counters let benches charge for I/O if desired

    # ------------------------------------------------------------------
    # append-only logs
    # ------------------------------------------------------------------
    def append(self, log: str, record: Any) -> int:
        """Append ``record`` to ``log``; returns its index in the log."""
        entries = self._logs.setdefault(log, [])
        entries.append(copy.deepcopy(record))
        self.write_count += 1
        return len(entries) - 1

    def read_log(self, log: str) -> List[Any]:
        """Return a snapshot copy of every record in ``log`` (oldest first)."""
        return copy.deepcopy(self._logs.get(log, []))

    def iter_log(self, log: str) -> Iterator[Any]:
        for record in self._logs.get(log, []):
            yield copy.deepcopy(record)

    def log_length(self, log: str) -> int:
        return len(self._logs.get(log, []))

    # ------------------------------------------------------------------
    # key-value area
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._kv[key] = copy.deepcopy(value)
        self.write_count += 1

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._kv:
            return copy.deepcopy(self._kv[key])
        return default

    def __contains__(self, key: str) -> bool:
        return key in self._kv
