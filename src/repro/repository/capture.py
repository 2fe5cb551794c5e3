"""The Object Repository as a bus application.

Section 4: "it may be configured as a capture server that captures all
objects for a given set of subjects and inserts those objects
automatically into the repository under those subjects; it may also be
configured as a query server to receive requests from clients and return
replies."  This module is the capture configuration; see
:mod:`repro.repository.query_server` for the other.
"""

from __future__ import annotations

from typing import Any, List

from ..core import BusClient, MessageInfo
from ..objects import DataObject, decode, encode
from .object_store import ObjectStore
from .relational import Database

__all__ = ["CaptureServer"]

#: Stable-storage log holding the capture server's write-ahead records.
_WAL_LOG = "repo.wal"


class CaptureServer:
    """Subscribes to subjects and inserts every received object.

    The subscriptions are *durable*, so publishers using guaranteed
    delivery get their "sending data to a database over an unreliable
    network" semantics: the capture server acknowledges each message
    only after it is stored.

    Thanks to P2 and dynamic schema generation, the capture server needs
    no per-type code: "when the repository needs to store an instance of
    a previously unknown type, it is capable of generating one or more
    new database tables to represent the new type."

    Durability: the paper's repository sits on a commercial RDBMS whose
    storage survives crashes; our in-memory relational engine does not.
    A write-ahead log in the host's stable storage closes that gap, and
    it is always on: each object's wire encoding is logged before the
    store is updated, and :meth:`recover` (invoked automatically when
    the host comes back up) replays it.  Without it, acknowledging a
    guaranteed message and then crashing would lose data the publisher
    believes is safely in the database.
    """

    def __init__(self, client: BusClient, subjects: List[str]):
        self.client = client
        self.db = Database(f"{client.id}.capture")
        self.store = ObjectStore(self.db, client.registry)
        self.captured = 0
        self.skipped = 0
        self.replayed = 0
        self._subscriptions = [
            client.subscribe(pattern, self._on_message, durable=True)
            for pattern in subjects]
        client.host.on_recover(self.recover)
        if client.host.stable.log_length(_WAL_LOG):
            self.recover()   # a previous incarnation left data

    def _on_message(self, subject: str, obj: Any, info: MessageInfo) -> None:
        if not isinstance(obj, DataObject):
            self.skipped += 1   # scalar payloads are not repository food
            return
        # log before store: the guaranteed-delivery ack (sent by the
        # daemon after this callback) must imply durability; the record
        # keeps the subject the object arrived under
        self.client.host.stable.append(_WAL_LOG, {
            "subject": subject,
            # self-contained on purpose: WAL entries are decoded during
            # recovery, long after the publishing session (and its
            # type-plane ids) are gone
            "wire": encode(obj, self.client.registry, inline_types=True)})
        self.store.store(obj)
        self.captured += 1

    def recover(self) -> None:
        """Rebuild the in-memory database from the write-ahead log.

        Resets the existing :class:`ObjectStore` *in place*, so query
        servers and other holders of the store reference read the
        recovered state, not a stale snapshot.
        """
        self.store.reset(Database(f"{self.client.id}.capture"))
        self.db = self.store.db
        self.replayed = 0
        for record in self.client.host.stable.iter_log(_WAL_LOG):
            self.store.store(decode(record["wire"], self.client.registry))
            self.replayed += 1

    def stop(self) -> None:
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions = []
