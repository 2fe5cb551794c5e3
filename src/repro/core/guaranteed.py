"""Guaranteed message delivery (the stronger QoS of Section 3.1).

    "In this case, the message is logged to non-volatile storage before
    it is sent.  The message is guaranteed to be delivered at least once,
    regardless of failures.  The publisher will retransmit the message at
    appropriate times until a reply is received.  If there is no failure,
    then the message will be delivered exactly once.  Guaranteed delivery
    is particularly useful when sending data to a database over an
    unreliable network."

Publisher side (:class:`GuaranteedPublisher`): each guaranteed publish is
recorded in the host's stable ledger *before* transmission and republished
on a timer until ``ack_quorum`` distinct consumers have acknowledged it,
at which point it leaves the ledger: the ledger is the *unacknowledged*
set.  It (and the acks collected so far) survives crashes; on recovery
the daemon builds a fresh publisher, which loads it and resumes
retransmitting what is in it.

Consumer side (:class:`GuaranteedConsumer`): a daemon with *durable*
subscribers appends delivered ledger ids to a stable log, so a
retransmission after a consumer crash is acknowledged but not delivered
twice — at-least-once to the application, exactly-once when nothing
fails.  An information router's store-and-forward target dedupes its
shipments with the same class, on its own log.

The publisher takes a ``namespace``: shard daemons above plane 0 suffix
its stable-store keys with it, and pass the consumer the same suffix on
its log's name (``gd.seen`` + suffix), so the shards of one host never
share a ledger, counter, or seen-set.  The empty default keeps the
classic key names (and ledger-id format) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.kernel import PeriodicTimer, Simulator
from ..sim.node import Host

__all__ = ["GuaranteedPublisher", "GuaranteedConsumer", "LedgerEntry"]

_LEDGER_KEY = "gd.ledger"
_COUNTER_KEY = "gd.counter"

#: Seconds between republishes of the unacknowledged ledger entries.
RETRANSMIT_INTERVAL = 0.5


@dataclass
class LedgerEntry:
    """One guaranteed message awaiting acknowledgement."""

    ledger_id: str
    subject: str
    sender: str          # publishing client id
    payload: bytes
    acks: List[str]      # consumer daemon sessions' hosts that confirmed

    def to_record(self) -> dict:
        return {"ledger_id": self.ledger_id, "subject": self.subject,
                "sender": self.sender, "payload": self.payload,
                "acks": list(self.acks)}

    @classmethod
    def from_record(cls, record: dict) -> "LedgerEntry":
        return cls(record["ledger_id"], record["subject"], record["sender"],
                   record["payload"], list(record["acks"]))


class GuaranteedPublisher:
    """The publish side of guaranteed delivery for one daemon."""

    def __init__(self, sim: Simulator, host: Host, ack_quorum: int,
                 republish: Callable[[LedgerEntry], None],
                 namespace: str = ""):
        self.sim = sim
        self.host = host
        self.ack_quorum = ack_quorum
        self._republish = republish
        self._ledger_key = _LEDGER_KEY + namespace
        self._counter_key = _COUNTER_KEY + namespace
        # ledger ids stay `<host>/...`-prefixed (ack unicast routing
        # parses the origin host off the front) but carry the namespace
        # so ids from different shard planes can never collide
        self._id_prefix = (f"{host.address}/{namespace}." if namespace
                           else f"{host.address}/")
        #: the unacknowledged entries, mirrored in stable storage
        self._entries: Dict[str, LedgerEntry] = {}
        self._timer: Optional[PeriodicTimer] = None
        self.retransmits = 0
        self._load()
        if self.pending():
            # a previous incarnation left unacked entries in the ledger
            self._ensure_timer()

    # ------------------------------------------------------------------
    def record(self, subject: str, sender: str, payload: bytes) -> str:
        """Log a new guaranteed message to stable storage; returns its id.

        This runs *before* the first transmission, per the paper.
        """
        counter = self.host.stable.get(self._counter_key, 0) + 1
        self.host.stable.put(self._counter_key, counter)
        ledger_id = f"{self._id_prefix}{counter}"
        entry = LedgerEntry(ledger_id, subject, sender, payload, [])
        self._entries[ledger_id] = entry
        self._persist()
        self._ensure_timer()
        return ledger_id

    def handle_ack(self, ledger_id: str, consumer: str) -> None:
        """A consumer confirmed stable receipt of ``ledger_id``.

        The ack that completes the quorum retires the entry; an ack for
        an id not (or no longer) in the ledger, or a repeat from a
        consumer already counted, changes nothing and writes nothing.
        """
        entry = self._entries.get(ledger_id)
        if entry is None or consumer in entry.acks:
            return
        entry.acks.append(consumer)
        if len(entry.acks) >= self.ack_quorum:
            del self._entries[ledger_id]
        self._persist()

    def pending(self) -> List[LedgerEntry]:
        return list(self._entries.values())

    def shutdown(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------
    def _ensure_timer(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(self.sim, RETRANSMIT_INTERVAL,
                                        self._tick, name="gd.retransmit")

    def _tick(self) -> None:
        pending = self.pending()
        if not pending:
            self._timer.stop()
            self._timer = None
            return
        for entry in pending:
            self.retransmits += 1
            self._republish(entry)

    def _persist(self) -> None:
        self.host.stable.put(self._ledger_key,
                             [e.to_record() for e in self._entries.values()])

    def _load(self) -> None:
        for record in self.host.stable.get(self._ledger_key, []):
            entry = LedgerEntry.from_record(record)
            self._entries[entry.ledger_id] = entry


class GuaranteedConsumer:
    """The consume side: stable dedupe of delivered ids.

    The seen-set only grows, so it lives in one of the store's
    append-only logs, named ``seen_log``: one appended id per first
    delivery, the in-memory set rebuilt from the log on start and on
    :meth:`recover`, which the owner calls when its host comes back.
    """

    def __init__(self, host: Host, seen_log: str):
        self.host = host
        self._seen_key = seen_log
        self.recover()

    def first_delivery(self, ledger_id: str) -> bool:
        """True exactly once per ledger id, durably across crashes."""
        if ledger_id in self._seen:
            return False
        self._seen.add(ledger_id)
        self.host.stable.append(self._seen_key, ledger_id)
        return True

    def recover(self) -> None:
        self._seen = set(self.host.stable.read_log(self._seen_key))
