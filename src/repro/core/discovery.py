"""Dynamic discovery over publish/subscribe (Section 3.2).

    "One participant publishes 'Who's out there?' under a subject.  The
    other participants publish 'I am' and other information describing
    their state, if they serve the subject in question. ... We are
    effectively using the network itself as a name service."

No name server, no boot-strapping: a :class:`Responder` subscribes to the
inquiry subject derived from a service subject; an :class:`Inquiry`
publishes the question, collects "I am" answers for a window, and hands
the respondent descriptions to its callback.  Both messages are ordinary
bus publications, preserving P4 (anonymous communication).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .client import BusClient, Subscription
from .contracts import admits, conforms

__all__ = ["DiscoveredService", "Inquiry", "Responder", "inquiry_subject"]

_inquiry_ids = itertools.count(1)

#: Prefix under which discovery traffic for a service subject travels.
_DISCOVERY_PREFIX = "_discovery"


def inquiry_subject(service_subject: str) -> str:
    """The well-known subject on which a service's discovery runs."""
    return f"{_DISCOVERY_PREFIX}.{service_subject}"


@dataclass
class DiscoveredService:
    """One "I am" answer."""

    service_subject: str
    responder: str          # client id of the respondent
    info: Dict[str, Any]    # service-specific state description


class Responder:
    """Answers "Who's out there?" for one service subject.

    ``info`` may be a dict or a zero-argument callable returning one —
    the paper notes respondents describe "their state", which changes.
    """

    def __init__(self, client: BusClient, service_subject: str,
                 info: Any = None,
                 should_answer: Optional[Callable[[], bool]] = None):
        self.client = client
        self.service_subject = service_subject
        self._info = info
        self._should_answer = should_answer
        self.answered = 0
        self._subscription: Optional[Subscription] = client.subscribe(
            inquiry_subject(service_subject), self._on_inquiry)

    def _current_info(self) -> Dict[str, Any]:
        info = self._info() if callable(self._info) else self._info
        return dict(info or {})

    def _on_inquiry(self, subject: str, payload: Any, _info) -> None:
        if (conforms(payload, "discovery_iam")   # an answer, not a question
                or not admits(payload, "discovery_who", self.client.metrics)):
            return
        if self._should_answer is not None and not self._should_answer():
            return   # e.g. a standby member of an exclusive server group
        self.answered += 1
        self.client.publish(subject, {
            "kind": "iam",
            "inquiry_id": payload["inquiry_id"],
            "service": self.service_subject,
            "responder": self.client.id,
            "info": self._current_info(),
        })

    def stop(self) -> None:
        if self._subscription is not None:
            self.client.unsubscribe(self._subscription)
            self._subscription = None


class Inquiry:
    """One "Who's out there?" round.

    Collects responses for ``window`` simulated seconds, then invokes
    ``on_complete(list_of_discovered)`` exactly once.  If ``enough`` is
    given, completes early once that many respondents have answered.

    Any application may publish on the discovery subject, and inquiry
    ids are predictable, so a payload there that is not a question is
    admitted through the ``discovery_iam`` contract
    (:mod:`repro.core.contracts`) before the inquiry id is compared.
    """

    def __init__(self, client: BusClient, service_subject: str,
                 on_complete: Callable[[List[DiscoveredService]], None],
                 window: float = 0.25, enough: Optional[int] = None):
        self.client = client
        self.service_subject = service_subject
        self.inquiry_id = f"{client.id}?{next(_inquiry_ids)}"
        self._on_complete = on_complete
        self._enough = enough
        self._responses: List[DiscoveredService] = []
        self._seen: set = set()
        self._done = False
        subject = inquiry_subject(service_subject)
        self._subscription = client.subscribe(subject, self._on_message)
        client.publish(subject, {"kind": "who",
                                 "inquiry_id": self.inquiry_id,
                                 "service": service_subject})
        self._timeout = client.sim.schedule(window, self._complete,
                                            name="discovery.window")

    def _on_message(self, subject: str, payload: Any, _info) -> None:
        if (self._done or conforms(payload, "discovery_who")   # a question
                or not admits(payload, "discovery_iam", self.client.metrics)):
            return
        if payload["inquiry_id"] != self.inquiry_id:
            return   # an answer to someone else's (or an older) inquiry
        responder = payload["responder"]
        if responder in self._seen:
            return
        self._seen.add(responder)
        self._responses.append(DiscoveredService(
            payload["service"], responder, dict(payload.get("info", {}))))
        if self._enough is not None and len(self._responses) >= self._enough:
            self._complete()

    def _complete(self) -> None:
        if self._done:
            return
        self._done = True
        self._timeout.cancel()
        self.client.unsubscribe(self._subscription)
        self._on_complete(list(self._responses))

    def cancel(self) -> None:
        """Abandon the inquiry without invoking the callback."""
        if self._done:
            return
        self._done = True
        self._timeout.cancel()
        self.client.unsubscribe(self._subscription)
