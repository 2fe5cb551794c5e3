"""The adapter framework (Section 4).

    "To integrate existing applications into the Information Bus we use
    software modules called adapters.  These adapters convert information
    from the data objects of the Information Bus into data understood by
    the applications, and vice versa.  Adapters must live in two worlds
    at once, translating communication mechanisms and data schemas."

:class:`Adapter` is the shared skeleton: a bus client on one side, an
arbitrary legacy endpoint on the other, and counters that every concrete
adapter (news feeds, the WIP terminal, the Object Repository) reports
through.
"""

from __future__ import annotations

from typing import List, Optional

from ..core import BusClient, Subscription

__all__ = ["Adapter"]


class Adapter:
    """Base class for bus ↔ legacy-system bridges."""

    def __init__(self, client: BusClient, name: Optional[str] = None):
        self.client = client
        self.name = name or type(self).__name__
        self.inbound = 0      # legacy -> bus translations
        self.outbound = 0     # bus -> legacy translations
        self.errors = 0
        self.last_error: Optional[str] = None
        self._subscriptions: List[Subscription] = []
        self._running = True

    @property
    def sim(self):
        return self.client.sim

    # ------------------------------------------------------------------
    def track_subscription(self, subscription: Subscription) -> Subscription:
        self._subscriptions.append(subscription)
        return subscription

    def record_error(self, message: str) -> None:
        self.errors += 1
        self.last_error = message

    def stop(self) -> None:
        """Detach from the bus.  Concrete adapters extend this to also
        close their legacy side."""
        if not self._running:
            return
        self._running = False
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions = []

