"""The News Monitor (Section 5, Figures 3 and 4).

    "The News Monitor subscribes to and displays all stories of interest
    to its user.  Incoming stories are first displayed in a 'headline
    summary list' ... When the user selects a story in the summary list,
    the entire story is displayed ... by using the object's metadata to
    iterate through all of its attributes and display them (P2)."

And the evolution half (Section 5.2): when a Keyword Generator comes
on-line and starts publishing Property objects on the same subjects, the
monitor "will be able to receive the new data immediately" (P4), and is
"configured to accept Property objects, to associate them with the
objects they reference, and to display them along with the attributes of
an object" — see :meth:`NewsMonitor.select`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core import BusClient, MessageInfo
from ..objects import DataObject
from ..objects.printer import render
from ..objects.properties import PropertyIndex, is_property
from .app_builder.views import View

__all__ = ["NewsMonitor", "DEFAULT_HEADLINE_VIEW"]

#: The default headline-summary view: attribute names + widths.
DEFAULT_HEADLINE_VIEW = View.of("headlines",
                                ("topic", 8), ("headline", 48),
                                ("sources", 14))

#: Stories a monitor keeps: past it, the oldest falls off the list.
MAX_STORIES = 500


class NewsMonitor:
    """Subscribes to story subjects and maintains the summary list."""

    def __init__(self, client: BusClient, subjects: Optional[List[str]] = None):
        self.client = client
        self.view = DEFAULT_HEADLINE_VIEW
        self.stories: List[DataObject] = []
        self.properties = PropertyIndex()
        self.stories_received = 0
        self.properties_received = 0
        self.ignored = 0
        self._subscriptions = [
            client.subscribe(pattern, self._on_message)
            for pattern in (subjects or ["news.>"])]

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def _on_message(self, subject: str, obj: Any, info: MessageInfo) -> None:
        if is_property(obj):
            # the Keyword Generator (or any future annotator) at work
            self.properties.add(obj)
            self.properties_received += 1
            return
        if not isinstance(obj, DataObject):
            self.ignored += 1
            return
        self.stories.append(obj)
        self.stories_received += 1
        if len(self.stories) > MAX_STORIES:
            self.stories.pop(0)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def headlines(self) -> List[str]:
        """The headline summary list, formatted by the view."""
        return self.view.table(self.stories)

    def select(self, index: int) -> str:
        """Full display of one story: every attribute via the MOP, plus
        any properties other services have attached to it."""
        if not 0 <= index < len(self.stories):
            raise IndexError(f"no story {index}")
        story = self.stories[index]
        lines = [render(story)]
        attached = self.properties.properties_of(story.oid)
        if attached:
            lines.append("")
            lines.append("properties:")
            for prop in attached:
                lines.append(f"  {prop.get('name')}: {prop.get('value')!r}")
        return "\n".join(lines)

    def keywords_for(self, index: int) -> Any:
        """Convenience: the 'keywords' property of story ``index``."""
        story = self.stories[index]
        return self.properties.property_value(story.oid, "keywords")

    def stop(self) -> None:
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions = []
