"""The Keyword Generator (Section 5.2, Figure 4).

    "The Keyword Generator subscribes to stories on major subjects and
    searches the text of each story for 'keywords' that have been
    designated under several major 'categories.'  For each Story object,
    a list of keywords is constructed as a named Property object of the
    Story object and published under the same subject.  It also supports
    an interactive interface that allows clients to browse categories
    and associated keywords."

It can come on-line at any time; existing monitors start receiving its
Property objects immediately (P4) with no reconfiguration anywhere.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core import BusClient, MessageInfo
from ..core.rmi import RmiServer
from ..objects import DataObject, OperationSpec, ParamSpec, TypeDescriptor
from ..objects.properties import is_property, make_property
from ..objects.service import ServiceObject

__all__ = ["KeywordGenerator", "KEYWORD_SERVICE_TYPE",
           "DEFAULT_CATEGORIES"]

#: The interactive interface's service type ("an instance of a new
#: service type" that monitors can drive via introspection).
KEYWORD_SERVICE_TYPE = "keyword_service"

DEFAULT_CATEGORIES: Dict[str, List[str]] = {
    "semiconductors": ["chip", "fab", "wafer", "yield", "litho",
                       "semiconductor"],
    "markets": ["earnings", "shares", "volume", "rally", "rate"],
    "geography": ["export", "japan", "taiwan", "treasury"],
}


def _register_service_type(registry) -> None:
    if registry.has(KEYWORD_SERVICE_TYPE):
        return
    registry.register(TypeDescriptor(
        KEYWORD_SERVICE_TYPE,
        operations=[
            OperationSpec("categories", result_type="list<string>",
                          doc="the designated keyword categories"),
            OperationSpec("keywords_in",
                          params=(ParamSpec("category", "string"),),
                          result_type="list<string>",
                          doc="the keywords designated under a category"),
            OperationSpec("add_keyword",
                          params=(ParamSpec("category", "string"),
                                  ParamSpec("word", "string")),
                          doc="designate a new keyword at run time"),
        ],
        doc="browse and extend the keyword designations"))


class KeywordGenerator:
    """Annotates stories with keyword properties; serves its config."""

    def __init__(self, client: BusClient):
        self.client = client
        self.categories: Dict[str, List[str]] = {
            category: list(words)
            for category, words in DEFAULT_CATEGORIES.items()}
        self.stories_scanned = 0
        self.properties_published = 0
        self._subscriptions = [client.subscribe("news.>", self._on_story)]
        # the interactive interface, exposed over RMI
        _register_service_type(client.registry)
        service = ServiceObject(client.registry, KEYWORD_SERVICE_TYPE)
        service.implement("categories", lambda: sorted(self.categories))
        service.implement("keywords_in", self._keywords_in)
        service.implement("add_keyword", self._add_keyword)
        self.rmi = RmiServer(client, "svc.keywords", service)

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def _on_story(self, subject: str, obj: Any, info: MessageInfo) -> None:
        if not isinstance(obj, DataObject) or is_property(obj):
            return   # ignore scalars and (our own) property publications
        text = self._story_text(obj)
        if text is None:
            return
        self.stories_scanned += 1
        found = self.scan(text)
        if not found:
            return
        prop = make_property(self.client.registry, "keywords", found,
                             ref=obj.oid)
        self.client.publish(subject, prop)   # "under the same subject"
        self.properties_published += 1

    def _story_text(self, obj: DataObject) -> Optional[str]:
        parts = []
        for attr in ("headline", "body"):
            try:
                value = obj.get(attr)
            except Exception:
                continue   # this type does not declare the attribute
            if isinstance(value, str):
                parts.append(value)
        # an object with neither attribute is not story-shaped: skip it
        return " ".join(parts).lower() if parts else None

    def scan(self, text: str) -> Dict[str, List[str]]:
        """Keywords found in ``text``, grouped by category."""
        found: Dict[str, List[str]] = {}
        for category, words in self.categories.items():
            hits = sorted({w for w in words if w in text})
            if hits:
                found[category] = hits
        return found

    # ------------------------------------------------------------------
    # the interactive interface
    # ------------------------------------------------------------------
    def _keywords_in(self, category: str) -> List[str]:
        if category not in self.categories:
            raise KeyError(f"no category {category!r}")
        return sorted(self.categories[category])

    def _add_keyword(self, category: str, word: str) -> None:
        self.categories.setdefault(category, []).append(word.lower())

    def stop(self) -> None:
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions = []
        self.rmi.stop()
