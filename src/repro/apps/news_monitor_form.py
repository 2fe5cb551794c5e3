"""The News Monitor's interactive front-end, built with the application
builder's widgets.

Mirrors the paper's description of the monitor UI (Section 5): incoming
stories appear in a headline summary list; selecting a row displays the
entire story — rendered from metadata — together with any Property
objects other services have attached.  The form is an ordinary widget
tree, so TDL scripts can drive it like anything else the builder makes.
"""

from __future__ import annotations

from .app_builder.widgets import Button, Form, Label, ListView
from .news_monitor import NewsMonitor

__all__ = ["NewsMonitorForm"]


class NewsMonitorForm:
    """A live form over a :class:`~repro.apps.news_monitor.NewsMonitor`."""

    def __init__(self, monitor: NewsMonitor, max_rows: int = 50):
        self.monitor = monitor
        self.view = monitor.view
        self.form = Form("news_monitor", title="News Monitor")
        self._summary = ListView(
            "headlines",
            columns=[c.attribute for c in self.view.columns],
            widths=[c.width for c in self.view.columns],
            max_rows=max_rows)
        self._summary.on_select(self._on_select)
        self._detail = Label("detail", "(select a story)")
        self._status = Label("status", "0 stories")
        self.form.add(self._status)
        self.form.add(self._summary)
        self.form.add(Button("refresh", action=lambda f: self.refresh()))
        self.form.add(self._detail)
        self._shown = 0

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Rebuild the summary list from the monitor's current stories."""
        selected = self._summary.selected
        self._summary.clear()
        for story in self.monitor.stories:
            self._summary.add_row(
                [self.view._cell(story, column).strip() or "-"
                 for column in self.view.columns])
        self._shown = len(self.monitor.stories)
        self._status.set(
            f"{self.monitor.stories_received} stories, "
            f"{self.monitor.properties_received} properties")
        if selected is not None and selected < len(self._summary.rows):
            self._summary.selected = selected

    def _on_select(self, index: int) -> None:
        # the list is a window over the tail of the story list
        offset = max(0, len(self.monitor.stories) - len(self._summary.rows))
        self._detail.set(self.monitor.select(offset + index))

    def select(self, index: int) -> str:
        """Programmatic selection (what a key press would do)."""
        self.refresh()
        self._summary.select(index)
        return self._detail.text

    def render_text(self) -> str:
        self.refresh()
        return self.form.render_text()
