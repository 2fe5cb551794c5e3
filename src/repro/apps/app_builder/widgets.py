"""Text-mode widget toolkit for the application builder.

The paper's builder produced Motif-style GUIs; ours renders 1993-honest
text forms (see DESIGN.md substitutions).  What matters architecturally
is preserved: widgets are plain objects a script can compose, fields
carry values, buttons carry actions, and a form renders itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["Button", "Form", "Label", "ListView", "TextField", "Widget",
           "WidgetError"]


class WidgetError(RuntimeError):
    """Unknown widget names, duplicate names, bad interactions."""


class Widget:
    """Base widget: everything has a name and renders to lines."""

    def __init__(self, name: str):
        self.name = name

    def render(self) -> List[str]:
        raise NotImplementedError


class Label(Widget):
    """Static (but settable) text."""

    def __init__(self, name: str, text: str = ""):
        super().__init__(name)
        self.text = text

    def set(self, text: str) -> None:
        self.text = text

    def render(self) -> List[str]:
        return [self.text]


class TextField(Widget):
    """A named input field."""

    def __init__(self, name: str, label: Optional[str] = None,
                 value: str = ""):
        super().__init__(name)
        self.label = label if label is not None else name
        self.value = value

    def set(self, value: Any) -> None:
        self.value = "" if value is None else str(value)

    def render(self) -> List[str]:
        return [f"{self.label}: [{self.value}]"]


class Button(Widget):
    """A named action.  ``press`` invokes it with the owning form."""

    def __init__(self, name: str, label: Optional[str] = None,
                 action: Optional[Callable[["Form"], None]] = None):
        super().__init__(name)
        self.label = label if label is not None else name
        self.action = action
        self.presses = 0

    def render(self) -> List[str]:
        return [f"<{self.label}>"]


class ListView(Widget):
    """A scrolling list of rows with fixed columns."""

    def __init__(self, name: str, columns: Sequence[str],
                 widths: Optional[Sequence[int]] = None,
                 max_rows: int = 100):
        super().__init__(name)
        self.columns = list(columns)
        self.widths = list(widths) if widths else [16] * len(self.columns)
        if len(self.widths) != len(self.columns):
            raise WidgetError(
                f"{name}: {len(self.columns)} columns but "
                f"{len(self.widths)} widths")
        self.max_rows = max_rows
        self.rows: List[List[str]] = []
        self.selected: Optional[int] = None
        self._on_select: Optional[Callable[[int], None]] = None

    def add_row(self, values: Sequence[Any]) -> None:
        if len(values) != len(self.columns):
            raise WidgetError(
                f"{self.name}: row has {len(values)} values, expected "
                f"{len(self.columns)}")
        self.rows.append([str(v) for v in values])
        if len(self.rows) > self.max_rows:
            self.rows.pop(0)
            if self.selected is not None:
                self.selected = max(0, self.selected - 1)

    def clear(self) -> None:
        self.rows = []
        self.selected = None

    def on_select(self, callback: Callable[[int], None]) -> None:
        self._on_select = callback

    def select(self, index: int) -> None:
        if not 0 <= index < len(self.rows):
            raise WidgetError(f"{self.name}: no row {index}")
        self.selected = index
        if self._on_select is not None:
            self._on_select(index)

    def _fit(self, text: str, width: int) -> str:
        return text[:width].ljust(width)

    def render(self) -> List[str]:
        header = " | ".join(self._fit(c, w)
                            for c, w in zip(self.columns, self.widths))
        lines = [header, "-" * len(header)]
        for index, row in enumerate(self.rows):
            marker = ">" if index == self.selected else " "
            lines.append(marker + " | ".join(
                self._fit(v, w) for v, w in zip(row, self.widths)))
        return lines


class Form(Widget):
    """A titled stack of widgets with name-based access."""

    def __init__(self, name: str, title: Optional[str] = None):
        super().__init__(name)
        self.title = title if title is not None else name
        self._widgets: Dict[str, Widget] = {}
        self._order: List[str] = []

    def add(self, widget: Widget) -> Widget:
        if widget.name in self._widgets:
            raise WidgetError(f"duplicate widget name {widget.name!r}")
        self._widgets[widget.name] = widget
        self._order.append(widget.name)
        return widget

    def widget(self, name: str) -> Widget:
        try:
            return self._widgets[name]
        except KeyError:
            raise WidgetError(f"form {self.name!r} has no widget "
                              f"{name!r}") from None

    def set_field(self, name: str, value: Any) -> None:
        widget = self.widget(name)
        if not isinstance(widget, TextField):
            raise WidgetError(f"{name!r} is not a text field")
        widget.set(value)

    def field_value(self, name: str) -> str:
        widget = self.widget(name)
        if not isinstance(widget, TextField):
            raise WidgetError(f"{name!r} is not a text field")
        return widget.value

    def press(self, name: str) -> None:
        widget = self.widget(name)
        if not isinstance(widget, Button):
            raise WidgetError(f"{name!r} is not a button")
        widget.presses += 1
        if widget.action is not None:
            widget.action(self)

    def render(self) -> List[str]:
        bar = "=" * max(len(self.title) + 4, 20)
        lines = [bar, f"  {self.title}", bar]
        for name in self._order:
            lines.extend("  " + line
                         for line in self._widgets[name].render())
        return lines

    def render_text(self) -> str:
        return "\n".join(self.render())
