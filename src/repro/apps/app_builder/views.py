"""Views: declarative object-to-row formatting.

Section 5: the News Monitor's summary list "is defined by a 'view' that
specifies a set of named attributes from incoming objects and formatting
information."  A :class:`View` is exactly that — attribute names plus
column widths — applied through the meta-object protocol, so it works on
any object type, including ones defined after the view was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from ...objects import DataObject

__all__ = ["View", "ViewColumn"]


@dataclass(frozen=True)
class ViewColumn:
    """One column: which attribute, and how wide."""

    attribute: str
    width: int = 16


class View:
    """A named attribute projection with formatting information."""

    def __init__(self, name: str, columns: Sequence[ViewColumn]):
        if not columns:
            raise ValueError(f"view {name!r} needs at least one column")
        self.name = name
        self.columns = list(columns)

    @classmethod
    def of(cls, name: str, *specs: Tuple[str, int]) -> "View":
        """Shorthand: ``View.of("headlines", ("headline", 40), ...)``."""
        return cls(name, [ViewColumn(attr, width) for attr, width in specs])

    def header(self) -> str:
        return " | ".join(c.attribute[: c.width].ljust(c.width)
                          for c in self.columns)

    def row(self, obj: DataObject) -> str:
        """Format one object.  Undeclared/unset attributes render blank —
        the view never fails on a type it has not seen before."""
        cells: List[str] = []
        for column in self.columns:
            cells.append(self._cell(obj, column))
        return " | ".join(cells)

    def _cell(self, obj: DataObject, column: ViewColumn) -> str:
        value: Any = ""
        if isinstance(obj, DataObject):
            try:
                value = obj.get(column.attribute)
            except Exception:
                value = ""   # attribute not declared on this type
        if value is None:
            value = ""
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        return str(value)[: column.width].ljust(column.width)

    def table(self, objects: Sequence[DataObject]) -> List[str]:
        lines = [self.header(), "-" * len(self.header())]
        lines.extend(self.row(obj) for obj in objects)
        return lines
