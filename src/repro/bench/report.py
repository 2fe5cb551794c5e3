"""Plain-text table rendering for benchmark output.

Each figure bench prints the series it regenerates (and appends it to
``benchmarks/results/``) in the same axes the paper plots.
"""

from __future__ import annotations

import os
from typing import List, Sequence

__all__ = ["Report", "format_table"]

#: Where :meth:`Report.emit` writes: ``benchmarks/results/`` of the
#: checkout this module sits in.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "benchmarks", "results")


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A fixed-width table with a title bar."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int) and abs(cell) >= 10000:
        return f"{cell:,d}"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


class Report:
    """Collects lines, prints them, and persists them per bench target."""

    def __init__(self, name: str):
        self.name = name
        self.lines: List[str] = []

    def add(self, text: str) -> None:
        self.lines.extend(text.splitlines())

    def table(self, title: str, headers: Sequence[str],
              rows: Sequence[Sequence[object]]) -> None:
        self.add(format_table(title, headers, rows))
        self.add("")

    def note(self, text: str) -> None:
        self.add(text)

    def emit(self) -> str:
        """Print to stdout and write ``<RESULTS_DIR>/<name>.txt``."""
        text = "\n".join(self.lines)
        print()
        print(text)
        try:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            path = os.path.join(RESULTS_DIR, f"{self.name}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")
        except OSError:
            pass   # read-only checkout: printing is enough
        return text
