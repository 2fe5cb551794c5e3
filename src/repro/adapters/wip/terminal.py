"""The legacy Work-In-Progress tracking system.

Section 4: "our customer already had a Work In Progress (WIP) system with
its own data schemas ... the existing WIP system is written in Cobol, and
there is only a primitive terminal interface.  The adapter must act as a
virtual user to the terminal interface."

This module is that legacy system: a lot-tracking database behind a
menu-driven, fixed-width, all-caps terminal interface.  There is no API —
the only way in or out is :meth:`WipTerminal.send` (type a line) and
:meth:`WipTerminal.screen` (read the 80-column display), which is exactly
the interface the adapter must screen-scrape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["WipLotRecord", "WipTerminal"]

_WIDTH = 80


@dataclass
class WipLotRecord:
    """One lot in the legacy system's flat-file 'database'."""

    lot_id: str
    product: str
    step: str
    qty: int
    status: str   # QUEUED | PROC | HOLD | DONE


class WipTerminal:
    """The 1970s-style terminal front-end to the WIP flat files.

    Screens: MAIN MENU -> (1) LOT INQUIRY, (2) TRACK IN, (3) TRACK OUT,
    (4) HOLD LOT, (5) NEW LOT.  Every interaction is a typed line; every
    response is a full 80-column screen repaint.  Case-insensitive input,
    SHOUTING output.
    """

    def __init__(self) -> None:
        self._lots: Dict[str, WipLotRecord] = {}
        self._screen: List[str] = []
        self._mode = "menu"
        self._pending: List[str] = []   # fields collected in a form mode
        self.commands_processed = 0
        self._paint_menu()

    # ------------------------------------------------------------------
    # the whole legacy interface: two methods
    # ------------------------------------------------------------------
    def screen(self) -> List[str]:
        """The current 80-column screen contents."""
        return list(self._screen)

    def send(self, line: str) -> None:
        """Type one line at the terminal."""
        self.commands_processed += 1
        text = line.strip().upper()
        if self._mode == "menu":
            self._from_menu(text)
        elif self._mode in ("inquiry", "trackin", "trackout", "hold",
                            "newlot"):
            self._collect_field(text)
        else:   # pragma: no cover - defensive
            self._paint_menu()

    # ------------------------------------------------------------------
    # direct (non-terminal) access for tests that set up fixtures
    # ------------------------------------------------------------------
    def seed_lot(self, record: WipLotRecord) -> None:
        self._lots[record.lot_id.upper()] = record

    # ------------------------------------------------------------------
    # screens
    # ------------------------------------------------------------------
    def _paint(self, lines: List[str]) -> None:
        framed = ["*" * _WIDTH]
        for line in lines:
            framed.append(("* " + line).ljust(_WIDTH - 1) + "*")
        framed.append("*" * _WIDTH)
        self._screen = framed

    def _paint_menu(self) -> None:
        self._mode = "menu"
        self._pending = []
        self._paint([
            "ACME FAB5  WORK-IN-PROGRESS TRACKING  V2.3  (C)1979",
            "",
            "MAIN MENU",
            "  1. LOT INQUIRY",
            "  2. TRACK IN",
            "  3. TRACK OUT",
            "  4. HOLD LOT",
            "  5. NEW LOT",
            "  6. LOT LIST REPORT",
            "",
            "ENTER SELECTION:",
        ])

    def _prompt(self, mode: str, prompt: str) -> None:
        self._mode = mode
        self._paint([f"FAB5 WIP - {mode.upper()}", "", prompt])

    def _from_menu(self, text: str) -> None:
        if text == "":
            self._paint_menu()   # "PRESS ENTER FOR MENU"
        elif text == "1":
            self._prompt("inquiry", "ENTER LOT ID:")
        elif text == "2":
            self._prompt("trackin", "ENTER LOT ID:")
        elif text == "3":
            self._prompt("trackout", "ENTER LOT ID, STEP (COMMA SEP):")
        elif text == "4":
            self._prompt("hold", "ENTER LOT ID:")
        elif text == "5":
            self._prompt("newlot",
                         "ENTER LOT ID, PRODUCT, STEP, QTY (COMMA SEP):")
        elif text == "6":
            self._show_lot_list()
        else:
            self._paint(["INVALID SELECTION", "", "PRESS ANY KEY"])
            self._mode = "menu"

    # ------------------------------------------------------------------
    # form handling
    # ------------------------------------------------------------------
    def _collect_field(self, text: str) -> None:
        mode = self._mode
        if mode == "inquiry":
            self._do_inquiry(text)
        elif mode == "trackin":
            self._do_trackin(text)
        elif mode == "trackout":
            self._do_trackout(text)
        elif mode == "hold":
            self._do_hold(text)
        elif mode == "newlot":
            self._do_newlot(text)

    def _show_lot(self, record: WipLotRecord, note: str = "") -> None:
        lines = [
            "FAB5 WIP - LOT DETAIL",
            "",
            f"LOT ID  : {record.lot_id.upper():<12}",
            f"PRODUCT : {record.product.upper():<12}",
            f"STEP    : {record.step.upper():<12}",
            f"QTY     : {record.qty:>6d}",
            f"STATUS  : {record.status:<8}",
        ]
        if note:
            lines += ["", note]
        lines += ["", "PRESS ENTER FOR MENU"]
        self._paint(lines)
        self._mode = "menu"   # any further input returns to the menu

    def _not_found(self, lot_id: str) -> None:
        self._paint([f"*** ERROR 404: LOT {lot_id} NOT ON FILE ***", "",
                     "PRESS ENTER FOR MENU"])
        self._mode = "menu"

    def _show_lot_list(self) -> None:
        """The batch report screen: one fixed-width row per lot."""
        lines = ["FAB5 WIP - LOT LIST REPORT",
                 "",
                 "LOT ID       PRODUCT      STEP         QTY    STATUS",
                 "-" * 56]
        for lot_id in sorted(self._lots):
            record = self._lots[lot_id]
            lines.append(f"{record.lot_id.upper():<12} "
                         f"{record.product.upper():<12} "
                         f"{record.step.upper():<12} "
                         f"{record.qty:>5d}  {record.status:<8}")
        if not self._lots:
            lines.append("*** NO LOTS ON FILE ***")
        lines += ["", f"TOTAL LOTS: {len(self._lots)}",
                  "PRESS ENTER FOR MENU"]
        self._paint(lines)
        self._mode = "menu"

    def _do_inquiry(self, lot_id: str) -> None:
        record = self._lots.get(lot_id)
        if record is None:
            self._not_found(lot_id)
        else:
            self._show_lot(record)

    def _do_trackin(self, lot_id: str) -> None:
        record = self._lots.get(lot_id)
        if record is None:
            self._not_found(lot_id)
            return
        if record.status == "HOLD":
            self._paint([f"*** ERROR 409: LOT {lot_id} ON HOLD ***", "",
                         "PRESS ENTER FOR MENU"])
            self._mode = "menu"
            return
        record.status = "PROC"
        self._show_lot(record, "TRACK-IN COMPLETE")

    def _do_trackout(self, text: str) -> None:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2 or not all(parts):
            self._paint(["*** ERROR 400: EXPECTED LOT ID, STEP ***", "",
                         "PRESS ENTER FOR MENU"])
            self._mode = "menu"
            return
        lot_id, next_step = parts
        record = self._lots.get(lot_id)
        if record is None:
            self._not_found(lot_id)
            return
        record.step = next_step
        record.status = "QUEUED" if next_step != "SHIP" else "DONE"
        self._show_lot(record, "TRACK-OUT COMPLETE")

    def _do_hold(self, lot_id: str) -> None:
        record = self._lots.get(lot_id)
        if record is None:
            self._not_found(lot_id)
            return
        record.status = "HOLD"
        self._show_lot(record, "LOT PLACED ON HOLD")

    def _do_newlot(self, text: str) -> None:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4 or not all(parts):
            self._paint([
                "*** ERROR 400: EXPECTED LOT ID, PRODUCT, STEP, QTY ***",
                "", "PRESS ENTER FOR MENU"])
            self._mode = "menu"
            return
        lot_id, product, step, qty_text = parts
        try:
            qty = int(qty_text)
        except ValueError:
            self._paint(["*** ERROR 400: QTY MUST BE NUMERIC ***", "",
                         "PRESS ENTER FOR MENU"])
            self._mode = "menu"
            return
        if lot_id in self._lots:
            self._paint([f"*** ERROR 409: LOT {lot_id} EXISTS ***", "",
                         "PRESS ENTER FOR MENU"])
            self._mode = "menu"
            return
        record = WipLotRecord(lot_id, product, step, qty, "QUEUED")
        self._lots[lot_id] = record
        self._show_lot(record, "LOT CREATED")
