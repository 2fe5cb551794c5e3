"""An interactive TDL read-eval-print loop.

Run it with ``python -m repro.tdl``.  The paper's development experience
— defining classes and methods interactively, inspecting types through
the meta-object protocol — is exactly what a REPL is for.

Multi-line input is supported: a line with unbalanced parentheses keeps
reading until the form closes.
"""

from __future__ import annotations

import sys
from typing import IO, Optional

from ..objects import DataObject
from ..objects.printer import render
from .errors import TdlError
from .evaluator import Interpreter
from .reader import to_source

__all__ = ["repl", "format_result"]

_BANNER = """TDL — the Information Bus dynamic classing language
type forms at the prompt; (exit) or EOF to leave; ,types lists types
"""


def _balanced(text: str) -> bool:
    """True when every '(' is closed (strings respected)."""
    depth = 0
    in_string = False
    escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == ";":
            # comment runs to end of line; cheap approximation: stop
            # scanning this line at the semicolon
            newline = text.find("\n", text.index(ch))
            if newline == -1:
                break
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
    return depth <= 0 and not in_string


def format_result(value) -> str:
    """Render an evaluation result the way the REPL prints it."""
    if value is None:
        return "nil"
    if value is True:
        return "t"
    if isinstance(value, DataObject):
        return render(value)
    if isinstance(value, list):
        return to_source(value)
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


def repl(stdin: Optional[IO] = None, stdout: Optional[IO] = None,
         interp: Optional[Interpreter] = None) -> Interpreter:
    """Run the loop until EOF or ``(exit)``.  Returns the interpreter."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    interp = interp if interp is not None else Interpreter()
    exiting = {"flag": False}
    interp.define("exit", lambda: exiting.__setitem__("flag", True))

    def out(text: str = "") -> None:
        stdout.write(text + "\n")

    out(_BANNER.rstrip())
    buffer = ""
    while not exiting["flag"]:
        stdout.write("tdl> " if not buffer else "...> ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            break
        if not buffer and line.strip() == ",types":
            for name in interp.registry.names():
                out(f"  {name}")
            continue
        buffer += line
        if not buffer.strip() or not _balanced(buffer):
            continue
        try:
            result = interp.eval_text(buffer)
            # surface anything the script printed
            for printed in interp.eval_text("(tdl-output)"):
                out(printed)
            interp.eval_text("(clear-output)")
            if not exiting["flag"]:
                out(format_result(result))
        except TdlError as error:
            out(f"error: {error}")
        except Exception as error:   # object-model errors etc.
            out(f"error: {type(error).__name__}: {error}")
        buffer = ""
    out("bye")
    return interp


def main() -> int:   # pragma: no cover - terminal entry point
    repl()
    return 0
