"""Smoke tests: every example script must run clean end to end.

Each example asserts its own scenario internally; here we just execute
them (with stdout captured) so a regression anywhere in the stack fails
the suite, not just the demo.  The list is ``python -m repro``'s, and it
names every script in ``examples/``: examples count as callers of the
library (``tests/tools/test_public_names_have_callers.py``), so one that
nothing runs would be false evidence.
"""

import importlib.util
import io
import os
from contextlib import redirect_stdout

import pytest

from repro.__main__ import EXAMPLES

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "examples")


def run_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        module.main()
    return buffer.getvalue()


def test_every_example_script_is_listed():
    scripts = {name[:-len(".py")] for name in os.listdir(EXAMPLES_DIR)
               if name.endswith(".py")}
    assert scripts == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    output = run_example(name)
    assert "OK" in output


def test_quickstart_demonstrates_type_learning():
    output = run_example("quickstart")
    assert "attribute_type('price') = float" in output
    assert "position(GMC) -> 1200" in output


def test_trading_floor_demonstrates_figure4():
    output = run_example("trading_floor")
    assert "Keyword Generator comes on-line" in output
    assert "properties:" in output
    assert "keywords" in output


def test_dynamic_evolution_demonstrates_upgrade():
    output = run_example("dynamic_evolution")
    assert "next_lot -> 'LOT-v1-LITHO8'" in output
    assert "after v1 retires: next_lot -> 'LOT-v2-LITHO8'" in output
    assert "obj_recipe" in output
