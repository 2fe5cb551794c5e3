"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro


@pytest.mark.parametrize("module", [repro], ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
