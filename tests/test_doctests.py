"""The ``>>>`` examples in module docstrings run and hold."""

import doctest
import importlib

import pytest

MODULES = (
    "repro.linalg.newton",
    "repro.core.engine",
    "repro.interconnect.rc_network",
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.attempted > 0
    assert results.failed == 0
