"""Collect the library's doctests: the examples in docstrings are part
of the documented contract and must keep executing.

Modules are fetched through :mod:`importlib` because the package
re-exports ``clifford`` (the function), which shadows the submodule as
an attribute of the package.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = (
    "gradedbrauer.scalars",
    "gradedbrauer.linalg",
    "gradedbrauer.groups",
    "gradedbrauer.algebra",
    "gradedbrauer.verify",
    "gradedbrauer.clifford",
    "gradedbrauer.invariants",
    "gradedbrauer.spaces",
)

DOCUMENTED_BY_EXAMPLE = {"gradedbrauer.groups", "gradedbrauer.clifford"}


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    failed, attempted = doctest.testmod(importlib.import_module(name))
    assert failed == 0
    if name in DOCUMENTED_BY_EXAMPLE:
        assert attempted > 0
