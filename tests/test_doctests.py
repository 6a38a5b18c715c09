"""The docstring examples in the package run and pass."""

import doctest
import importlib
import pkgutil

import lfcheck


def test_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(lfcheck.__path__, "lfcheck."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    # chargroup 4, repalg 2, exprlang 2: a count of zero would mean
    # nothing ran
    assert attempted >= 8
