"""The docstring examples in the package and the README's library example
run and pass."""

import ast
import doctest
import importlib
import os
import pkgutil

import lfcheck

HERE = os.path.dirname(os.path.abspath(__file__))


def test_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(lfcheck.__path__, "lfcheck."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    # chargroup 4, repalg 2, exprlang 2: a count of zero would mean
    # nothing ran
    assert attempted >= 8


def test_readme_library_example():
    # the README's one public example of the library, run as written
    readme = os.path.join(os.path.dirname(HERE), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "assert rep.ok" in code and "assert res.ok" in code
    # every name it uses, the scan's steps among them, is the package's own
    imports = [n for n in ast.walk(ast.parse(code)) if isinstance(n, ast.ImportFrom)]
    assert {n.module for n in imports} == {"lfcheck"}
    assert {a.name for n in imports for a in n.names} <= set(lfcheck.__all__)
    exec(compile(code, readme, "exec"), {})
