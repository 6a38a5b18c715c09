"""Each command loads only the modules its subcommand runs.

Every `lfcheck` command starts a fresh interpreter that compiles whatever
it imports, so the import set is part of a command's cost.  These tests run
the console entry point (`from lfcheck.cli import main`) in a child process
and read `sys.modules` once `main` has returned: each subcommand loads
exactly its own lfcheck modules, and none loads argparse; `repalg` loads
only the character group and takes no declaration.  Three checks on the
source close the file: each module's private names stay its own, every
annotation names something its module can resolve, and the status rule,
the base names and the tolerances each have one owner, with no sort_key
restating the order of a value's fields and no name over a base spelled
out.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import typing

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
HYP = os.path.join(HERE, "fixtures", "octa_octa.hyp")

LAUNCH = (
    "import sys; from lfcheck.cli import main; main(sys.argv[1:]); "
    "print('MODULES', *sorted(sys.modules))"
)

SCAN = ["scan", "--form1", "delta", "--form2", "11a",
        "--char", "kronecker:-4", "--xmax", "60", "--lmax", "2"]
# the lfcheck modules each subcommand loads, exactly
SYMBOLIC = {"lfcheck", "lfcheck.cli", "lfcheck.report", "lfcheck.chargroup",
            "lfcheck.repalg"}
CASEBOOK = SYMBOLIC | {"lfcheck.casebook", "lfcheck.decompose", "lfcheck.dseries",
                       "lfcheck.exprlang", "lfcheck.poles", "lfcheck.satake"}
COMMANDS = {
    "expand": (["expand", "Ad(pi) (x) Ad(pi') tw chi"],
               SYMBOLIC | {"lfcheck.exprlang", "lfcheck.satake"}),
    "poles": (["poles", "Sym^4(pi) tw omega^-2 (x) Ad(pi')", "--hyp", HYP],
              SYMBOLIC | {"lfcheck.decompose", "lfcheck.exprlang", "lfcheck.hypfile",
                          "lfcheck.poles"}),
    "scan": (SCAN, SYMBOLIC | {"lfcheck.dseries", "lfcheck.ingest", "lfcheck.satake",
                               "lfcheck.scan"}),
    "verify sos": (["verify", "sos"],
                   SYMBOLIC | {"lfcheck.dseries", "lfcheck.satake"}),
    "verify case": (["verify", "case", "4.1"], CASEBOOK),
    "verify all": (["verify", "all"], CASEBOOK),
    "verify bridge": (["verify", "bridge"], CASEBOOK),
}
# the two modules split off by stage, and the subcommands that run them
SPLIT = {
    "lfcheck.decompose": {"poles", "verify case", "verify all", "verify bridge"},
    "lfcheck.scan": {"scan"},
}


def run_child(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    ).stdout
    return out.splitlines()[-1]


def modules_after(argv):
    last = run_child(LAUNCH, *argv)
    assert last.startswith("MODULES ")
    return set(last.split()[1:])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_subcommand_loads_only_its_modules(name):
    argv, want = COMMANDS[name]
    loaded = modules_after(argv)
    assert {m for m in loaded if m.split(".")[0] == "lfcheck"} == want
    for mod, users in SPLIT.items():
        assert (mod in loaded) == (name in users), mod
    # the command line is parsed without argparse and what it pulls in
    assert not loaded & {"argparse", "gettext", "locale"}
    assert "dataclasses" not in loaded
    assert "json" not in loaded
    if importlib.util.find_spec("_sha256") is not None:
        assert "_hashlib" not in loaded  # OpenSSL, for one digest


def test_json_output_loads_json():
    # the counterpart of the check above: JSON output does load it
    assert "json" in modules_after(["--json", *COMMANDS["expand"][0]])


def test_repalg_reads_no_declaration():
    # the formal calculus stands on the character group alone: it loads no
    # other lfcheck module, and no function of it takes a declaration
    code = "import sys, lfcheck.repalg; print(*sorted(sys.modules))"
    loaded = {m for m in run_child(code).split() if m.split(".")[0] == "lfcheck"}
    assert loaded == {"lfcheck", "lfcheck.chargroup", "lfcheck.repalg"}
    from lfcheck import repalg

    takes_hyp = [
        fn.__qualname__ for fn in _functions(repalg)
        if "hyp" in inspect.signature(fn).parameters
    ]
    assert takes_hyp == []


def test_package_names_resolve_lazily():
    code = (
        "import sys, lfcheck; "
        "before = {m for m in sys.modules if m.startswith('lfcheck.')}; "
        "got = [getattr(lfcheck, n) for n in lfcheck.__all__]; "
        "from lfcheck import build_D, verify_case, parse_expr, pole_order; "
        "from lfcheck import atom_equal, decompose_under, scan_positivity; "
        "from lfcheck.dseries import build_D as direct; "
        "print(len(got), sorted(before), build_D is direct)"
    )
    import lfcheck

    assert run_child(code) == f"{len(lfcheck.__all__)} [] True"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "lfcheck", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    f"{os.path.basename(path)}: from .{node.module} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert found == []


def _functions(mod):
    """The functions and methods whose source is the module's file, which
    leaves out those a named tuple generates."""
    found = []
    for obj in vars(mod).values():
        if inspect.isfunction(obj):
            found.append(obj)
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                if inspect.isfunction(fn):
                    found.append(fn)
    return [fn for fn in found if fn.__code__.co_filename == mod.__file__]


def test_every_annotation_resolves():
    # annotations are postponed strings, so one naming what its module never
    # imports only fails when something asks for the hints
    unresolved = []
    for path in sorted(glob.glob(os.path.join(SRC, "lfcheck", "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        mod = importlib.import_module(
            "lfcheck" if name == "__init__" else f"lfcheck.{name}"
        )
        for fn in _functions(mod):
            try:
                typing.get_type_hints(fn)
            except NameError as e:
                unresolved.append(f"{name}.{fn.__qualname__}: {e}")
    assert unresolved == []


def _strings(node):
    return {
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _docstrings(tree):
    return {
        id(n.body[0].value) for n in ast.walk(tree)
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and n.body and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant)
    }


# a generator, atom or key name over one base, like mu_pi or type_pi'
BASE_NAME = re.compile(r"^\w+_pi'?$")


def test_one_owner_for_the_status_rule_and_the_bases():
    # report.check alone turns a condition into PASS or FAIL,
    # chargroup.BASES alone lists the two bases and chargroup.base_name
    # alone spells a name over one, lfcheck.TOL and lfcheck.UNIT_SLACK alone
    # hold the tolerances, and values order by their fields, with no
    # sort_key restating them
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "lfcheck", "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.IfExp) and name != "report.py":
                yes, no = _strings(node.body), _strings(node.orelse)
                if ("PASS" in yes and "FAIL" in no) or ("FAIL" in yes and "PASS" in no):
                    found.append(f"{name}:{node.lineno}: status by a condition")
            if (
                isinstance(node, (ast.Tuple, ast.Set, ast.List))
                and name != "chargroup.py"
                and {"pi", "pi'"} <= {
                    e.value for e in node.elts if isinstance(e, ast.Constant)
                }
            ):
                found.append(f"{name}:{node.lineno}: the bases spelled out")
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docs
                and BASE_NAME.match(node.value)
            ):
                found.append(f"{name}:{node.lineno}: {node.value} spelled out")
            if (
                isinstance(node, ast.Constant)
                and node.value in (1e-9, 1e-6)
                and type(node.value) is float
                and name != "__init__.py"
            ):
                found.append(f"{name}:{node.lineno}: a tolerance spelled out")
            if isinstance(node, ast.FunctionDef) and node.name == "sort_key":
                found.append(f"{name}:{node.lineno}: a sort_key")
    assert sorted(found) == []
