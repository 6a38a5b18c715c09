"""Each command loads only the modules its subcommand runs.

Every `lfcheck` command starts a fresh interpreter that compiles whatever
it imports, so the import set is part of a command's cost.  These tests run
the console entry point (`from lfcheck.cli import main`) in a child process
and read `sys.modules` once `main` has returned.
"""

import os
import subprocess
import sys

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
NOT_SYMBOLIC = {"lfcheck.casebook", "lfcheck.dseries", "lfcheck.ingest"}
COMMANDS = {
    "expand": (["expand", "Ad(pi) (x) Ad(pi') tw chi"], NOT_SYMBOLIC),
    "poles": (["poles", "Sym^4(pi) tw omega^-2 (x) Ad(pi')", "--hyp", HYP],
              NOT_SYMBOLIC),
    "scan": (SCAN, {"lfcheck.casebook", "lfcheck.exprlang", "lfcheck.poles"}),
    "verify sos": (["verify", "sos"], {"lfcheck.casebook", "lfcheck.ingest"}),
    "verify case": (["verify", "case", "4.1"], {"lfcheck.ingest"}),
    "verify bridge": (["verify", "bridge"], {"lfcheck.ingest"}),
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
    argv, absent = COMMANDS[name]
    loaded = modules_after(argv)
    assert "lfcheck.report" in loaded
    assert not loaded & absent
    assert "dataclasses" not in loaded
    assert "json" not in loaded


def test_json_output_loads_json():
    # the counterpart of the check above: JSON output does load it
    assert "json" in modules_after(["--json", *COMMANDS["expand"][0]])


def test_package_names_resolve_lazily():
    code = (
        "import sys, lfcheck; "
        "before = {m for m in sys.modules if m.startswith('lfcheck.')}; "
        "got = [getattr(lfcheck, n) for n in lfcheck.__all__]; "
        "from lfcheck import build_D, verify_case, parse_expr, pole_order; "
        "from lfcheck.dseries import build_D as direct; "
        "print(len(got), sorted(before), build_D is direct)"
    )
    import lfcheck

    assert run_child(code) == f"{len(lfcheck.__all__)} [] True"
