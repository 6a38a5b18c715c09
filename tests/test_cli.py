"""Command-line surface: transcripts, exit codes, JSON mode.

Golden transcripts live in tests/goldens/; regenerate with
python3 tests/goldens/regen.py after an intentional output change.
"""

import argparse
import json
import os
import shutil
import subprocess

import pytest

from lfcheck import cli
from lfcheck.cli import main
from lfcheck.dseries import (
    NONNEGATIVITY,
    REALNESS,
    SQUARE_IDENTITY,
    ScanResult,
    Violation,
)
from lfcheck.exprlang import NUMERAL_DIGITS, SYM_MAX, ExprError, parse_expr

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDENS = os.path.join(HERE, "goldens")
HYP = os.path.join(FIXTURES, "octa_octa.hyp")

GOLDEN_COMMANDS = {
    "verify_sos": ["verify", "sos"],
    "case_4_1": ["verify", "case", "4.1"],
    "case_4_4_3": ["verify", "case", "4.4.3"],
    "case_4_2_tamper_5": ["verify", "case", "4.2", "--tamper", "5"],
    "verify_all": ["verify", "all"],
    "bridge": ["verify", "bridge"],
    "expand": ["expand", "Ad(pi) (x) Ad(pi) tw chi"],
    "scan_small": [
        "scan", "--form1", "delta", "--form2", "11a",
        "--char", "kronecker:-4", "--xmax", "60", "--lmax", "2",
    ],
    "poles": ["poles", "Sym^4(pi) tw omega^-2 (x) Ad(pi')", "--hyp", HYP],
}


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def normalize(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("elapsed:")]
    return ("\n".join(lines)).replace(FIXTURES, "FIXTURES") + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden(name, capsys):
    code, out, err = run_cli(GOLDEN_COMMANDS[name], capsys)
    assert err == ""
    with open(os.path.join(GOLDENS, f"{name}.txt")) as fh:
        first = fh.readline().strip()
        want = fh.read()
    assert first == f"# exit {code}"
    assert normalize(out) == want


def test_verify_all_reports_every_case(capsys):
    code, out, _ = run_cli(["verify", "all"], capsys)
    assert code == 1  # the recorded erratum keeps one identity red
    for cid in (
        "4.1", "4.2", "4.3", "4.4.1", "4.4.2", "4.4.3",
        "5.1", "5.2", "5.3.1", "5.3.2", "5.3.3",
    ):
        assert f"== case {cid}:" in out
    assert out.count("== case") == 11
    assert "claimed minus required:" in out
    assert "result: FAIL" in out


def test_tamper_fails_with_reproducer(capsys):
    code, out, _ = run_cli(["verify", "case", "4.2", "--tamper", "5"], capsys)
    assert code == 1
    assert "--tamper 5" in out
    assert "[FAIL] identity" in out
    assert "claimed minus required:" in out


def test_scan_bound_violation_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("#weight 12 level 1\n2\t-10000\n3\t252\n")
    code, out, err = run_cli(
        ["scan", "--form1", str(bad), "--form2", "11a",
         "--char", "trivial", "--xmax", "20"],
        capsys,
    )
    assert code == 1
    assert "[FAIL] eigenvalue bound" in out
    assert "a_p=-10000 violates the eigenvalue bound at p=2" in out


def test_scan_malformed_table_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("#weight 12 level 1\n4\t-24\n")
    code, out, err = run_cli(
        ["scan", "--form1", str(bad), "--form2", "11a",
         "--char", "trivial", "--xmax", "20"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "not prime" in err


def test_scan_prime_beyond_exact_range_exit_two(tmp_path, capsys):
    big = tmp_path / "big.tsv"
    big.write_text("#weight 2 level 1\n" + "9" * 30 + "\t0\n")
    code, out, err = run_cli(
        ["scan", "--form1", str(big), "--form2", "11a",
         "--char", "trivial", "--xmax", "20"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"{big}:2:" in err and "too large" in err


@pytest.mark.parametrize("weight", [1000, 10**9])
def test_scan_weight_beyond_float_range_exit_two(tmp_path, capsys, weight):
    t = tmp_path / "t.tsv"
    t.write_text(f"#weight {weight} level 2\n3\t0\n")
    code, out, err = run_cli(
        ["scan", "--form1", str(t), "--form2", "11a",
         "--char", "trivial", "--xmax", "4"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"{t}:2:" in err and "too large for a float" in err


@pytest.mark.parametrize("kind", [NONNEGATIVITY, REALNESS, SQUARE_IDENTITY])
def test_scan_verdicts_follow_violation_kind(monkeypatch, capsys, kind):
    # the verdict comes from the record's kind, not from words in its text
    class Reworded(Violation):
        def __str__(self):
            return "p=3 l=1: reworded"

    def scan(points, lmax, tol):
        res = ScanResult(checked=len(points) * lmax, min_value=0.0)
        res.violations.append(Reworded(kind, 3, 1, 0j, 0.0))
        return res

    monkeypatch.setattr(cli, "scan_positivity", scan)
    code, out, _err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a",
         "--char", "trivial", "--xmax", "20"],
        capsys,
    )
    assert code == 1
    fails = [ln.strip() for ln in out.splitlines() if "[FAIL]" in ln]
    assert fails == [f"[FAIL] {kind}: p=3 l=1: reworded"]


def test_scan_points_verdict_counts_every_point(monkeypatch, capsys):
    real = cli.scan_positivity

    def short_scan(points, lmax, tol):
        res = real(points, lmax, tol)
        res.checked -= 1
        return res

    monkeypatch.setattr(cli, "scan_positivity", short_scan)
    code, out, _err = run_cli(GOLDEN_COMMANDS["scan_small"], capsys)
    assert code == 1
    fails = [ln.strip() for ln in out.splitlines() if "[FAIL]" in ln]
    assert fails == [
        "[FAIL] points: 29 prime-power points over 15 primes "
        "(ramified skipped: 2,11)"
    ]


def test_sym_power_cap(capsys):
    assert parse_expr(f"Sym^{SYM_MAX}(pi) (x) Sym^{SYM_MAX}(pi)").degree == 65**2
    with pytest.raises(ExprError):
        parse_expr(f"Sym^{SYM_MAX + 1}(pi)")
    code, out, err = run_cli(["expand", f"Sym^{SYM_MAX}(pi)"], capsys)
    assert code == 0 and "degree: 65" in out
    code, out, err = run_cli(["expand", f"Sym^{SYM_MAX + 1}(pi)"], capsys)
    assert code == 2 and out == "" and "Sym^65" in err


@pytest.mark.parametrize(
    "option,value",
    [
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-inf"),
        ("--tol", "-1"),
        ("--lmax", "0"),
        ("--lmax", "-3"),
        ("--xmax", "-5"),
        ("--xmax", "1"),
        # above the caps: with built-in forms these would exhaust memory or
        # run for hours, so they too are refused before anything is allocated
        ("--lmax", str(cli.SCAN_LMAX + 1)),
        ("--lmax", str(10**8)),
        ("--xmax", str(cli.SCAN_XMAX + 1)),
        ("--xmax", str(10**18)),
    ],
)
def test_scan_vacuous_arguments_exit_two(tmp_path, capsys, option, value):
    # checked before ingest: the missing table would otherwise be the error
    missing = str(tmp_path / "missing.tsv")
    argv = ["scan", "--form1", missing, "--form2", "11a", "--char", "trivial",
            "--xmax", "20", f"{option}={value}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} must be") and "missing" not in err


def test_scan_caps_are_inclusive():
    # a scan at the caps runs for minutes, so only the check is run here
    assert (cli.SCAN_XMAX, cli.SCAN_LMAX) == (10**6, 64)  # as documented
    cli._check_scan_args(
        argparse.Namespace(tol=1e-9, xmax=cli.SCAN_XMAX, lmax=cli.SCAN_LMAX)
    )


def test_scan_smallest_valid_arguments(capsys):
    code, out, _err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a", "--char", "trivial",
         "--xmax", "2", "--lmax", "1", "--tol", "0"],
        capsys,
    )
    assert code in (0, 1) and "1 prime-power points over 1 primes" in out


@pytest.mark.parametrize(
    "form1,char,xmax,skipped",
    [
        ("delta", "kronecker:-4", "2", "2"),
        ("delta", "kronecker:-7", "2", "2"),  # the modulus 4|d| is even
        ("level6", "trivial", "4", "2,3"),
    ],
)
def test_scan_without_unramified_prime_exit_two(
    tmp_path, capsys, form1, char, xmax, skipped
):
    # no point to check is no verdict, not a failed one
    if form1 == "level6":
        form1 = str(tmp_path / "level6.tsv")
        with open(form1, "w") as fh:
            fh.write("#weight 2 level 6\n5\t0\n")
    argv = ["scan", "--form1", form1, "--form2", "11a", "--char", char,
            "--xmax", xmax]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --xmax {xmax} leaves no unramified prime")
    assert f"(ramified skipped: {skipped})" in err


@pytest.mark.parametrize("template", ["Sym^{}(pi)", "chi^{}", "pi tw omega^-{}"])
def test_long_numeral_is_usage_error(capsys, template):
    ok = "9" * NUMERAL_DIGITS
    if template.startswith("Sym"):
        with pytest.raises(ExprError, match="exceeds the largest power"):
            parse_expr(template.format(ok))
    else:
        parse_expr(template.format(ok))
    for digits in (NUMERAL_DIGITS + 1, 5000):
        text = template.format("9" * digits)
        with pytest.raises(ExprError, match=f"more than {NUMERAL_DIGITS} digits"):
            parse_expr(text)
        code, out, err = run_cli(["expand", text], capsys)
        assert code == 2 and out == "" and "digits" in err


def test_unknown_case_exit_two(capsys):
    code, out, err = run_cli(["verify", "case", "7.7"], capsys)
    assert code == 2
    assert "unknown case" in err and out == ""


def test_usage_errors(tmp_path, capsys):
    checks = [
        ["verify", "sos", "4.1"],
        ["verify", "case"],
        ["verify", "all", "--tamper", "0"],
        ["expand", "Sym^4(pi"],
        ["poles", "Ad(pi)", "--hyp", str(tmp_path / "none.hyp")],
    ]
    for argv in checks:
        code, _out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err, argv


@pytest.mark.parametrize(
    "body,frag",
    [
        ("type_pi = octahedral\n", "missing required key"),
        ("type_pi = big\ntype_pi' = general\n", "must be one of"),
        ("type_pi = general\ntype_pi' = general\nshape = x\n", "unknown keys"),
        ("type_pi = general\ntype_pi' = general\ntwist_equiv = maybe\n", "boolean"),
        (
            "type_pi = tetrahedral\ntype_pi' = octahedral\ntwist_equiv = yes\n",
            "twist",
        ),
        ("type_pi = general\ntype_pi = general\n", "duplicate"),
        ("just words\n", "expected 'key = value'"),
        (
            "type_pi = tetrahedral\ntype_pi' = tetrahedral\ntwist_equiv = yes\n"
            "chi_ad_selftwist = yes\n",
            "unknown keys: chi_ad_selftwist",
        ),
    ],
)
def test_bad_hyp_files(tmp_path, capsys, body, frag):
    f = tmp_path / "h.hyp"
    f.write_text(body)
    code, _out, err = run_cli(["poles", "Ad(pi)", "--hyp", str(f)], capsys)
    assert code == 2
    assert frag in err


def test_json_mode(capsys):
    code, out, _ = run_cli(["--json", "verify", "case", "4.1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert sorted(d) == [
        "command", "elapsed_s", "inputs_digest", "result", "sections", "verdicts",
    ]
    assert d["result"] == "PASS"
    assert d["command"] == "verify case 4.1"
    sec = d["sections"][0]
    assert sorted(sec) == ["heading", "subheading", "verdicts"]
    assert sorted(sec["verdicts"][0]) == ["check", "details", "status"]


def test_json_scan_names_its_extreme_points(capsys):
    # only --json carries the facts; the text form is the scan_small golden
    code, out, _ = run_cli(["--json", *GOLDEN_COMMANDS["scan_small"]], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["facts"] == {"min_at": [29, 2], "max_delta_at": [5, 2]}
    assert sorted(d) == [
        "command", "elapsed_s", "facts", "inputs_digest", "result", "sections",
        "verdicts",
    ]


def test_json_erratum_case(capsys):
    code, out, _ = run_cli(["--json", "verify", "case", "4.4.3"], capsys)
    assert code == 1
    d = json.loads(out)
    assert d["result"] == "FAIL"
    statuses = {v["check"]: v["status"] for v in d["sections"][0]["verdicts"]}
    assert statuses["identity"] == "FAIL"
    assert statuses["discrepancy analysis"] == "PASS"


def test_console_script_installed():
    exe = shutil.which("lfcheck")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "verify", "sos"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
