"""Command-line surface: transcripts, exit codes, JSON mode.

Golden transcripts live in tests/goldens/; regenerate with
python3 tests/goldens/regen.py after an intentional output change.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from lfcheck import cli, dseries, ingest, scan
from lfcheck.satake import VARS, LaurentPoly
from lfcheck.cli import main
from lfcheck.scan import (
    NONNEGATIVITY,
    REALNESS,
    SQUARE_IDENTITY,
    ScanResult,
    Violation,
)
from lfcheck.exprlang import (
    NEST_MAX,
    NUMERAL_DIGITS,
    SIZE_MAX,
    SYM_MAX,
    ExprError,
    parse_expr,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDENS = os.path.join(HERE, "goldens")
SRC = os.path.join(os.path.dirname(HERE), "src")
HYP = os.path.join(FIXTURES, "octa_octa.hyp")

GOLDEN_COMMANDS = {
    "verify_sos": ["verify", "sos"],
    "case_4_1": ["verify", "case", "4.1"],
    "case_4_4_3": ["verify", "case", "4.4.3"],
    "case_4_2_tamper_5": ["verify", "case", "4.2", "--tamper", "5"],
    "verify_all": ["verify", "all"],
    "bridge": ["verify", "bridge"],
    "expand": ["expand", "Ad(pi) (x) Ad(pi) tw chi"],
    # the order of entries: characters, opaque, Sym^m and Ad atoms, then pairs
    "expand_order": [
        "expand",
        "Sym^3(pi') tw mu (+) nu_pi (+) chi^2 (+) Ad(pi) (x) Ad(pi') tw chi"
        " (+) pi (x) pi' tw chi^-1 (+) omega^2 (+) Sym^2(pi) tw mu'",
    ],
    "scan_small": [
        "scan", "--form1", "delta", "--form2", "11a",
        "--char", "kronecker:-4", "--xmax", "60", "--lmax", "2",
    ],
    # one built-in on both sides: the second ingest reads the first's series
    "scan_delta_delta": [
        "scan", "--form1", "delta", "--form2", "delta",
        "--char", "trivial", "--xmax", "60", "--lmax", "2",
    ],
    # relative paths, since the inputs digest hashes the command string:
    # every golden runs from the fixtures directory
    "scan_tables_small": [
        "scan", "--form1", "form_w12_l1.tsv", "--form2", "form_w2_l11.tsv",
        "--char", "char_mu12.tsv", "--xmax", "60", "--lmax", "8",
    ],
    "poles": ["poles", "Sym^4(pi) tw omega^-2 (x) Ad(pi')", "--hyp", HYP],
    # twists reduced by the adjoint's cubic group and by nu_pi''s eta'
    "poles_tetra": [
        "poles",
        "Ad(pi) tw mu (x) Sym^4(pi') tw chi*omega'^-2 (+) Ad(pi) tw mu^2*chi"
        " (+) nu_pi' tw eta'*chi",
        "--hyp", os.path.join(FIXTURES, "tetra_octa.hyp"),
    ],
}


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def normalize(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("elapsed:")]
    return ("\n".join(lines)).replace(FIXTURES, "FIXTURES") + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
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


def test_scan_builtin_bound_violation_exit_one(monkeypatch, capsys):
    # a built-in a_p past the bound is a failed verdict, as a table's is
    k, level, real = ingest.BUILTINS["11a"]
    monkeypatch.setitem(
        ingest.BUILTINS, "11a", (k, level, lambda xmax: {**real(xmax), 3: 10**6})
    )
    code, out, err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a",
         "--char", "trivial", "--xmax", "20"],
        capsys,
    )
    assert (code, err) == (1, "")
    fails = [ln.strip() for ln in out.splitlines() if "[FAIL]" in ln]
    assert fails == [
        "[FAIL] eigenvalue bound: builtin:11a: a_p=1000000 violates the "
        "eigenvalue bound at p=3 for weight 2"
    ]


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


def test_scan_character_table_duplicate_prime_exit_two(tmp_path, capsys):
    # as for eigenvalue tables; the last row used to win silently
    chars = tmp_path / "chars.tsv"
    chars.write_text("3\t1\t0\n3\t-1\t0\n")
    code, out, err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a",
         "--char", str(chars), "--xmax", "20"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {chars}:2: duplicate prime 3\n"


def test_scan_character_table_composite_p_exit_two(tmp_path, capsys):
    # as for eigenvalue tables; the row for 4 used to be accepted and unused
    chars = tmp_path / "chars.tsv"
    chars.write_text("2\t1\t0\n3\t1\t0\n4\t-1\t0\n5\t1\t0\n7\t1\t0\n")
    code, out, err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a",
         "--char", str(chars), "--xmax", "8", "--lmax", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {chars}:3: 4 is not prime\n"


def test_scan_character_table_missing_prime_exit_two(tmp_path, capsys):
    # a table character has modulus 1, so it must list every prime up to
    # --xmax that neither form ramifies at; the error names the table
    chars = tmp_path / "chars.tsv"
    chars.write_text("3\t1\t0\n5\t1\t0\n7\t1\t0\n")
    code, out, err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a",
         "--char", str(chars), "--xmax", "8"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {chars}: no character value for p=2\n"


def test_scan_digest_hashes_the_character_table(tmp_path, capsys):
    # two tables at one path are different inputs, as for eigenvalue tables
    chars = tmp_path / "chars.tsv"
    argv = ["--json", "scan", "--form1", "delta", "--form2", "11a",
            "--char", str(chars), "--xmax", "8", "--lmax", "1"]
    digests = set()
    for v3 in ("1", "-1"):
        chars.write_text(f"2\t1\t0\n3\t{v3}\t0\n5\t1\t0\n7\t1\t0\n")
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        digests.add(json.loads(out)["inputs_digest"])
    assert len(digests) == 2


def test_scan_eigenvalue_table_missing_prime_exit_two(tmp_path, capsys):
    # an eigenvalue table must list every prime up to --xmax that no level
    # or character modulus ramifies; the error names the table, as for
    # character tables
    form = tmp_path / "T.tsv"
    form.write_text("#weight 2 level 11\n2\t-2\n3\t-1\n7\t-2\n")
    code, out, err = run_cli(
        ["scan", "--form1", "delta", "--form2", str(form),
         "--char", "trivial", "--xmax", "8", "--lmax", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {form}: no eigenvalue for unramified p=5\n"


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
        return ScanResult(
            checked=len(points) * lmax,
            min_value=0.0,
            violations=[Reworded(kind, 3, 1, 0j, 0.0, 4)],
        )

    monkeypatch.setattr(cli, "scan_positivity", scan)
    code, out, _err = run_cli(
        ["scan", "--form1", "delta", "--form2", "11a",
         "--char", "trivial", "--xmax", "20"],
        capsys,
    )
    assert code == 1
    fails = [ln.strip() for ln in out.splitlines() if "[FAIL]" in ln]
    # 7 primes up to 20 (11 ramified) at 3 powers each
    assert fails == [f"[FAIL] {kind}: p=3 l=1: reworded (4 of 21 points)"]


def test_scan_fails_every_check_a_row_fails(monkeypatch, capsys):
    # P's constant term shifted by -1000 makes every row negative and off
    # its square; a scan that gave each row only its first failing check
    # would PASS the square identity
    P = dseries.coeff_polys()[0]
    shifted = {**P.c, (0,) * len(VARS): P.c[(0,) * len(VARS)] - 1000}
    monkeypatch.setitem(dseries._CACHE, "P", LaurentPoly(shifted))
    code, out, _err = run_cli(GOLDEN_COMMANDS["scan_small"], capsys)
    assert code == 1
    verdicts = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert [ln.split(":")[0] for ln in verdicts] == [
        "[PASS] points",
        "[FAIL] nonnegativity",
        "[PASS] realness",
        "[FAIL] square identity",
    ]
    counted = [ln.endswith(" (30 of 30 points)") for ln in verdicts]
    assert counted == [False, True, False, True]


def test_scan_points_verdict_counts_every_point(monkeypatch, capsys):
    real = cli.scan_positivity

    def short_scan(points, lmax, tol):
        res = real(points, lmax, tol)
        return res._replace(checked=res.checked - 1)

    monkeypatch.setattr(cli, "scan_positivity", short_scan)
    code, out, _err = run_cli(GOLDEN_COMMANDS["scan_small"], capsys)
    assert code == 1
    fails = [ln.strip() for ln in out.splitlines() if "[FAIL]" in ln]
    assert fails == [
        "[FAIL] points: 29 prime-power points over 15 primes "
        "(ramified skipped: 2,11)"
    ]


def test_scan_points_verdict_reads_the_loops_count(monkeypatch, capsys):
    # `checked` is what the compiled loop counts, so a loop that evaluates
    # one row more than it reports turns the points verdict, and it alone,
    # red
    real = scan._compile

    def short_compile(polys):
        fn, coefs = real(polys)

        def loop(*args):
            return (yield from fn(*args)) - 1

        return loop, coefs

    monkeypatch.setattr(scan, "_compile", short_compile)
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


@pytest.mark.parametrize("cmd", [["expand"], ["poles", "--hyp", HYP]])
def test_nesting_cap(capsys, cmd):
    def nested(depth):
        return "(" * depth + "pi" + ")" * depth

    assert parse_expr(nested(NEST_MAX)).degree == 2
    code, out, err = run_cli([cmd[0], nested(NEST_MAX), *cmd[1:]], capsys)
    assert code == 0 and err == ""
    # 250 levels used to exhaust the recursion limit
    for depth in (NEST_MAX + 1, 250):
        with pytest.raises(ExprError, match="nest deeper"):
            parse_expr(nested(depth))
        code, out, err = run_cli([cmd[0], nested(depth), *cmd[1:]], capsys)
        assert code == 2 and out == ""
        assert err == f"error: parentheses nest deeper than the largest depth, {NEST_MAX}\n"


@pytest.mark.parametrize("cmd", [["expand"], ["poles", "--hyp", HYP]])
def test_size_cap(capsys, cmd):
    # the largest value is the largest pair, Sym^SYM_MAX (x) Sym^SYM_MAX
    top = f"Sym^{SYM_MAX}(pi)"
    assert SIZE_MAX == (SYM_MAX + 1) ** 2
    code, out, err = run_cli([cmd[0], f"{top} (x) {top}", *cmd[1:]], capsys)
    if cmd[0] == "poles":
        # the ledger refuses powers at or past FIRST_NONCUSPIDAL, so the arm
        # also times the largest value it accepts: size 2 * (half - 1)
        assert code == 2 and out == "" and "is not known to be cuspidal" in err
    else:
        assert code == 0 and err == ""
    half = (SIZE_MAX + 1) // 2
    below = " (+) ".join(f"chi^{i}" for i in range(1, half))
    code, out, err = run_cli([cmd[0], f"pi (x) ({below})", *cmd[1:]], capsys)
    assert code == 0 and err == ""
    chars = f"{below} (+) chi^{half}"
    for expr, msg in (
        # one past the cap, by a sum and by a pair
        (f"{top} (x) {top} (+) chi", f"sum of size {SIZE_MAX + 1}"),
        (f"pi (x) ({chars})", f"(x) of sizes 2 and {half}"),
        # fifty factors used to take half a minute
        (" (x) ".join([top] * 50), f"(x) of sizes {SIZE_MAX} and {SYM_MAX + 1}"),
    ):
        with pytest.raises(ExprError, match=re.escape(msg)):
            parse_expr(expr)
        code, out, err = run_cli([cmd[0], expr, *cmd[1:]], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {msg} exceeds the largest size, {SIZE_MAX}\n"


NOT_UTF8 = os.path.join(FIXTURES, "not_utf8.txt")


@pytest.mark.parametrize(
    "argv",
    [
        ["poles", "pi", "--hyp", NOT_UTF8],
        ["scan", "--form1", NOT_UTF8, "--form2", "11a", "--char", "trivial",
         "--xmax", "50"],
        ["scan", "--form1", "delta", "--form2", "11a", "--char", NOT_UTF8,
         "--xmax", "50"],
    ],
    ids=["hyp", "eigenvalue table", "character table"],
)
def test_file_not_utf8_exit_two(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {NOT_UTF8}:1: not UTF-8 text\n"


def test_undecodable_byte_is_named_by_line(tmp_path, capsys):
    # lines end at \n, \r\n or \r, as in text mode
    f = tmp_path / "late.tsv"
    f.write_bytes(b"#weight 12 level 1\r\n2\t-24\r3\t252\n5\t48\xe930\n")
    code, out, err = run_cli(
        ["scan", "--form1", str(f), "--form2", "11a", "--char", "trivial",
         "--xmax", "50"],
        capsys,
    )
    assert code == 2 and err == f"error: {f}:4: not UTF-8 text\n"


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


def test_long_bad_option_value_is_cut(capsys):
    # a bad value is shown by its first 30 characters
    value = "x" * 40
    argv = ["scan", "--form1", "delta", "--form2", "11a", "--char", "trivial",
            "--xmax", value]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --xmax must be an integer, got {'x' * 30!r}...\n")


def test_scan_caps_are_inclusive():
    # a scan at the caps runs for minutes, so only the check is run here
    assert (cli.SCAN_XMAX, cli.SCAN_LMAX) == (10**6, 64)  # as documented
    cli._check_scan_args(
        SimpleNamespace(tol=1e-9, xmax=cli.SCAN_XMAX, lmax=cli.SCAN_LMAX)
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
    scan = GOLDEN_COMMANDS["scan_small"]
    long = "9" * 5000
    checks = [
        ["verify", "sos", "4.1"],
        ["verify", "case"],
        ["verify", "all", "--tamper", "0"],
        ["expand", "Sym^4(pi"],
        ["poles", "Ad(pi)", "--hyp", str(tmp_path / "none.hyp")],
        # the grammar: main returns these as exit 2, it raises no SystemExit
        [],
        ["--json"],
        ["frobnicate"],
        ["verify", "everything"],
        ["verify"],
        ["scan", *scan[3:]],  # no --form1
        [*scan[:7], *scan[9:]],  # no --xmax
        ["poles", "Ad(pi)"],  # no --hyp
        ["expand"],
        [*scan, "--xmax", "sixty"],
        [*scan, "--xmax", long],
        [*scan, "--lmax", "2.5"],
        [*scan, "--lmax", long],
        ["verify", "case", "4.1", "--tamper", "five"],
        ["verify", "case", "4.1", f"--tamper={long}"],
        [*scan, "--tol", "tiny"],
        [*scan, "--tol"],
        ["verify", "sos", "--bogus"],
        [*scan, "--f", "delta"],  # an ambiguous prefix
        ["verify", "sos", "--json"],  # --json goes before the subcommand
        ["--json=yes", "verify", "sos"],
        ["expand", "pi", "pi'"],
        ["poles", "Ad(pi)", "Ad(pi')", "--hyp", HYP],
    ]
    for argv in checks:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
    # a long numeral is named by its head, not printed whole
    assert len(run_cli([*scan, "--xmax", long], capsys)[2]) < 200
    err = run_cli(["verify", "everything"], capsys)[2]
    assert err == "error: verify takes sos, case, all or bridge, not 'everything'\n"


HELP = {
    (): (["verify", "expand", "scan", "poles"], ["--json"]),
    ("verify",): (["sos", "case", "all", "bridge"], ["--tamper"]),
    ("expand",): (["EXPR"], []),
    ("scan",): ([], ["--form1", "--form2", "--char", "--xmax", "--lmax", "--tol"]),
    ("poles",): (["EXPR"], ["--hyp"]),
}


@pytest.mark.parametrize("level", sorted(HELP))
def test_help_names_every_option(level, capsys):
    words, flags = HELP[level]
    for ask in ("-h", "--help", "--he"):
        code, out, err = run_cli([*level, ask], capsys)
        assert code == 0 and err == ""
        usage, _, body = out.partition("\n")
        assert usage.startswith(f"usage: {' '.join(['lfcheck', *level])} [-h] ")
        for word in words:
            assert word in body, (level, word)
        for flag in flags:
            # in the usage line, and first on its own line of the body
            assert flag in usage and f"\n  {flag} " in body, (level, flag)


@pytest.mark.parametrize(
    "xmax", [["--xmax=60"], ["--xm", "60"], ["--xmax", "060"]]
)
def test_option_spellings_parse_alike(xmax, capsys, monkeypatch):
    # --flag=value and a unique prefix name the option as --flag value does
    monkeypatch.chdir(FIXTURES)
    argv = GOLDEN_COMMANDS["scan_small"]
    i = argv.index("--xmax")
    code, out, err = run_cli([*argv[:i], *xmax, *argv[i + 2:]], capsys)
    with open(os.path.join(GOLDENS, "scan_small.txt")) as fh:
        assert fh.readline().strip() == f"# exit {code}"
        assert normalize(out) == fh.read()
    assert err == ""


def test_scan_help_names_every_builtin(capsys):
    # the help spells the built-in forms out, so a new one must be added there
    code, out, _ = run_cli(["scan", "-h"], capsys)
    assert code == 0
    forms = [ln for ln in out.splitlines() if ln.startswith("  --form")]
    assert len(forms) == 2
    for line in forms:
        for name in ingest.BUILTINS:
            assert re.search(rf"\b{re.escape(name)}\b", line), (name, line)


README_FORM = "om_pi^3 (+) Ad(pi) tw om_pi^3 (+) Sym^4(pi) tw om_pi (+) Sym^6(pi)"


def test_expand_reads_its_own_normal_form(capsys):
    # the normal form of Sym^3(pi) (x) Sym^3(pi), as the README shows it
    code, out, _ = run_cli(["expand", "Sym^3(pi) (x) Sym^3(pi)"], capsys)
    assert code == 0 and f"[PASS] normal form: 4 kinds: {README_FORM}\n" in out
    code, again, _ = run_cli(["expand", README_FORM], capsys)
    assert code == 0 and f"[PASS] normal form: 4 kinds: {README_FORM}\n" in again


def test_scan_failure_names_its_tolerance(capsys):
    # a FAIL at a tolerance other than the default reproduces from the
    # command it prints, in text and in JSON
    argv = ["scan", "--form1", "delta", "--form2", "11a", "--char", "kronecker:-4",
            "--xmax", "200", "--lmax", "2", "--tol", "1e-16"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert "[FAIL] realness: p=3 l=1: coefficient not real" in out
    command = out.splitlines()[0]
    assert command == "command: " + " ".join(argv)
    again, out2, _ = run_cli(command.split()[1:], capsys)
    assert (again, normalize(out2)) == (code, normalize(out))
    code, out, _ = run_cli(["--json", *argv], capsys)
    assert json.loads(out)["command"] == " ".join(argv)
    # the default tolerance, named or not, leaves the command as it was
    code, out, _ = run_cli([*argv[:-1], "1e-9"], capsys)
    assert out.splitlines()[0] == "command: " + " ".join(argv[:-2])


@pytest.mark.parametrize(
    "expr,hyp,need",
    [
        # ind_* exists only over a dihedral base, nu_* over an octahedral one
        ("ind_pi", "octa_octa.hyp", "error: ind_pi needs pi to be dihedral\n"),
        ("nu_pi", "tetra_octa.hyp", "error: nu_pi needs pi to be octahedral\n"),
        ("Ad(pi') (x) ind_pi'", "octa_octa.hyp", "ind_pi' needs pi' to be dihedral"),
        # a power past its shape's FIRST_NONCUSPIDAL is refused, not read [0, 1]:
        # each has a double pole, from two invariants of the binary group
        (
            "Sym^12(pi) tw om_pi^-6", "tetra_octa.hyp",
            "error: Sym^12(pi) tw om_pi^-6 is not known to be cuspidal "
            "under the declared shapes\n",
        ),
        (
            "Sym^24(pi') tw om_pi'^-12", "tetra_octa.hyp",
            "error: Sym^24(pi') tw om_pi'^-12 is not known to be cuspidal "
            "under the declared shapes\n",
        ),
    ],
)
def test_poles_refusal_exit_two(capsys, expr, hyp, need):
    argv = ["poles", expr, "--hyp", os.path.join(FIXTURES, hyp)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert need in err


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
        "timings", "verdicts",
    ]


def test_json_scan_times_its_stages(capsys):
    # only --json carries the timings, so the scan goldens stay byte-equal
    code, out, _ = run_cli(["--json", *GOLDEN_COMMANDS["scan_small"]], capsys)
    assert code == 0
    d = json.loads(out)
    t = d["timings"]
    assert sorted(t) == ["char", "form1", "form2", "points", "scan"]
    assert all(v >= 0 for v in t.values())
    assert sum(t.values()) <= d["elapsed_s"]


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


def test_console_script_names_cli_main():
    # what an install would put on PATH, checked in the source checkout
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(HERE), "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lfcheck": "lfcheck.cli:main"}
    module, attr = scripts["lfcheck"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_closed_stdout_exit_two():
    # a reader that has gone away (`lfcheck ... | true`) is not a failed
    # verdict, so the exit is 2, with no traceback at exit either
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lfcheck.cli", "expand", "((pi))"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"
