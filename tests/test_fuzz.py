"""Seeded fuzzing of the command line: expressions, hypothesis files, TSV
eigenvalue tables and character tables built from near-valid pieces.

Every run must end with exit status 0, 1 or 2, never with a traceback, and
within a fixed wall-clock bound.  `main` returns every usage error, the
command line's grammar errors among them, as exit status 2; it raises no
SystemExit, so one would fail the run.
"""

import math
import os
import random
import time

import pytest

from lfcheck.cli import main

SEED = 20261018
RUNS = 200
# seconds any single command may take; every input here is tiny, so a run
# that needs longer means some value made the cost unbounded
RUN_BOUND_S = 5.0

BASES = ("pi", "pi'")
CHARS = ("chi", "omega", "omega'", "mu", "mu'", "eta", "eta'", "xiF", "xiF'", "1")
EXPONENTS = ("-3", "-1", "2", "3", "0", "9" * 30)
SYM_POWERS = ("1", "2", "3", "4", "6", "64", "65", "0", "-2")
SHAPES = ("dihedral", "tetrahedral", "octahedral", "general", "cubic")
BOOLS = ("true", "no", "1", "maybe")


def _mutate(rng, text):
    """Usually return the text; otherwise insert, delete or replace a few
    characters."""
    if rng.random() < 0.6:
        return text
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        c = rng.choice("()^*~'-0123456789 \t#=:xé")
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(i, c)
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = c
    return "".join(chars)


def _charprod(rng):
    out = []
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(CHARS)
        out.append(name if rng.random() < 0.5 else f"{name}^{rng.choice(EXPONENTS)}")
    return "*".join(out)


def _atom(rng):
    b = rng.choice(BASES)
    return rng.choice((
        b,
        f"Sym^{rng.choice(SYM_POWERS)}({b})",
        f"Ad({b})",
        rng.choice(("nu_pi", "nu_pi'", "ind_pi", "ind_pi'")),
        _charprod(rng),
    ))


def _factor(rng, depth):
    text = _atom(rng) if depth > 2 or rng.random() < 0.7 else f"({_expr(rng, depth + 1)})"
    for _ in range(rng.randint(0, 2)):
        text += rng.choice((" ~", f" tw {_charprod(rng)}"))
    return text


def _expr(rng, depth=0):
    text = _factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        text += f" {rng.choice(('(x)', '(+)'))} {_factor(rng, depth)}"
    return text


def rand_expr(rng):
    return _mutate(rng, _expr(rng))


def rand_hyp(rng):
    lines = [f"type_pi = {rng.choice(SHAPES)}", f"type_pi' = {rng.choice(SHAPES)}"]
    if rng.random() < 0.3:
        lines.append(f"twist_equiv = {rng.choice(BOOLS)}")
    rng.shuffle(lines)
    return _mutate(rng, "\n".join(lines) + "\n")


def rand_tsv(rng):
    k = rng.choice((2, 2, 12, 12, 1, 0, 1000))
    lines = [f"#weight {k} level {rng.choice((1, 11, 0, 9 ** 30))}"]
    for p in (2, 3, 5, 7, 11, 13):
        if rng.random() < 0.9:
            bound = 2 * math.isqrt(p ** max(k - 1, 0))
            lines.append(f"{p}\t{rng.randint(-bound - 1, bound + 1)}")
    return _mutate(rng, "\n".join(lines) + "\n")


def rand_char_table(rng):
    lines = []
    for p in (2, 3, 5, 7, 11, 13):
        t = 2 * math.pi * rng.randrange(12) / 12
        re, im = rng.choice(((repr(math.cos(t)), repr(math.sin(t))),) * 4 + (
            ("nan", "0"), ("inf", "0"), ("1", "1"), ("x", "0"),
        ))
        lines.append(f"{p}\t{re}\t{im}")
    return _mutate(rng, "\n".join(lines) + "\n")


def run_main(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    return code, elapsed


def check_run(argv, capsys):
    code, elapsed = run_main(argv, capsys)
    assert code in (0, 1, 2), argv
    assert elapsed < RUN_BOUND_S, argv


def scan_argv(form1, form2, char, xmax="13", lmax="2", tol="1e-9"):
    return [
        "scan", "--form1", form1, "--form2", form2, "--char", char,
        "--xmax", xmax, "--lmax", lmax, "--tol", tol,
    ]


def test_fuzz_expand(capsys):
    rng = random.Random(f"{SEED}:expand")
    for _ in range(RUNS):
        check_run(["expand", rand_expr(rng)], capsys)


def test_fuzz_poles(tmp_path, capsys):
    rng = random.Random(f"{SEED}:poles")
    hyp = tmp_path / "h.hyp"
    for _ in range(RUNS):
        hyp.write_text(rand_hyp(rng))
        check_run(["poles", rand_expr(rng), "--hyp", str(hyp)], capsys)


def test_fuzz_scan_tables(tmp_path, capsys):
    rng = random.Random(f"{SEED}:scan")
    tsv, chars = tmp_path / "t.tsv", tmp_path / "c.tsv"
    for _ in range(RUNS):
        tsv.write_text(rand_tsv(rng))
        chars.write_text(rand_char_table(rng))
        argv = scan_argv(
            str(tsv),
            rng.choice(("11a", "delta", str(tsv))),
            rng.choice(("trivial", "kronecker:-4", "kronecker:x", str(chars))),
            xmax=rng.choice(("13", "13", "13", "2", "0")),
            lmax=rng.choice(("1", "2", "2", "0")),
            tol=rng.choice(("1e-9", "1e-9", "1e-9", "0", "nan")),
        )
        check_run(argv, capsys)


LONG = "9" * 5000
NOT_UTF8 = os.path.join(os.path.dirname(__file__), "fixtures", "not_utf8.txt")

FIXED = [
    ["expand", f"Sym^{LONG}(pi)"],
    ["expand", f"chi^{LONG}"],
    ["expand", f"pi tw omega^-{LONG}"],
    scan_argv("delta", "11a", "trivial", tol="nan"),
    scan_argv("delta", "11a", "trivial", tol="inf"),
    scan_argv("delta", "11a", "trivial", tol="-1"),
    scan_argv("delta", "11a", "trivial", lmax="0"),
    scan_argv("delta", "11a", "trivial", xmax="-5"),
    scan_argv("delta", "11a", f"kronecker:{LONG}"),
    ["expand", "(" * 250 + "pi" + ")" * 250],
    ["poles", "pi", "--hyp", NOT_UTF8],
    scan_argv(NOT_UTF8, "11a", "trivial"),
    scan_argv("delta", "11a", NOT_UTF8),
]


@pytest.mark.parametrize("argv", FIXED, ids=range(len(FIXED)))
def test_fuzz_fixed_cases_are_usage_errors(argv, capsys):
    code, elapsed = run_main(argv, capsys)
    assert code == 2 and elapsed < RUN_BOUND_S
