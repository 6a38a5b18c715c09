"""Seeded inputs for the lfcheck benchmark.

Each workload is a fixed list of CLI commands (the timed batch), a list of
negative controls (run once per benchmark run, untimed), and one warm-up
command.  Every command carries the outcome the checker expects, worked
out here without calling lfcheck: point counts from this file's own sieve,
expression degrees from this file's own dimension count, and the line of
each planted bad row.  The same seed always gives the same files and argv.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("scan-builtin", "scan-tables", "symbolic")

CASE_IDS = (
    "4.1", "4.2", "4.3", "4.4.1", "4.4.2", "4.4.3",
    "5.1", "5.2", "5.3.1", "5.3.2", "5.3.3",
)


@dataclass
class Command:
    argv: list[str]
    kind: str  # which checker rule applies (see check.py)
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    batch: list[Command]
    controls: list[Command]
    warmup: Command


def sieve(n: int) -> list[int]:
    flags = [True] * (n + 1)
    flags[:2] = [False] * min(2, n + 1)
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            for j in range(i * i, n + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


def fundamental_discriminants(bound: int) -> list[int]:
    """Fundamental discriminants d != 1 with |d| <= bound."""
    out = []
    for d in range(-bound, bound + 1):
        if d in (0, 1):
            continue
        if d % 4 == 1 and _squarefree(abs(d)):
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(abs(d // 4)):
            out.append(d)
    return out


def _scan_expect(xmax: int, lmax: int, bad_modulus: int) -> dict:
    primes = sieve(xmax)
    skipped = [p for p in primes if bad_modulus % p == 0]
    good = len(primes) - len(skipped)
    return {"points": good * lmax, "primes": good, "skipped": skipped}


def _scan_argv(f1: str, f2: str, char: str, xmax: int, lmax: int) -> list[str]:
    return [
        "scan", "--form1", f1, "--form2", f2, "--char", char,
        "--xmax", str(xmax), "--lmax", str(lmax),
    ]


def _scan_builtin(rng: random.Random, work: str, smoke: bool) -> Inputs:
    d = rng.choice(fundamental_discriminants(100))
    xmax, lmax = (300, 2) if smoke else (10000, 4)
    char = f"kronecker:{d}"
    # lfcheck takes the modulus of kronecker:<d> as 4|d|, so p = 2 is always
    # treated as ramified; level 11 of the 11a form adds p = 11.
    bad = 11 * 4 * abs(d)
    scan = Command(
        _scan_argv("delta", "11a", char, xmax, lmax), "scan",
        _scan_expect(xmax, lmax, bad),
    )
    warm = Command(
        _scan_argv("delta", "11a", char, 60, 2), "scan", _scan_expect(60, 2, bad)
    )
    return Inputs([scan], [], warm)


def _bound(p: int, k: int) -> int:
    return math.isqrt(4 * p ** (k - 1))


def _write_table(path: str, weight: int, level: int, rows: list[tuple[int, int]]):
    with open(path, "w") as fh:
        fh.write(f"#weight {weight} level {level}\n")
        for p, ap in rows:
            fh.write(f"{p}\t{ap}\n")


def _table_rows(rng: random.Random, primes: list[int], k: int, level: int):
    """a_p within the exact bound; about one prime in twenty sits on it."""
    rows = []
    for p in primes:
        if level % p == 0:
            rows.append((p, rng.choice((-1, 1))))
            continue
        b = _bound(p, k)
        ap = rng.choice((-b, b)) if rng.random() < 0.05 else rng.randint(-b, b)
        rows.append((p, ap))
    return rows


def _scan_tables(rng: random.Random, work: str, smoke: bool) -> Inputs:
    xmax, lmax = (300, 2) if smoke else (20000, 8)
    primes = sieve(xmax)
    f12 = os.path.join(work, "form_w12_l1.tsv")
    f2 = os.path.join(work, "form_w2_l11.tsv")
    chi = os.path.join(work, "char_mu12.tsv")
    bad = os.path.join(work, "form_w12_l1_bad.tsv")
    rows12 = _table_rows(rng, primes, 12, 1)
    _write_table(f12, 12, 1, rows12)
    _write_table(f2, 2, 11, _table_rows(rng, primes, 2, 11))
    with open(chi, "w") as fh:
        fh.write("# p\tre\tim: 12th roots of unity\n")
        for p in primes:
            a = 2 * math.pi * rng.randrange(12) / 12
            fh.write(f"{p}\t{math.cos(a)!r}\t{math.sin(a)!r}\n")
    # negative control: one row just past the exact bound, early in the file
    i = rng.randrange(max(1, len(rows12) // 4))
    p = rows12[i][0]
    over = rng.choice((-1, 1)) * (_bound(p, 12) + 1)
    _write_table(bad, 12, 1, rows12[:i] + [(p, over)] + rows12[i + 1 :])
    expect = _scan_expect(xmax, lmax, 11)
    scan = Command(_scan_argv(f12, f2, chi, xmax, lmax), "scan", expect)
    control = Command(
        _scan_argv(bad, f2, chi, xmax, lmax), "scan_bound",
        {"where": f"{bad}:{i + 2}", "ap": over},
    )
    warm = Command(_scan_argv(f12, f2, chi, 60, 2), "scan", _scan_expect(60, 2, 11))
    return Inputs([scan], [control], warm)


# --- expressions ------------------------------------------------------------

CHARS = ("chi", "omega", "omega'", "mu", "mu'", "eta", "eta'", "xiF", "xiF'")
BASES = ("pi", "pi'")


def _charprod(rng: random.Random) -> str:
    parts = []
    for name in rng.sample(CHARS, rng.randint(1, 2)):
        e = rng.choice((-3, -2, -1, 1, 1, 2, 3))
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _atom(rng: random.Random) -> tuple[str, int]:
    """(text, dimension) of one atom."""
    r = rng.random()
    b = rng.choice(BASES)
    if r < 0.55:
        m = rng.randint(1, 6)
        return f"Sym^{m}({b})", m + 1
    if r < 0.75:
        return f"Ad({b})", 3
    if r < 0.9:
        return b, 2
    return _charprod(rng), 1


def _factor(rng: random.Random) -> tuple[str, int]:
    text, dim = _atom(rng)
    if rng.random() < 0.4:
        text += f" tw {_charprod(rng)}"
    if rng.random() < 0.25:
        text += " ~"
    return text, dim


def _group(rng: random.Random) -> tuple[str, int]:
    if rng.random() < 0.25:
        (a, da), (b, db) = _factor(rng), _factor(rng)
        return f"({a} (+) {b})", da + db
    return _factor(rng)


def paper_expr(rng: random.Random) -> tuple[str, int]:
    """An isobaric sum of single or paired groups; returns (text, degree)."""
    terms = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        text, dim = _group(rng)
        if rng.random() < 0.6:
            t2, d2 = _group(rng)
            text, dim = f"{text} (x) {t2}", dim * d2
        terms.append(text)
        total += dim
    return " (+) ".join(terms), total


def large_expr(rng: random.Random, m: int) -> tuple[str, int]:
    """Same-base Sym^m (x) Sym^m; Clebsch-Gordan keeps it isobaric.  The
    seed picks base and twist only, so every seed costs the same."""
    b = rng.choice(BASES)
    tw = " tw chi" if rng.random() < 0.5 else ""
    return f"Sym^{m}({b}){tw} (x) Sym^{m}({b})", (m + 1) ** 2


# Factors whose pole theory is defined under each declared shape: Sym^3 is
# non-cuspidal for the tetrahedral and dihedral shapes, and Sym^4 for the
# dihedral shape, so those are never generated there.
_POLE_FACTORS = {
    "dihedral": ("{b}", "Ad({b})"),
    "tetrahedral": ("{b}", "Ad({b})", "Sym^4({b}) tw {om}^-2"),
    "octahedral": ("{b}", "Ad({b})", "Sym^3({b}) tw {om}^-1", "Sym^4({b}) tw {om}^-2"),
    "general": ("{b}", "Ad({b})", "Sym^3({b}) tw {om}^-1", "Sym^4({b}) tw {om}^-2"),
}


def _pole_factor(rng: random.Random, shape: str, base: str) -> str:
    om = "omega" if base == "pi" else "omega'"
    return rng.choice(_POLE_FACTORS[shape]).format(b=base, om=om)


def poles_case(rng: random.Random, path: str) -> str:
    """Write a hypothesis file and return an expression valid under it."""
    t1, t2 = rng.choice(tuple(_POLE_FACTORS)), rng.choice(tuple(_POLE_FACTORS))
    lines = ["# generated shapes", f"type_pi = {t1}", f"type_pi' = {t2}"]
    if t1 == t2 and rng.random() < 0.5:
        lines.append("twist_equiv = true")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    terms = []
    for _ in range(rng.randint(1, 2)):
        term = f"{_pole_factor(rng, t1, BASES[0])} (x) {_pole_factor(rng, t2, BASES[1])}"
        if rng.random() < 0.5:
            term += f" tw {rng.choice(('chi', 'chi^-1', 'chi^2'))}"
        terms.append(term)
    return " (+) ".join(terms)


BAD_EXPRS = (
    "Sym^0(pi)", "Ad(rho)", "pi (x) (+) pi'", "chi^x", "Sym^2(pi) tw",
    "foo(pi)", "Ad(pi) (x) Ad(pi') (x) pi", "Sym^3(pi",
)


def _bad_hyp(rng: random.Random, path: str) -> str:
    """Write a malformed hypothesis file; return the text the error names."""
    good = ["type_pi = general", "type_pi' = octahedral"]
    flaw = rng.randrange(4)
    if flaw == 0:
        lines, where = good + ["twist_equiv true"], f"{path}:3:"
    elif flaw == 1:
        lines, where = good + ["type_pi = dihedral"], f"{path}:3:"
    elif flaw == 2:
        lines, where = ["type_pi = cubic", good[1]], f"{path}:"
    else:
        lines, where = good + ["level = 11"], f"{path}:"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return where


def _symbolic(rng: random.Random, work: str, smoke: bool) -> Inputs:
    cases = ("4.1", "4.4.3") if smoke else CASE_IDS
    batch = [
        Command(["verify", "sos"], "sos"),
        Command(["verify", "all"], "all"),
        Command(["verify", "bridge"], "bridge"),
    ]
    batch += [Command(["verify", "case", c], "case", {"case": c}) for c in cases]
    n_small, n_large, n_poles = (3, 1, 2) if smoke else (10, 6, 5)
    exprs = [paper_expr(rng) for _ in range(n_small)]
    exprs += [large_expr(rng, 8 if smoke else 40) for _ in range(n_large)]
    rng.shuffle(exprs)
    batch += [Command(["expand", e], "expand", {"degree": d}) for e, d in exprs]
    for i in range(n_poles):
        hyp = os.path.join(work, f"shapes_{i}.hyp")
        batch.append(Command(["poles", poles_case(rng, hyp), "--hyp", hyp], "poles"))

    bad_hyp = os.path.join(work, "shapes_bad.hyp")
    where = _bad_hyp(rng, bad_hyp)
    controls = [
        Command(["verify", "case", "4.1", "--tamper", str(rng.randrange(64))], "tamper"),
        Command(["expand", rng.choice(BAD_EXPRS)], "usage", {"stderr": "error: "}),
        Command(
            ["poles", "Ad(pi) (x) Ad(pi')", "--hyp", bad_hyp], "usage",
            {"stderr": f"error: {where}"},
        ),
    ]
    return Inputs(batch, controls, Command(["verify", "sos"], "sos"))


def make_inputs(workload: str, seed: int, work: str, smoke: bool = False) -> Inputs:
    """Write the workload's input files under `work` and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    os.makedirs(work, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    build = {"scan-builtin": _scan_builtin, "scan-tables": _scan_tables,
             "symbolic": _symbolic}[workload]
    return build(rng, work, smoke)
