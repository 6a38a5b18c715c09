"""Acceptance gates.

One test per numbered criterion; each prints a single summary line and
asserts it.  Stated tolerances and wall-clock budgets are enforced here,
not merely sampled.  The case sweep deliberately tolerates the one
recorded display slip, which is degree-neutral and carries a rebalancing
correction; everything else must be exact.
"""

import cmath
import contextlib
import io
import random
import time

from lfcheck.casebook import (
    CASES,
    _signed,
    run_all,
    verify_case,
    verify_plethysm_bridge,
)
from lfcheck.chargroup import standard_group
from lfcheck.cli import main
from lfcheck.dseries import a_D_value, scan_positivity, verify_sos
from lfcheck.ingest import (
    builtin_form,
    eta24_series,
    parse_char_spec,
    prepare_scan_points,
    sieve,
    tau,
)
from lfcheck.repalg import (
    VirtualRep,
    ad_atom,
    cg_expand,
    char_atom,
    rs_product,
    sym_atom,
)
from lfcheck.satake import coeff_poly, satake_point
from test_ingest import naive_product_series

TOL = 1e-9


def _line(n, label, ok):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_1_square_identity():
    t0 = time.perf_counter()
    code, out = _cli(["verify", "sos"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and "0 residual" in out and elapsed < 10
    _line(1, "square identity", ok)


def test_criterion_2_degree_at_trivial_point():
    v = a_D_value(satake_point(1, 1, 1, 1))
    _line(2, "degree at trivial point", v == 324)


def test_criterion_3_case_sweep():
    t0 = time.perf_counter()
    reports = run_all()
    elapsed = time.perf_counter() - t0

    ok = len(reports) == 11 and elapsed < 60
    budgets = {
        "4.1": (6, 10), "4.2": (6, 6), "4.3": (4, 7),
        "4.4.1": (4, 6), "4.4.2": (4, 6), "4.4.3": (4, 7),
    }
    for cid, (ell, k) in budgets.items():
        spec = CASES[cid]
        ok = ok and (spec.ell, spec.k) == (ell, k) and 2 * spec.ell > spec.k

    for rep in reports:
        names = {v.name: v for v in rep.verdicts}
        for v in rep.verdicts:
            if not v.name.startswith("identity"):
                continue
            if v.status == "PASS":
                continue
            # a red identity is tolerated only with a bounded,
            # degree-neutral recorded delta and its correction verdict
            ident = next(
                i for i in CASES[rep.case_id].identities
                if f"({i.label})" in v.name or len(CASES[rep.case_id].identities) == 1
            )
            ok = ok and ident.known_delta is not None
            if ident.known_delta is not None:
                delta = _signed(ident.known_delta)
                ok = ok and max(abs(m) for m in delta.values()) <= 4
                ok = ok and sum(m * key.degree for key, m in delta.items()) == 0
            fix = names.get("discrepancy analysis")
            ok = ok and fix is not None and fix.status == "PASS"
    _line(3, "case sweep", ok)


def test_criterion_4_plethysm_bridge():
    rep = verify_plethysm_bridge()
    details = {v.name: v for v in rep.verdicts}
    ok = (
        rep.ok
        and "(6, 0), (2, 2)" in details["weight peel"].detail
        and details["coefficient"].status == "PASS"
    )
    _line(4, "plethysm bridge", ok)


def test_criterion_5_positivity_scan():
    t0 = time.perf_counter()
    points, skipped = prepare_scan_points(
        builtin_form("delta", 10**4),
        builtin_form("11a", 10**4),
        parse_char_spec("kronecker:-4"),
        10**4,
    )
    res = scan_positivity(points, lmax=4, tol=TOL)
    elapsed = time.perf_counter() - t0
    ok = (
        skipped == [2, 11]
        and res.ok
        and res.checked == 4 * len(points)
        and res.min_value >= -TOL
        and res.max_abs_delta <= TOL
        and elapsed < 20
    )
    _line(5, "positivity scan", ok)


def _random_char(G, rng, base):
    names = ["chi", f"om_{base}", f"mu_{base}", f"eta_{base}"]
    return G.from_dict(
        {rng.choice(names): rng.randrange(-2, 3) for _ in range(rng.randrange(0, 3))}
    )


def _random_isobaric(G, rng):
    entries = []
    for _ in range(rng.randrange(1, 4)):
        base = rng.choice(["pi", "pi'"])
        tw = _random_char(G, rng, base)
        kind = rng.randrange(3)
        if kind == 0:
            atom = char_atom(tw)
        elif kind == 1:
            atom = ad_atom(base, tw)
        else:
            atom = sym_atom(base, rng.randrange(1, 5), tw)
        entries.append((atom, rng.randrange(1, 3)))
    return VirtualRep.build(entries)


def _random_point(rng):
    a1 = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    a2 = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    chars = {
        "chi": cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)),
        "mu_pi": cmath.exp(2j * cmath.pi * rng.randrange(3) / 3),
        "mu_pi'": cmath.exp(2j * cmath.pi * rng.randrange(3) / 3),
        "eta_pi": float(rng.choice([1, -1])),
        "eta_pi'": float(rng.choice([1, -1])),
        "xiF": cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)),
        "xiF'": cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)),
    }
    return satake_point(a1, a1.conjugate(), a2, a2.conjugate(), chars)


def test_criterion_6_coefficient_laws():
    G = standard_group()
    ok = True

    # tensor degree conservation across the small range
    for j in range(7):
        for k in range(7):
            parts = cg_expand(j, k)
            ok = ok and sum(d + 1 for d, _r in parts) == (j + 1) * (k + 1)

    # multiplicativity of same-base tensor expansion at powered points
    rng = random.Random(361201)
    hits = 0
    while hits < 100:
        j, k = rng.randrange(1, 4), rng.randrange(1, 4)
        A = VirtualRep.of(sym_atom("pi", j, _random_char(G, rng, "pi")))
        B = VirtualRep.of(sym_atom("pi", k, _random_char(G, rng, "pi")))
        prod = coeff_poly(rs_product(A, B))
        pa, pb = coeff_poly(A), coeff_poly(B)
        pt = _random_point(rng)
        for ell in range(1, 5):
            ptl = {key: v**ell for key, v in pt.items()}
            got = prod.eval(ptl)
            want = pa.eval(ptl) * pb.eval(ptl)
            ok = ok and abs(got - want) <= TOL
            hits += 1

    # positivity of the pairing against the dual, fifty random reps
    for _ in range(50):
        Pi = _random_isobaric(G, rng)
        pt = _random_point(rng)
        v = coeff_poly(rs_product(Pi, Pi.dual())).eval(pt)
        a = coeff_poly(Pi).eval(pt)
        ok = ok and abs(v.imag) <= TOL
        ok = ok and v.real >= -TOL
        ok = ok and abs(v - abs(a) ** 2) <= TOL

    # duality acts as conjugation on the unitary locus
    for _ in range(25):
        Pi = _random_isobaric(G, rng)
        pt = _random_point(rng)
        lhs = coeff_poly(Pi.dual()).eval(pt)
        rhs = coeff_poly(Pi).eval(pt).conjugate()
        ok = ok and abs(lhs - rhs) <= TOL

    _line(6, "coefficient laws", ok)


def test_criterion_7_negative_controls(tmp_path):
    # a single multiplicity perturbation in a claimed display
    code1, out1 = _cli(["verify", "case", "4.1", "--tamper", "2"])
    ok = code1 == 1 and "claimed minus required:" in out1

    # an eigenvalue violating the exact bound
    bad = tmp_path / "corrupt.tsv"
    bad.write_text("#weight 12 level 1\n2\t-24\n3\t99999999\n")
    code2, out2 = _cli(
        ["scan", "--form1", str(bad), "--form2", "11a",
         "--char", "trivial", "--xmax", "50"]
    )
    ok = ok and code2 == 1 and "violates the eigenvalue bound at p=3" in out2
    _line(7, "negative controls", ok)


def test_criterion_8_eigenvalue_tables():
    short = eta24_series(8)
    long_direct = naive_product_series(31)
    # index n holds the coefficient of q^(n+1)
    ok = all(short[n - 1] == long_direct[n - 1] for n in (2, 3, 5))
    ok = ok and (short[1], short[2], short[4]) == (-24, 252, 4830)
    for p in sieve(100):
        ok = ok and tau(p * p) == tau(p) ** 2 - p**11
    _line(8, "eigenvalue tables", ok)
