"""Auxiliary degree-324 product: assembly, square identity, scanning."""

import cmath
import math
import random

import pytest

from lfcheck import dseries
from lfcheck.dseries import (
    NONNEGATIVITY,
    REALNESS,
    SQUARE_IDENTITY,
    ScanResult,
    Violation,
    a_D_value,
    aux_factors,
    build_D,
    scan_positivity,
    verify_sos,
)
from lfcheck.ingest import (
    builtin_form,
    load_eigenvalue_file,
    parse_char_spec,
    prepare_scan_points,
    sieve,
)
from lfcheck.satake import VARS, CoefficientError, LaurentPoly, satake_point
from test_satake import oracle_eval


# display-order multiplicities of the fifteen factors
PROFILE = (6, 4, 4, 7, 2, 2, 2, 5, 2, 3, 3, 1, 2, 2, 1)


def sos_value(point):
    """The closed square |2x + xz + z|^2 at one point, with x and z
    evaluated term by term: the per-point reference for the scan."""
    _P, x, z = dseries._polys()
    xv = oracle_eval(x, point)
    zv = oracle_eval(z, point)
    return abs(2 * xv + xv * zv + zv) ** 2


def reference_rows(points, lmax):
    """(p, l, direct, square) at every scan point, one point at a time:
    the direct value term by term and, checked equal to it, a_D_value."""
    P = dseries._polys()[0]
    out = []
    for p, (a1, b1, a2, b2, cv) in sorted(points.items()):
        base = satake_point(a1, b1, a2, b2, {"chi": cv}, tol=1e-6)
        for ell in range(1, lmax + 1):
            pt = {k: v**ell for k, v in base.items()}
            direct = oracle_eval(P, pt)
            assert repr(a_D_value(pt)) == repr(direct)
            out.append((p, ell, direct, sos_value(pt)))
    return out


def scanned_rows(monkeypatch, points, lmax):
    """Run the scan and return its result with what its compiled loop
    yielded."""
    rows = []
    kernel = dseries._scan_kernel

    def spy():
        fn, coefs = kernel()

        def tee(*args):
            for row in fn(*args):
                rows.append(row)
                yield row

        return tee, coefs

    monkeypatch.setattr(dseries, "_scan_kernel", spy)
    return scan_positivity(points, lmax), rows


def assert_bit_equal(rows, ref):
    # repr tells -0.0 from 0.0, which == does not
    assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in ref]


def test_factor_roster():
    facs = aux_factors()
    assert len(facs) == 15
    assert tuple(m for _l, _v, m in facs) == PROFILE
    assert sum(V.degree * m for _l, V, m in facs) == 324


def test_total_degree():
    assert build_D().degree == 324


def test_square_identity_suite():
    checks = verify_sos()
    assert len(checks) == 7
    for name, ok, detail in checks:
        assert ok, (name, detail)


def _unitary(rng):
    t1, t2 = rng.uniform(0, 2 * cmath.pi), rng.uniform(0, 2 * cmath.pi)
    a1 = cmath.exp(1j * t1)
    a2 = cmath.exp(1j * t2)
    cv = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    return satake_point(a1, a1.conjugate(), a2, a2.conjugate(), {"chi": cv})


def test_three_route_agreement_seeded():
    # direct coefficient, closed square form, and a by-hand trace formula
    # must agree at unitary points
    rng = random.Random(30103)
    for _ in range(40):
        pt = _unitary(rng)
        x = pt["a_pi"] / pt["b_pi"] + 1 + pt["b_pi"] / pt["a_pi"]
        z = pt["chi"] * (pt["a_pi'"] / pt["b_pi'"] + 1 + pt["b_pi'"] / pt["a_pi'"])
        hand = abs(2 * x + x * z + z) ** 2
        direct = a_D_value(pt)
        assert abs(direct.imag) < 1e-9
        assert abs(direct.real - sos_value(pt)) < 1e-9
        assert abs(direct.real - hand) < 1e-9


def test_conjugate_character_symmetry_seeded():
    rng = random.Random(77003)
    for _ in range(20):
        pt = _unitary(rng)
        flipped = {**pt, "chi": pt["chi"].conjugate()}
        assert abs(a_D_value(pt) - a_D_value(flipped)) < 1e-9


def _small_points():
    char = parse_char_spec("kronecker:-4")
    f1 = builtin_form("delta", 60)
    f2 = builtin_form("11a", 60)
    points, skipped = prepare_scan_points(f1, f2, char, 60)
    assert skipped == [2, 11]
    return points


def test_scan_rows_sorted_and_clean(monkeypatch):
    points = _small_points()
    res, rows = scanned_rows(monkeypatch, points, 2)
    assert res.ok
    assert res.checked == len(rows) == 2 * len(points)
    assert [r[:2] for r in rows] == sorted(r[:2] for r in rows)
    assert res.min_value >= -1e-9
    assert res.max_abs_delta <= 1e-9
    # the extremes name the first (p, l) where each is reached
    ref = reference_rows(points, 2)
    values = [r[2].real for r in ref]
    deltas = [abs(r[2].real - r[3]) for r in ref]
    lo = min(range(len(ref)), key=values.__getitem__)
    hi = max(range(len(ref)), key=deltas.__getitem__)
    assert (res.min_value, res.min_at) == (values[lo], ref[lo][:2])
    assert (res.max_abs_delta, res.max_delta_at) == (deltas[hi], ref[hi][:2])
    assert res.min_at != res.max_delta_at  # so a swap of the two would show


def test_kernel_is_bit_equal_on_the_acceptance_scan(monkeypatch):
    points, _ = prepare_scan_points(
        builtin_form("delta", 10**4), builtin_form("11a", 10**4),
        parse_char_spec("kronecker:-4"), 10**4,
    )
    res, rows = scanned_rows(monkeypatch, points, 4)
    assert res.ok and len(rows) == 4908
    assert res.min_at == (3079, 4)
    assert_bit_equal(rows, reference_rows(points, 4))


def test_kernel_is_bit_equal_on_seeded_tables(monkeypatch, tmp_path):
    # a_p anywhere up to the exact bound, and on it now and then, with a
    # character of 12th roots of unity, so the values are complex
    rng = random.Random(12012)
    primes = sieve(3000)
    paths = []
    for k, level in ((12, 1), (2, 11)):
        path = tmp_path / f"w{k}.tsv"
        rows = [f"#weight {k} level {level}"]
        for p in primes:
            b = math.isqrt(4 * p ** (k - 1))
            ap = rng.choice((-b, b)) if rng.random() < 0.05 else rng.randint(-b, b)
            rows.append(f"{p}\t{ap}")
        path.write_text("\n".join(rows) + "\n")
        paths.append(str(path))
    chi = tmp_path / "chi.tsv"
    with open(chi, "w") as fh:
        for p in primes:
            a = 2 * math.pi * rng.randrange(12) / 12
            fh.write(f"{p}\t{math.cos(a)!r}\t{math.sin(a)!r}\n")
    points, skipped = prepare_scan_points(
        load_eigenvalue_file(paths[0]), load_eigenvalue_file(paths[1]),
        parse_char_spec(str(chi)), 3000,
    )
    assert skipped == [11]
    _res, rows = scanned_rows(monkeypatch, points, 8)
    assert len(rows) == 8 * len(points)
    assert any(abs(r[2].imag) > 0 for r in rows)
    assert_bit_equal(rows, reference_rows(points, 8))


def test_scan_refuses_a_point_off_the_unit_circle():
    # each of the five values a point holds is checked, to within 1e-6
    unit = cmath.exp(0.7j)
    good = (unit, unit.conjugate(), 1j, -1j, -1.0)
    near = 1 + 5e-7
    assert scan_positivity({3: good, 5: (near, 1, 1, 1, 1)}, lmax=1).ok
    names = ("a_pi", "b_pi", "a_pi'", "b_pi'", "chi")
    for i, name in enumerate(names):
        bad = list(good)
        bad[i] *= 1 + 2e-6
        with pytest.raises(CoefficientError, match=f"^{name} is not unit"):
            scan_positivity({3: good, 7: tuple(bad)}, lmax=1)


def test_scan_empty_not_ok():
    res = scan_positivity({}, lmax=2)
    assert isinstance(res, ScanResult)
    assert res.checked == 0 and not res.ok


def test_scan_violations_are_records(monkeypatch):
    # one failing check per (p, l): realness first, then sign, then the gap
    sq = 1.23456789012345
    direct = {1: -1 + 1j, 2: -1 + 0j, 3: 2.5 + 0j, 4: sq + 0j}
    points = {3: (1, 1, 1, 1, 1)}

    def fake_kernel():
        def scan(bases, lmax, *coefs):
            for p, _base in bases:
                for ell in range(1, lmax + 1):
                    yield p, ell, direct[ell], sq

        return scan, ()

    monkeypatch.setattr(dseries, "_scan_kernel", fake_kernel)
    res = scan_positivity(points, lmax=4, tol=1e-9)
    assert res.violations == [
        Violation(REALNESS, 3, 1, -1 + 1j, sq),
        Violation(NONNEGATIVITY, 3, 2, -1 + 0j, sq),
        Violation(SQUARE_IDENTITY, 3, 3, 2.5 + 0j, sq),
    ]
    assert [str(v) for v in res.violations] == [
        "p=3 l=1: coefficient not real (1)",
        "p=3 l=2: negative coefficient (-1)",
        "p=3 l=3: direct/square mismatch (2.5 vs 1.23456789012)",
    ]
    assert not res.ok
    # l = 1 and 2 tie on both extremes; the first is named
    assert (res.min_at, res.max_delta_at) == ((3, 1), (3, 1))


def test_direct_path_evaluates_the_built_polynomial(monkeypatch):
    # negative control: change one coefficient of build_D's polynomial and the
    # square-identity check must go red, which it could not if the direct
    # value came from the closed square form
    P = dseries._polys()[0]
    points, _ = prepare_scan_points(
        builtin_form("delta", 30), builtin_form("11a", 30),
        parse_char_spec("kronecker:-4"), 30,
    )
    assert scan_positivity(points, lmax=2).ok
    bad = dict(P.c)
    bad[(0,) * len(VARS)] += 1  # the constant term, so the value stays real
    monkeypatch.setitem(dseries._CACHE, "P", LaurentPoly(bad))
    res = scan_positivity(points, lmax=2)
    assert res.checked > 0 and not res.ok
    assert {v.kind for v in res.violations} == {SQUARE_IDENTITY}
    assert len(res.violations) == res.checked
