"""Auxiliary degree-324 product: assembly, square identity, scanning."""

import cmath
import random

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
    sos_value,
    verify_sos,
)
from lfcheck.ingest import builtin_form, parse_char_spec, prepare_scan_points
from lfcheck.satake import VARS, LaurentPoly, satake_point


# display-order multiplicities of the fifteen factors
PROFILE = (6, 4, 4, 7, 2, 2, 2, 5, 2, 3, 3, 1, 2, 2, 1)


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


def test_scan_rows_sorted_and_clean():
    points = _small_points()
    res = scan_positivity(points, lmax=2, tol=1e-9)
    assert res.ok
    assert res.checked == 2 * len(points)
    assert res.rows == sorted(res.rows, key=lambda r: (r[0], r[1]))
    assert res.min_value >= -1e-9
    assert res.max_abs_delta <= 1e-9


def test_scan_empty_not_ok():
    res = scan_positivity({}, lmax=2)
    assert isinstance(res, ScanResult)
    assert res.checked == 0 and not res.ok


def test_scan_violations_are_records(monkeypatch):
    # one failing check per (p, l): realness first, then sign, then the gap
    sq = 1.23456789012345
    direct = {1: -1 + 1j, 2: -1 + 0j, 3: 2.5 + 0j, 4: sq + 0j}
    points = {3: (1, 1, 1, 1, 1)}
    ells = iter(range(1, 5))
    monkeypatch.setattr(dseries, "a_D_value", lambda pt: direct[next(ells)])
    monkeypatch.setattr(dseries, "sos_value", lambda pt: sq)
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
