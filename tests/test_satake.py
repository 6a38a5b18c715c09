"""Laurent coefficient polynomials and their numeric evaluation."""

import cmath
import math
import random

import pytest

from lfcheck.chargroup import standard_group
from lfcheck.ingest import satake_from_ap, tau
from lfcheck.repalg import (
    VirtualRep,
    ad_atom,
    char_atom,
    rs_product,
    sym_atom,
)
from lfcheck.dseries import a_D_value, build_D
from lfcheck.satake import (
    VARS,
    CoefficientError,
    LaurentPoly,
    coeff_poly,
    satake_point,
)
from lfcheck.repalg import opaque_atom


G = standard_group()
chi = G.gen("chi")


def unitary_point(rng):
    """Random point on the unitary locus respecting declared orders."""
    a1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    a2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    chars = {
        "chi": cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        "mu_pi": cmath.exp(2j * math.pi * rng.randrange(3) / 3),
        "mu_pi'": cmath.exp(2j * math.pi * rng.randrange(3) / 3),
        "eta_pi": float(rng.choice([1, -1])),
        "eta_pi'": float(rng.choice([1, -1])),
        "xiF_pi": cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        "xiF_pi'": cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
    }
    return satake_point(a1, a1.conjugate(), a2, a2.conjugate(), chars)


def test_vars_cover_the_lattice_without_central_slots():
    assert "a_pi" in VARS and "b_pi'" in VARS
    assert "om_pi" not in VARS  # central characters fold into a*b
    assert "chi" in VARS


def test_adjoint_coefficient_at_delta_p2():
    # tau(2) = -24, weight 12: a_Ad(2) = tau(2)^2 / 2^11 - 1
    alpha, beta = satake_from_ap(tau(2), 2, 12)
    pt = satake_point(alpha, beta, 1.0, 1.0, {})
    val = coeff_poly(VirtualRep.of(ad_atom("pi"))).eval(pt)
    assert abs(val.imag) < 1e-12
    assert abs(val.real - (tau(2) ** 2 / 2**11 - 1)) < 1e-12
    assert abs(val.real - (-0.71875)) < 1e-12


def test_standard_coefficient_is_trace():
    rng = random.Random(777)
    for _ in range(20):
        pt = unitary_point(rng)
        v = coeff_poly(VirtualRep.of(sym_atom("pi", 1))).eval(pt)
        assert abs(v - (pt["a_pi"] + pt["b_pi"])) < 1e-12


def test_multiplicativity_seeded():
    # pair coefficient = product of member coefficients, prime powers too
    rng = random.Random(24601)
    A = VirtualRep.of(ad_atom("pi"))
    B = VirtualRep.of(ad_atom("pi'", chi))
    PA, PB = coeff_poly(A), coeff_poly(B)
    PP = coeff_poly(rs_product(A, B))
    for _ in range(100):
        pt = unitary_point(rng)
        for ell in range(1, 5):
            pl = {k: v**ell for k, v in pt.items()}
            lhs = PP.eval(pl)
            rhs = PA.eval(pl) * PB.eval(pl)
            assert abs(lhs - rhs) < 1e-9


def test_clebsch_gordan_coefficients_multiply_exactly():
    # coeff(Sym^j (x) Sym^k) = coeff(Sym^j) * coeff(Sym^k) as Laurent
    # polynomials over one base, untwisted and with twists that touch the
    # central character and the finite-order generators
    rng = random.Random(4040)
    pairs = [(j, k) for j in range(5) for k in range(5)] + [(40, 40), (40, 1)]
    pairs += [(rng.randrange(41), rng.randrange(41)) for _ in range(8)]
    for base in ("pi", "pi'"):
        twists = [
            (G.one(), G.one()),
            (chi * G.gen(f"om_{base}", -1), G.gen("mu_pi", 2) * G.gen("eta_pi'")),
        ]
        for j, k in pairs:
            for tj, tk in twists:
                A = VirtualRep.of(sym_atom(base, j, tj))
                B = VirtualRep.of(sym_atom(base, k, tk))
                lhs = coeff_poly(rs_product(A, B))
                assert lhs == coeff_poly(A) * coeff_poly(B), (base, j, k, tj)


def test_conjugation_on_unitary_locus():
    rng = random.Random(31415)
    P = coeff_poly(VirtualRep.of(sym_atom("pi", 2, chi * G.gen("om_pi", -1))))
    for _ in range(30):
        pt = unitary_point(rng)
        lhs = P.conj().eval(pt)
        rhs = P.eval(pt).conjugate()
        assert abs(lhs - rhs) < 1e-12


def test_duality_matches_conjugation():
    rng = random.Random(2718)
    V = VirtualRep.of(sym_atom("pi", 3, chi)) + VirtualRep.of(ad_atom("pi'"))
    P, PD = coeff_poly(V), coeff_poly(V.dual())
    for _ in range(30):
        pt = unitary_point(rng)
        assert abs(PD.eval(pt) - P.eval(pt).conjugate()) < 1e-12


def test_arithmetic_ring_axioms():
    x = coeff_poly(VirtualRep.of(sym_atom("pi", 1)))
    y = coeff_poly(VirtualRep.of(char_atom(chi)))
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x - x).is_zero


def test_opaque_atom_has_no_polynomial():
    with pytest.raises(CoefficientError):
        coeff_poly(VirtualRep.of(opaque_atom("nu_pi")))


def test_satake_point_validates_modulus():
    with pytest.raises(ValueError):
        satake_point(2.0, 0.5, 1.0, 1.0, {})


def test_satake_point_validates_declared_orders():
    with pytest.raises(ValueError):
        satake_point(1.0, 1.0, 1.0, 1.0, {"mu_pi": -1.0})  # not a cube root
    pt = satake_point(1.0, 1.0, 1.0, 1.0, {"eta_pi": -1.0})
    assert pt["eta_pi"] == -1.0


def test_eval_requires_all_variables():
    P = coeff_poly(VirtualRep.of(sym_atom("pi", 1)))
    with pytest.raises(CoefficientError):
        P.eval({"a_pi": 1.0})
    # also once the term list has been built
    pt = satake_point(1, 1, 1, 1)
    assert P.eval(pt) == 2
    for name in ("a_pi", "chi", "eta_pi'"):
        with pytest.raises(CoefficientError, match=name):
            P.eval({k: v for k, v in pt.items() if k != name})


def oracle_eval(poly, vals):
    """Term-by-term evaluation: each term starts from its coefficient and
    multiplies in x**e for its variables in VARS order; terms are summed in
    dict order.  LaurentPoly.eval must agree with it bit for bit."""
    total = 0j
    order = tuple(vals[n] for n in VARS)
    for k, v in poly.c.items():
        term = complex(v)
        for x, e in zip(order, k):
            if e:
                term *= x**e
        total += term
    return total


def random_poly(rng, n_terms):
    # exponents up to +-3 in every slot, finite-order generators included
    # (the constructor reduces those modulo their orders)
    return LaurentPoly({
        tuple(rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in VARS):
            rng.randint(-50, 50)
        for _ in range(n_terms)
    })


def random_unit_point(rng):
    return {n: cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for n in VARS}


def test_eval_matches_term_by_term_oracle_exactly():
    rng = random.Random(8086)
    for _ in range(60):
        P = random_poly(rng, rng.randint(0, 40))
        for _ in range(5):
            pt = random_unit_point(rng) if rng.random() < 0.5 else unitary_point(rng)
            assert P.eval(pt) == oracle_eval(P, pt)
    D = coeff_poly(build_D())  # the scan's 55-term polynomial
    assert D.n_terms == 55
    for _ in range(50):
        pt = unitary_point(rng)
        assert D.eval(pt) == oracle_eval(D, pt)


def test_eval_follows_rebound_coefficients():
    rng = random.Random(1999)
    P, Q = random_poly(rng, 20), random_poly(rng, 20)
    pt = random_unit_point(rng)
    before = P.eval(pt)
    assert before == oracle_eval(P, pt)
    P.c = Q.c
    assert P.eval(pt) == oracle_eval(Q, pt) != before
    P.c = {}
    assert P.eval(pt) == 0j


def test_degree_324_at_the_trivial_point_exactly():
    assert a_D_value(satake_point(1, 1, 1, 1)) == 324
