"""Laurent coefficient polynomials and their numeric evaluation."""

import cmath
import math
import random

import pytest

from lfcheck import chargroup as G
from lfcheck.exprlang import parse_expr
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
from test_fuzz import _expr
from test_ingest import delta_pairs, tau


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
    alpha, beta = delta_pairs(2)[2][:2]
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
            (G.ONE, G.ONE),
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


def _fuzz_polys(n, seed):
    """(V, coeff_poly(V)) for each of n seeded fuzz expressions that parses
    and has a coefficient polynomial."""
    rng = random.Random(seed)
    for _ in range(n):
        try:
            V = parse_expr(_expr(rng))
            P = coeff_poly(V)
        except ValueError:  # bad syntax, opaque atoms, non-isobaric pairs
            continue
        yield V, P


def test_keys_carry_reduced_character_exponents():
    # chargroup alone reduces exponents, and each entry's one character
    # monomial is copied as it is, so every mu/eta exponent is in [0, order);
    # the dual's coefficient is then the conjugate at every unitary point,
    # although the free ring's conj gives mu^-1 where the dual has mu^2
    finite = [(VARS.index(g), n) for g, n in G.STD_ORDERS.items()]
    rng = random.Random(1)
    built = carried = 0
    for V, P in _fuzz_polys(3000, 1):
        built += 1
        exps = [(k[i], n) for k in P.c for i, n in finite]
        assert all(0 <= e < n for e, n in exps), V
        carried += any(e for e, _n in exps)
        PD, PC = coeff_poly(V.dual()), P.conj()
        tol = 1e-12 * (1 + sum(map(abs, P.c.values())))
        for _ in range(2):
            pt = unitary_point(rng)
            assert abs(PD.eval(pt) - PC.eval(pt)) <= tol, V
    # seed 1 builds 1,014 polynomials, 399 of them with mu/eta exponents
    assert carried >= 300, (built, carried)


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
    # a NaN compares False with everything, so it must fail explicitly
    for bad in (math.nan, math.inf, complex(math.nan, 1)):
        for i, name in enumerate(("a_pi", "b_pi", "a_pi'", "b_pi'")):
            slots = [1.0] * 4
            slots[i] = bad
            with pytest.raises(CoefficientError, match=f"^{name} is not unit"):
                satake_point(*slots)
        with pytest.raises(CoefficientError, match="^chi is not unit"):
            satake_point(1, 1, 1, 1, {"chi": bad})
    # a misspelt character, or one set by the Satake slots, is not ignored
    for name in ("chii", "om_pi", "a_pi", "xiF"):
        with pytest.raises(CoefficientError, match=f"unknown character name '{name}'"):
            satake_point(1, 1, 1, 1, {"chi": -1, name: 1})


def test_satake_point_validates_declared_orders():
    with pytest.raises(ValueError):
        satake_point(1.0, 1.0, 1.0, 1.0, {"mu_pi": -1.0})  # not a cube root
    pt = satake_point(1.0, 1.0, 1.0, 1.0, {"eta_pi": -1.0})
    assert pt["eta_pi"] == -1.0


def test_eval_requires_all_variables():
    P = coeff_poly(VirtualRep.of(sym_atom("pi", 1)))
    with pytest.raises(CoefficientError):
        P.eval({"a_pi": 1.0})
    # also on a polynomial that has been evaluated
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
    # exponents up to +-3 in every slot, finite-order generators included:
    # the free ring keeps mu^3 and mu^-1 as they are, and eval needs no
    # canonical key
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


def same_bits(a, b):
    # repr tells -0.0 from 0.0, which == does not
    return type(a) is type(b) is complex and repr(a) == repr(b)


def test_eval_of_thousands_of_terms_matches_the_oracle():
    rng = random.Random(5000)
    P = random_poly(rng, 7000)
    assert P.n_terms >= 5000
    for _ in range(3):
        pt = random_unit_point(rng)
        assert same_bits(P.eval(pt), oracle_eval(P, pt))


def test_eval_with_a_coefficient_beyond_float_precision():
    rng = random.Random(1020)
    key = tuple(rng.randint(-2, 2) for _ in VARS)
    P = LaurentPoly({key: 10**20 + 1, (0,) * len(VARS): -3})
    assert complex(10**20 + 1) == complex(10**20)  # not exact in a float
    for _ in range(20):
        pt = random_unit_point(rng)
        assert same_bits(P.eval(pt), oracle_eval(P, pt))


def test_eval_of_constant_and_empty_polynomials():
    rng = random.Random(77)
    pt = random_unit_point(rng)
    for P in (
        LaurentPoly.one(),
        LaurentPoly({(0,) * len(VARS): -7}),
        LaurentPoly.zero(),
        LaurentPoly({(1,) + (0,) * (len(VARS) - 1): 2, (0,) * len(VARS): 5}),
    ):
        assert same_bits(P.eval(pt), oracle_eval(P, pt)), P
    assert same_bits(LaurentPoly.zero().eval(pt), 0j)
