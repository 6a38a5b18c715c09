"""Formal isobaric / Rankin-Selberg calculus.

The Clebsch-Gordan and plethysm rewrites are checked against an
independent oracle: torus character polynomials in ZZ[x, y, x^-1, y^-1]
computed by brute force, where Sym^m has character sum_i x^i y^(m-i).
"""

import random
from collections import Counter

import pytest

from lfcheck.chargroup import standard_group
from lfcheck.hypotheses import GL2Type, Hypotheses, Tri
from lfcheck.repalg import (
    PairOperandError,
    RepAlgError,
    RSPair,
    VirtualRep,
    ad_atom,
    atom_equal,
    cg_expand,
    char_atom,
    decompose_under,
    opaque_atom,
    plethysm_sym2,
    rs_product,
    sym_atom,
)


G = standard_group()
chi = G.gen("chi")
mu = G.gen("mu_pi")
om = G.gen("om_pi")
om2 = G.gen("om_pi'")


# torus character oracle: dicts (i, j) -> coefficient


def sym_char(m):
    return Counter({(i, m - i): 1 for i in range(m + 1)})


def poly_mul(a, b):
    out = Counter()
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            out[(i1 + i2, j1 + j2)] += c1 * c2
    return +out


def det_power(r):
    return Counter({(r, r): 1})


def test_cg_against_torus_characters():
    for j in range(0, 7):
        for k in range(0, 7):
            lhs = poly_mul(sym_char(j), sym_char(k))
            rhs = Counter()
            for d, r in cg_expand(j, k):
                rhs += poly_mul(sym_char(d), det_power(r))
            assert lhs == rhs, (j, k)


def test_cg_degree_conservation():
    for j in range(0, 7):
        for k in range(0, 7):
            total = sum(d + 1 for d, _r in cg_expand(j, k))
            assert total == (j + 1) * (k + 1)


def test_cg_determinant_exponents():
    assert cg_expand(2, 2) == [(4, 0), (2, 1), (0, 2)]
    assert cg_expand(2, 4) == [(6, 0), (4, 1), (2, 2)]


def test_plethysm_against_torus_characters():
    # Sym^2 of Sym^m: sum over unordered pairs of weights
    for m in range(1, 6):
        weights = [(i, m - i) for i in range(m + 1)]
        lhs = Counter()
        for a in range(len(weights)):
            for b in range(a, len(weights)):
                (i1, j1), (i2, j2) = weights[a], weights[b]
                lhs[(i1 + i2, j1 + j2)] += 1
        rhs = Counter()
        for d, r in plethysm_sym2(m):
            rhs += poly_mul(sym_char(d), det_power(r))
        assert lhs == rhs, m


def test_plethysm_cube():
    assert plethysm_sym2(3) == [(6, 0), (2, 2)]


def test_adjoint_square_rewrite():
    # Ad x Ad = 1 + Ad + (Sym^4 tensor inverse-square central character)
    A = VirtualRep.of(ad_atom("pi"))
    prod = rs_product(A, A)
    want = (
        VirtualRep.of(char_atom(G.one()))
        + A
        + VirtualRep.of(sym_atom("pi", 4, om ** (-2)))
    )
    assert prod == want


def test_rs_product_bilinear_seeded():
    rng = random.Random(4117)
    pool = [
        VirtualRep.of(sym_atom("pi", rng.randrange(1, 4))),
        VirtualRep.of(sym_atom("pi'", 2, chi)),
        VirtualRep.of(char_atom(chi)),
        VirtualRep.of(ad_atom("pi")),
    ]
    for _ in range(25):
        A, B, C = (rng.choice(pool) for _ in range(3))
        left = rs_product(A + B, C)
        right = rs_product(A, C) + rs_product(B, C)
        assert left == right
        assert rs_product(A, B) == rs_product(B, A)


def test_pair_grouping_invariance():
    # moving the twist between members lands on the same pooled pair
    x = rs_product(VirtualRep.of(ad_atom("pi", chi)), VirtualRep.of(ad_atom("pi'")))
    y = rs_product(VirtualRep.of(ad_atom("pi")), VirtualRep.of(ad_atom("pi'", chi)))
    assert x == y


def test_char_absorption():
    V = rs_product(
        VirtualRep.of(char_atom(chi)), VirtualRep.of(sym_atom("pi'", 2))
    )
    assert V == VirtualRep.of(sym_atom("pi'", 2, chi))


def test_duality_involution_seeded():
    rng = random.Random(90125)
    for _ in range(40):
        parts = []
        for _k in range(rng.randrange(1, 4)):
            base = rng.choice(["pi", "pi'"])
            m = rng.randrange(1, 5)
            tw = G.gen(rng.choice(list(G.generators)), rng.randrange(-2, 3))
            parts.append((sym_atom(base, m, tw), rng.randrange(1, 3)))
        V = VirtualRep.build(parts)
        assert V.dual().dual() == V


def test_dual_of_pair_swaps_to_dual_members():
    P = rs_product(VirtualRep.of(ad_atom("pi")), VirtualRep.of(ad_atom("pi'", chi)))
    D = P.dual()
    (key, m), = D.entries
    assert m == 1
    assert isinstance(key, RSPair)
    # adjoints are self-dual, so only the pooled chi flips
    assert D == rs_product(
        VirtualRep.of(ad_atom("pi")), VirtualRep.of(ad_atom("pi'", chi.inv()))
    )


def test_opaque_dual_needs_declared_twist():
    nu = opaque_atom("nu_pi")
    assert nu.dual() == nu  # self-dual by registry
    ind = opaque_atom("ind_pi'")
    d = ind.dual()
    assert d.twist == G.gen("xiF_pi'", -2)


def test_negative_multiplicity_rejected():
    with pytest.raises(RepAlgError):
        VirtualRep.build([(char_atom(chi), -1)])


def test_nested_pair_rejected():
    P = rs_product(VirtualRep.of(ad_atom("pi")), VirtualRep.of(ad_atom("pi'")))
    with pytest.raises(PairOperandError):
        rs_product(P, VirtualRep.of(char_atom(chi)))


def test_sym_zero_collapses_to_char():
    a = sym_atom("pi", 0, chi)
    assert a.kind == "char"


def test_decompose_tetrahedral_fourth_power():
    hyp = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.GENERAL)
    V = VirtualRep.of(sym_atom("pi", 4, om ** (-2)))
    dec = decompose_under(V, hyp)
    want = (
        VirtualRep.of(ad_atom("pi"))
        + VirtualRep.of(char_atom(mu))
        + VirtualRep.of(char_atom(mu.inv()))
    )
    assert dec == want


def test_decompose_octahedral_fourth_power():
    hyp = Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.GENERAL)
    V = VirtualRep.of(sym_atom("pi", 4, om ** (-2)))
    dec = decompose_under(V, hyp)
    want = VirtualRep.of(opaque_atom("nu_pi")) + VirtualRep.of(
        ad_atom("pi", G.gen("eta_pi"))
    )
    assert dec == want


def test_decompose_dihedral_adjoint():
    hyp = Hypotheses(GL2Type.DIHEDRAL, GL2Type.GENERAL)
    dec = decompose_under(VirtualRep.of(ad_atom("pi")), hyp)
    kinds = sorted(k.kind for k, _m in dec.entries)
    assert kinds == ["char", "op"]
    assert dec.degree == 3


def test_decompose_idempotent():
    hyp = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL)
    V = rs_product(
        VirtualRep.of(sym_atom("pi", 4, om ** (-2))),
        VirtualRep.of(sym_atom("pi'", 4, om2 ** (-2))),
    )
    once = decompose_under(V, hyp)
    twice = decompose_under(once, hyp)
    assert once == twice
    assert once.degree == V.degree == 25


def test_tetrahedral_selftwist_canonicalized():
    hyp = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.GENERAL)
    # Ad tensor mu = Ad for the Sym^3-degenerate shape
    a = decompose_under(VirtualRep.of(ad_atom("pi", mu)), hyp)
    b = decompose_under(VirtualRep.of(ad_atom("pi")), hyp)
    assert a == b


def test_atom_equal_three_values():
    hyp = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.TETRAHEDRAL)
    A = ad_atom("pi")
    assert atom_equal(A, A, hyp) is Tri.YES
    assert atom_equal(A, ad_atom("pi", mu), hyp) is Tri.YES  # self-twist
    assert atom_equal(A, ad_atom("pi", chi), hyp) is Tri.UNKNOWN
    assert atom_equal(A, char_atom(chi), hyp) is Tri.NO  # degree mismatch
    # cross-base adjoints under twist-inequivalence never match
    assert atom_equal(A, ad_atom("pi'"), hyp) is Tri.NO


def test_atom_equal_twist_equivalent_cross_base():
    hyp = Hypotheses(
        GL2Type.GENERAL, GL2Type.GENERAL, twist_equiv=True
    )
    assert atom_equal(ad_atom("pi"), ad_atom("pi'"), hyp) is not Tri.NO


def test_entry_order_is_canonical():
    a = VirtualRep.of(char_atom(chi)) + VirtualRep.of(ad_atom("pi"))
    b = VirtualRep.of(ad_atom("pi")) + VirtualRep.of(char_atom(chi))
    assert a == b
    assert a.entries == b.entries
