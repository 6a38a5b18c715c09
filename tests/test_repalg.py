"""Formal isobaric / Rankin-Selberg calculus.

The Clebsch-Gordan and plethysm rewrites are checked against an
independent oracle: torus character polynomials in ZZ[x, y, x^-1, y^-1]
computed by brute force, where Sym^m has character sum_i x^i y^(m-i).
"""

import itertools
import random
from collections import Counter

import pytest

from lfcheck import casebook
from lfcheck import chargroup as G
from lfcheck.dseries import build_D
from lfcheck.exprlang import parse_expr
from lfcheck.decompose import (
    Hypotheses,
    Tri,
    atom_equal,
    declared_selftwists,
    decompose_under,
    is_trivial,
)
from lfcheck.repalg import (
    OPAQUE,
    GL2Type,
    PairOperandError,
    RepAlgError,
    RSPair,
    VirtualRep,
    ad_atom,
    cg_expand,
    char_atom,
    opaque_atom,
    plethysm_sym2,
    reduced,
    rs_product,
    selftwists,
    sym_atom,
)


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
        VirtualRep.of(char_atom(G.ONE))
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
    # a pair twist is reduced modulo both members' self-twist groups
    assert parse_expr("nu_pi (x) nu_pi' tw eta*eta'") == parse_expr("nu_pi (x) nu_pi'")
    # and so by either member's group alone
    nu, nu2 = opaque_atom("nu_pi"), opaque_atom("nu_pi'")
    eta, eta2 = G.gen("eta_pi"), G.gen("eta_pi'")
    for t in (eta, eta2, eta * eta2):
        assert reduced(RSPair(nu, nu2, t)) == RSPair(nu, nu2, G.ONE)


def test_char_absorption():
    V = rs_product(
        VirtualRep.of(char_atom(chi)), VirtualRep.of(sym_atom("pi'", 2))
    )
    assert V == VirtualRep.of(sym_atom("pi'", 2, chi))
    # the trivial character 1 takes a power and joins a product, as one does
    for text in ("1*chi", "one*chi", "zeta*chi", "chi*1", "1^2*chi"):
        assert parse_expr(text) == VirtualRep.of(char_atom(chi))
    assert parse_expr("1^2") == parse_expr("1") == VirtualRep.of(char_atom(G.ONE))


def test_sum_parses_in_linear_time(monkeypatch):
    # a build per (+) over the sum so far took about n^2/2 entries
    n = 2000
    real = VirtualRep.build
    received = []

    def spy(pairs):
        pairs = list(pairs)
        received.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(VirtualRep, "build", staticmethod(spy))
    V = parse_expr(" (+) ".join(f"pi tw chi^{i}" for i in range(n)))
    assert len(V.entries) == n
    assert sum(received) <= 3 * n


def test_duality_involution_seeded():
    rng = random.Random(90125)
    for _ in range(40):
        parts = []
        for _k in range(rng.randrange(1, 4)):
            base = rng.choice(["pi", "pi'"])
            m = rng.randrange(1, 5)
            tw = G.gen(rng.choice(list(G.STD_GENERATORS)), rng.randrange(-2, 3))
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
    # decompose_under makes one pass, so no rule may emit, alone or paired
    # across the bases, an atom that a rule of the same declarations rewrites
    hyp = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL)
    V = rs_product(
        VirtualRep.of(sym_atom("pi", 4, om ** (-2))),
        VirtualRep.of(sym_atom("pi'", 4, om2 ** (-2))),
    )
    once = decompose_under(V, hyp)
    twice = decompose_under(once, hyp)
    assert once == twice
    assert once.degree == V.degree == 25

    cores = [sym_atom(b, m) for b in ("pi", "pi'") for m in range(1, 7)]
    cores += [opaque_atom(label) for label in OPAQUE]
    twists = (G.ONE, chi, om ** (-2), G.gen("eta_pi'") * chi)
    values = [VirtualRep.of(a.twisted(c)) for a in cores for c in twists]
    values += [
        rs_product(VirtualRep.of(a), VirtualRep.of(b.twisted(chi)))
        for a, b in itertools.combinations_with_replacement(cores, 2)
    ]
    for spec in casebook.CASES.values():
        for ident in spec.identities:
            values.append(build_D() if ident.lhs is None else casebook._rows(ident.lhs))
            values.append(casebook._rows(ident.rhs))
    hyps = [Hypotheses(t1, t2) for t1, t2 in itertools.product(GL2Type, repeat=2)]
    hyps += [Hypotheses(t, t, twist_equiv=True) for t in GL2Type]
    for hyp in hyps:
        for V in values:
            once = decompose_under(V, hyp)
            assert decompose_under(once, hyp) == once, (V, hyp)
            assert once.degree == V.degree


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
    # equal Sym^1 atoms over the two bases would make them twist-equivalent
    gen2 = Hypotheses(GL2Type.GENERAL, GL2Type.GENERAL)
    teq = Hypotheses(GL2Type.GENERAL, GL2Type.GENERAL, twist_equiv=True)
    assert atom_equal(sym_atom("pi", 1), sym_atom("pi'", 1), gen2) is Tri.NO
    assert atom_equal(sym_atom("pi", 1), sym_atom("pi'", 1), teq) is Tri.UNKNOWN
    # two characters are equal when their quotient is trivial: mu is
    # declared nontrivial, chi is not
    assert atom_equal(char_atom(mu), char_atom(G.ONE), hyp) is Tri.NO
    assert atom_equal(char_atom(chi), char_atom(G.ONE), hyp) is Tri.UNKNOWN
    # nu_pi tw eta_pi' is nu_pi tw eta_pi*eta_pi', which is nu_pi when the
    # two quadratic characters coincide, and nothing declared rules that out
    octs = Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.OCTAHEDRAL)
    nu = opaque_atom("nu_pi")
    assert atom_equal(nu, nu.twisted(G.gen("eta_pi'")), octs) is Tri.UNKNOWN
    # opaque atoms of equal degree but different labels are not compared
    assert atom_equal(opaque_atom("nu_pi"), opaque_atom("ind_pi"), hyp) is Tri.UNKNOWN
    # same-base symmetric powers past the adjoint: a self-twist of Sym^4 is
    # quintic, so the quadratic eta, declared nontrivial, is none; nothing
    # is declared for Sym^3
    hypO = Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.GENERAL)
    eta = G.gen("eta_pi")
    S4 = sym_atom("pi", 4)
    assert atom_equal(S4, sym_atom("pi", 4, eta), hypO) is Tri.NO
    assert atom_equal(S4, sym_atom("pi", 4, chi), hypO) is Tri.UNKNOWN
    assert atom_equal(sym_atom("pi", 3), sym_atom("pi", 3, eta), hypO) is Tri.UNKNOWN


def test_is_trivial_decides_only_declared_words():
    # trivial only for the empty word; nontrivial only for a nonzero power
    # of the one generator a shape declares nontrivial over its base (mu
    # of a tetrahedral base, eta of an octahedral one); all else UNKNOWN
    declared = {GL2Type.TETRAHEDRAL: "mu", GL2Type.OCTAHEDRAL: "eta"}
    hyps = [Hypotheses(t1, t2) for t1, t2 in itertools.product(GL2Type, repeat=2)]
    hyps += [Hypotheses(t, t, twist_equiv=True) for t in GL2Type]
    words = [G.gen(g, e) for g in G.STD_GENERATORS for e in range(-4, 5)]
    pairs = itertools.combinations(G.STD_GENERATORS, 2)
    words += [G.gen(g) * G.gen(h) for g, h in pairs]
    for hyp in hyps:
        nontrivial = {
            G.base_name(declared[hyp.type_of(b)], b)
            for b in G.BASES if hyp.type_of(b) in declared
        }
        for c in words:
            supp = c.support()
            if not supp:
                want = Tri.YES
            elif len(supp) == 1 and supp[0][0] in nontrivial:
                want = Tri.NO
            else:
                want = Tri.UNKNOWN
            assert is_trivial(c, hyp) is want, (hyp, c)


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


def test_printed_atoms_parse_back():
    # an atom's printed form is an expression for it: pretty() prints
    # generator names, and those start an atom as well as a twist
    rng = random.Random(52183)
    names = list(G.STD_GENERATORS)
    for _ in range(300):
        tw = G.ONE
        for _k in range(rng.randrange(4)):
            tw = tw * G.gen(rng.choice(names), rng.randrange(-3, 4))
        base = rng.choice(["pi", "pi'"])
        atom = rng.choice([
            char_atom(tw),
            sym_atom(base, rng.randrange(1, 7), tw),
            ad_atom(base, tw),
            opaque_atom(rng.choice(list(OPAQUE)), tw),
        ])
        assert parse_expr(atom.pretty()) == VirtualRep.of(atom), atom.pretty()
    # expand's printed normal form of Sym^3(pi) (x) Sym^3(pi)
    form = "om_pi^3 (+) Ad(pi) tw om_pi^3 (+) Sym^4(pi) tw om_pi (+) Sym^6(pi)"
    assert parse_expr(form) == parse_expr("Sym^3(pi) (x) Sym^3(pi)")


def test_trailing_blanks_are_ignored():
    assert parse_expr("Ad(pi)   ") == parse_expr("Ad(pi)")


def test_selftwists_are_groups():
    # tests-only closure oracle: every group selftwists hands out, and every
    # group a declaration widens it to, lists ONE first, no element twice,
    # and is closed under products
    atoms = [char_atom(chi), *(opaque_atom(label) for label in OPAQUE)]
    atoms += [sym_atom(b, m) for b in ("pi", "pi'") for m in range(1, 7)]
    hyps = [None] + [Hypotheses(t1, t2) for t1, t2 in itertools.product(GL2Type, repeat=2)]
    sizes = set()
    for atom, hyp in itertools.product(atoms, hyps):
        group = selftwists(atom) if hyp is None else declared_selftwists(atom, hyp)
        assert group[0] == G.ONE
        assert len(set(group)) == len(group)
        assert {s * t for s in group for t in group} <= set(group), (atom, hyp)
        sizes.add(len(group))
    assert sizes == {1, 2, 3}
