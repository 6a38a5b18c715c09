"""Pole-order bookkeeping at the edge point."""

import itertools
import random

import pytest

from lfcheck import chargroup as G
from lfcheck.hypotheses import GL2Type, Hypotheses
from lfcheck.poles import (
    MAYBE,
    ONE,
    ZERO,
    NonCuspidalError,
    PoleError,
    PoleInterval,
    cuspidality,
    isobaric_pair_pole,
    pole_order,
    self_dual_abelian_entries,
)
from lfcheck.decompose import Tri, _decompose_atom, decompose_under
from lfcheck.exprlang import parse_expr
from lfcheck.repalg import (
    OPAQUE,
    VirtualRep,
    ad_atom,
    char_atom,
    opaque_atom,
    rs_product,
    sym_atom,
)


chi = G.gen("chi")
GEN2 = Hypotheses(GL2Type.GENERAL, GL2Type.GENERAL)


def test_interval_arithmetic():
    assert PoleInterval(1, 2) + PoleInterval(0, 3) == PoleInterval(1, 5)
    assert PoleInterval(1, 2).scale(3) == PoleInterval(3, 6)
    assert str(PoleInterval(0, 1)) == "[0, 1]"


def test_bad_interval_rejected():
    with pytest.raises(PoleError):
        PoleInterval(2, 1)
    with pytest.raises(PoleError):
        PoleInterval(-1, 0)


def test_zeta_powers():
    V = VirtualRep.build([(char_atom(G.ONE), 6)])
    iv, reasons = pole_order(V, GEN2)
    assert iv == PoleInterval(6, 6)
    assert len(reasons) == 1 and "zeta" in reasons[0]


def test_single_generator_character_entire():
    # generators of declared prime order that the shape makes nontrivial
    hyp = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL)
    for name in ("mu_pi", "eta_pi'"):
        V = VirtualRep.of(char_atom(G.gen(name)))
        assert pole_order(V, hyp)[0] == ZERO
    # chi carries no declared order, so its triviality stays open
    assert pole_order(VirtualRep.of(char_atom(chi)), hyp)[0] == MAYBE


def test_mixed_character_undecided():
    V = VirtualRep.of(char_atom(G.gen("mu_pi") * G.gen("mu_pi'")))
    assert pole_order(V, GEN2)[0] == MAYBE


def test_cuspidal_atom_entire():
    assert pole_order(VirtualRep.of(ad_atom("pi")), GEN2)[0] == ZERO
    assert pole_order(VirtualRep.of(sym_atom("pi", 4)), GEN2)[0] == ZERO


def test_cuspidality_taxonomy():
    hypT = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.GENERAL)
    hypO = Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.GENERAL)
    hypD = Hypotheses(GL2Type.DIHEDRAL, GL2Type.GENERAL)
    s3, s4 = sym_atom("pi", 3), sym_atom("pi", 4)
    assert cuspidality(s3, hypT) is Tri.NO
    assert cuspidality(s3, hypO) is Tri.YES
    assert cuspidality(s4, hypO) is Tri.NO
    assert cuspidality(s4, GEN2) is Tri.YES
    assert cuspidality(sym_atom("pi", 2), hypD) is Tri.NO
    assert cuspidality(sym_atom("pi", 1), hypD) is Tri.YES
    assert cuspidality(sym_atom("pi", 6), GEN2) is Tri.UNKNOWN


def test_non_cuspidal_input_rejected():
    hypT = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.GENERAL)
    V = VirtualRep.of(sym_atom("pi", 4, G.gen("om_pi", -2)))
    with pytest.raises(NonCuspidalError):
        pole_order(V, hypT)
    # after decomposition the ledger goes through
    iv, _ = pole_order(decompose_under(V, hypT), hypT)
    assert iv == ZERO


def test_every_rewritten_atom_is_non_cuspidal():
    # the ledger refuses undecomposed input through cuspidality alone, so
    # every atom the declared shapes rewrite must read NO there
    atoms = [char_atom(chi), *(opaque_atom(label) for label in OPAQUE)]
    atoms += [sym_atom(b, m, chi) for b in ("pi", "pi'") for m in range(1, 7)]
    rewritten = 0
    for t1, t2 in itertools.product(GL2Type, repeat=2):
        hyp = Hypotheses(t1, t2)
        for atom in atoms:
            if _decompose_atom(atom, hyp) is not None:
                rewritten += 1
                assert cuspidality(atom, hyp) is Tri.NO, (atom, hyp)
    # per base: one atom for each of its three degenerate types, with the
    # other base of any of four types
    assert rewritten == 2 * 3 * 4


def test_opaque_atoms_carry_the_shape_of_their_rule():
    # every opaque atom a rewrite rule emits lives over the rewritten base,
    # whose declared shape is the one OPAQUE records; cuspidality accepts it
    emitted = set()
    for t1, t2 in itertools.product(GL2Type, repeat=2):
        hyp = Hypotheses(t1, t2)
        for b, m in itertools.product(("pi", "pi'"), range(1, 7)):
            for atom, _mult in _decompose_atom(sym_atom(b, m, chi), hyp) or ():
                if atom.kind == "op":
                    info = OPAQUE[atom.label]
                    assert info.base == b and hyp.type_of(b) is info.shape
                    assert cuspidality(atom, hyp) is Tri.YES
                    emitted.add(atom.label)
    assert emitted == set(OPAQUE)


def test_opaque_atom_of_another_shape_refused():
    for label, info in OPAQUE.items():
        op = VirtualRep.of(opaque_atom(label))
        for t in GL2Type:
            hyp = Hypotheses(t, t)
            if t is info.shape:
                assert cuspidality(opaque_atom(label), hyp) is Tri.YES
                continue
            want = f"^{label} needs {info.base} to be {info.shape.value}$"
            with pytest.raises(PoleError, match=want):
                cuspidality(opaque_atom(label), hyp)
            # as a pair member too, against a standard L-function of either base
            for b in ("pi", "pi'"):
                V = rs_product(VirtualRep.of(sym_atom(b, 1)), op)
                with pytest.raises(PoleError, match=f"^{label} needs"):
                    pole_order(V, hyp)


def test_pair_with_a_non_cuspidal_member_refused_before_widening():
    # Sym^5(pi) has undeclared cuspidality, but Sym^4(pi') is non-cuspidal
    # for a tetrahedral pi', so the pair is refused rather than read [0, 1]
    hyp = Hypotheses(GL2Type.GENERAL, GL2Type.TETRAHEDRAL)
    V = parse_expr("Sym^5(pi) (x) Sym^4(pi')")
    with pytest.raises(NonCuspidalError, match="Sym\\^4\\(pi'\\) is non-cuspidal"):
        pole_order(V, hyp)


def test_self_dual_opaque_pair_has_pole():
    # a dihedral summand paired with itself: pole of order one
    V = rs_product(
        VirtualRep.of(opaque_atom("nu_pi")), VirtualRep.of(opaque_atom("nu_pi"))
    )
    hyp = Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.GENERAL)
    assert pole_order(V, hyp)[0] == ONE


def test_cross_base_adjoint_pairs_entire_seeded():
    # under twist-inequivalence no character twist can make the two
    # adjoints dual, so every such pair is entire: 200 random twists
    rng = random.Random(60902)
    names = list(G.STD_GENERATORS)
    A = VirtualRep.of(ad_atom("pi"))
    for _ in range(200):
        xi = G.from_dict(
            {rng.choice(names): rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))}
        )
        V = rs_product(A, VirtualRep.of(ad_atom("pi'", xi)))
        iv, reasons = pole_order(V, GEN2)
        assert iv == ZERO, (xi.pretty(), reasons)


def test_sym4_cross_base_pair_undecided():
    V = rs_product(
        VirtualRep.of(sym_atom("pi", 4, G.gen("om_pi", -2))),
        VirtualRep.of(sym_atom("pi'", 4, G.gen("om_pi'", -2))),
    )
    assert pole_order(V, GEN2)[0] == MAYBE


def test_monotone_in_entries():
    rng = random.Random(1105)
    parts = [
        (char_atom(G.ONE), 2),
        (char_atom(G.gen("mu_pi") * G.gen("eta_pi")), 1),
        (ad_atom("pi"), 3),
    ]
    rng.shuffle(parts)
    acc = []
    last = PoleInterval(0, 0)
    for entry in parts:
        acc.append(entry)
        iv, _ = pole_order(VirtualRep.build(acc), GEN2)
        assert iv.lo >= last.lo and iv.hi >= last.hi
        last = iv


def test_isobaric_pair_pole_diagonal():
    # three pairwise non-isomorphic self-dual constituents: order three
    Pi = (
        VirtualRep.of(char_atom(G.ONE))
        + VirtualRep.of(ad_atom("pi"))
        + VirtualRep.of(sym_atom("pi", 4, chi * G.gen("om_pi", -2)))
    )
    hyp = Hypotheses(GL2Type.GENERAL, GL2Type.GENERAL, twist_equiv=True)
    iv, reasons = isobaric_pair_pole(Pi, Pi.dual(), hyp)
    assert iv == PoleInterval(3, 3)
    assert len(reasons) == 3


def test_isobaric_pair_pole_rejects_pairs():
    P = rs_product(VirtualRep.of(ad_atom("pi")), VirtualRep.of(ad_atom("pi'")))
    with pytest.raises(PoleError):
        isobaric_pair_pole(P, P, GEN2)


def test_self_dual_abelian_report():
    hyp = GEN2
    V = (
        VirtualRep.of(char_atom(G.gen("eta_pi")))
        + VirtualRep.of(char_atom(chi))
        + VirtualRep.of(char_atom(G.ONE))
    )
    names = " ".join(self_dual_abelian_entries(V, hyp))
    assert "eta_pi" in names
    assert "chi" not in names  # order of chi undeclared
