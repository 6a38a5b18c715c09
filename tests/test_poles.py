"""Pole-order bookkeeping at the edge point."""

import random

import pytest

from lfcheck.chargroup import standard_group
from lfcheck.hypotheses import GL2Type, Hypotheses, Tri
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
from lfcheck.repalg import (
    VirtualRep,
    ad_atom,
    char_atom,
    decompose_under,
    opaque_atom,
    rs_product,
    sym_atom,
)


G = standard_group()
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
    V = VirtualRep.build([(char_atom(G.one()), 6)])
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
    names = list(G.generators)
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
        (char_atom(G.one()), 2),
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
        VirtualRep.of(char_atom(G.one()))
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
        + VirtualRep.of(char_atom(G.one()))
    )
    names = " ".join(self_dual_abelian_entries(V, hyp))
    assert "eta_pi" in names
    assert "chi" not in names  # order of chi undeclared
