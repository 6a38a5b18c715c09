"""Pole-order bookkeeping at the edge point."""

import itertools
import random

import pytest

from lfcheck import chargroup as G
from lfcheck.casebook import CASES
from lfcheck.poles import (
    MAYBE,
    ONE,
    ZERO,
    PoleError,
    PoleInterval,
    cuspidality,
    isobaric_pair_pole,
    pole_order,
    self_dual_abelian_entries,
)
from lfcheck.decompose import Hypotheses, _decompose_atom, decompose_under
from lfcheck.exprlang import SYM_MAX, parse_expr
from lfcheck.repalg import (
    OPAQUE,
    GL2Type,
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


# Sym^1 to Sym^6 of a base of each shape; every higher power reads as Sym^6
CUSPIDALITY = {
    GL2Type.DIHEDRAL: "YNNNNN",
    GL2Type.TETRAHEDRAL: "YYNNNN",
    GL2Type.OCTAHEDRAL: "YYYNNN",
    GL2Type.GENERAL: "YYYYNN",
}


def test_cuspidality_taxonomy():
    read = {"Y": True, "N": False}
    for t, other in itertools.product(GL2Type, repeat=2):
        for base, hyp in (("pi", Hypotheses(t, other)), ("pi'", Hypotheses(other, t))):
            # the other base's standard L-function, cuspidal under every shape
            partner = VirtualRep.of(sym_atom("pi" if base == "pi'" else "pi'", 1))
            for m in range(1, SYM_MAX + 1):
                atom = sym_atom(base, m, chi)
                want = read[CUSPIDALITY[t][min(m, 6) - 1]]
                assert cuspidality(atom, hyp) is want, (base, m, hyp)
                # the ledger decides each power, alone or as a pair member:
                # entire or refused, and never widened to [0, 1]
                alone = VirtualRep.of(atom)
                for V in (alone, rs_product(partner, alone)):
                    if want:
                        assert pole_order(V, hyp)[0] == ZERO, (V, hyp)
                    else:
                        with pytest.raises(PoleError, match="not known to be cuspidal"):
                            pole_order(V, hyp)
            # a character is cuspidal on GL(1)
            assert cuspidality(char_atom(chi), hyp) is True


def test_non_cuspidal_input_rejected():
    hypT = Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.GENERAL)
    V = VirtualRep.of(sym_atom("pi", 4, G.gen("om_pi", -2)))
    with pytest.raises(PoleError, match="^Sym\\^4\\(pi\\) tw om_pi\\^-2 is not known"):
        pole_order(V, hypT)
    # after decomposition the ledger goes through
    iv, _ = pole_order(decompose_under(V, hypT), hypT)
    assert iv == ZERO


def test_every_rewritten_atom_is_non_cuspidal():
    # the ledger refuses undecomposed input through cuspidality alone, so
    # every atom the declared shapes rewrite must read False there
    atoms = [char_atom(chi), *(opaque_atom(label) for label in OPAQUE)]
    atoms += [sym_atom(b, m, chi) for b in ("pi", "pi'") for m in range(1, 7)]
    rewritten = 0
    for t1, t2 in itertools.product(GL2Type, repeat=2):
        hyp = Hypotheses(t1, t2)
        for atom in atoms:
            if _decompose_atom(atom, hyp) is not None:
                rewritten += 1
                assert cuspidality(atom, hyp) is False, (atom, hyp)
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
                    assert cuspidality(atom, hyp) is True
                    emitted.add(atom.label)
    assert emitted == set(OPAQUE)


def test_opaque_atom_of_another_shape_refused():
    for label, info in OPAQUE.items():
        op = VirtualRep.of(opaque_atom(label))
        for t in GL2Type:
            hyp = Hypotheses(t, t)
            if t is info.shape:
                assert cuspidality(opaque_atom(label), hyp) is True
                continue
            want = f"^{label} needs {info.base} to be {info.shape.value}$"
            with pytest.raises(PoleError, match=want):
                cuspidality(opaque_atom(label), hyp)
            # as a pair member too, against a standard L-function of either base
            for b in ("pi", "pi'"):
                V = rs_product(VirtualRep.of(sym_atom(b, 1)), op)
                with pytest.raises(PoleError, match=f"^{label} needs"):
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


def test_isobaric_pair_pole_refuses_a_non_cuspidal_constituent():
    # the pair rule needs cuspidal constituents: on 5.3.3's operands as
    # written, a declaration that rewrites one is refused, and any other
    # gives what the decomposed operands give
    hyps = [Hypotheses(t1, t2) for t1, t2 in itertools.product(GL2Type, repeat=2)]
    hyps += [Hypotheses(t, t, twist_equiv=True) for t in GL2Type]
    left, right = map(parse_expr, CASES["5.3.3"].pair_pole)
    refused = 0
    for hyp in hyps:
        try:
            raw = isobaric_pair_pole(left, right, hyp)
        except PoleError as err:
            assert "is not known to be cuspidal" in str(err)
            refused += 1
            continue
        dec = (decompose_under(left, hyp), decompose_under(right, hyp))
        assert raw == isobaric_pair_pole(*dec, hyp), hyp
        assert raw[0] == PoleInterval(3, 3) and hyp.type_pi is GL2Type.GENERAL
    assert refused == 15


def test_isobaric_pair_pole_of_a_dihedral_adjoint():
    # Ad(pi) of a dihedral pi is the xiF character plus ind_pi, each
    # paired with itself: the undecomposed adjoint is refused, not read [1, 1]
    hyp = Hypotheses(GL2Type.DIHEDRAL, GL2Type.DIHEDRAL)
    A = VirtualRep.of(ad_atom("pi"))
    with pytest.raises(
        PoleError, match="member Ad\\(pi\\) tw om_pi is not known to be cuspidal$"
    ):
        isobaric_pair_pole(A, A, hyp)
    D = decompose_under(A, hyp)
    assert isobaric_pair_pole(D, D, hyp)[0] == PoleInterval(0, 2)


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
