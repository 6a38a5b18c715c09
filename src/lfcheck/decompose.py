"""What the declared shapes decide about formal values: the three-valued
facts about characters (`is_trivial`, `member_of`), `decompose_under`,
which rewrites every atom the hypotheses make degenerate into its declared
pieces, and `atom_equal`, which decides as far as the declarations allow
whether two atoms are the same automorphic representation.

The constructors of `repalg` canonicalize without hypotheses; this module
is their declared-data layer.  Answers the declarations do not settle are
UNKNOWN, and the pole bookkeeping widens accordingly.  `poles` and
`casebook` run it; `expand`, `scan` and `verify sos` never load it.
"""

from __future__ import annotations

import enum

from .chargroup import STD_ORDERS, FormalCharacter
from .hypotheses import BASES, GENS, GL2Type, Hypotheses, base_name
from .repalg import (
    Entry,
    RepAtom,
    RSPair,
    VirtualRep,
    canon_twist,
    char_atom,
    opaque_atom,
    rs_pair,
    rs_product,
    selftwists,
    sym_atom,
)


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def nontrivial_gens(hyp: Hypotheses) -> frozenset[str]:
    """Generators the hypothesis set declares nontrivial."""
    out = set()
    for base in BASES:
        t = hyp.type_of(base)
        if t is GL2Type.TETRAHEDRAL:
            out.add(base_name("mu", base))
        elif t is GL2Type.OCTAHEDRAL:
            out.add(base_name("eta", base))
    return frozenset(out)


_PRIME_ORDERS = {2, 3}


def is_trivial(c: FormalCharacter, hyp: Hypotheses) -> Tri:
    """Is the character provably trivial / provably nontrivial / unknown?

    Sound rules only: the zero vector is trivial; a word supported on a single
    generator of declared prime order that the hypotheses declare nontrivial
    is nontrivial (the cyclic group it generates has prime order, so every
    nonzero power is nontrivial).  Everything else is UNKNOWN -- in
    particular words in chi or the central characters, and cross-products
    like mu_pi * mu_pi' that could collapse for particular forms.
    """
    supp = c.support()
    if not supp:
        return Tri.YES
    if len(supp) == 1:
        g, _e = supp[0]
        n = STD_ORDERS.get(g)
        if n in _PRIME_ORDERS and g in nontrivial_gens(hyp):
            return Tri.NO
    return Tri.UNKNOWN


def member_of(
    c: FormalCharacter, elems: tuple[FormalCharacter, ...], hyp: Hypotheses
) -> Tri:
    """Three-valued membership of c in a finite declared character set."""
    found = {is_trivial(c * s.inv(), hyp) for s in elems}
    if Tri.YES in found:
        return Tri.YES
    return Tri.UNKNOWN if Tri.UNKNOWN in found else Tri.NO




def _decompose_atom(atom: RepAtom, hyp: Hypotheses) -> list[tuple[RepAtom, int]] | None:
    if atom.kind != "sym":
        return None
    t = hyp.type_of(atom.base)
    om = GENS[atom.base].om
    c = atom.twist
    if atom.m == 2 and t is GL2Type.DIHEDRAL:
        return [
            (opaque_atom(base_name("ind", atom.base), c), 1),
            (char_atom(GENS[atom.base].xiF * c), 1),
        ]
    if atom.m == 4 and t is GL2Type.TETRAHEDRAL:
        mu = GENS[atom.base].mu
        return [
            (sym_atom(atom.base, 2, c * om), 1),
            (char_atom(mu * c * om**2), 1),
            (char_atom(mu * mu * c * om**2), 1),
        ]
    if atom.m == 4 and t is GL2Type.OCTAHEDRAL:
        eta = GENS[atom.base].eta
        return [
            (opaque_atom(base_name("nu", atom.base), c * om**2), 1),
            (sym_atom(atom.base, 2, eta * c * om), 1),
        ]
    return None


def _decompose_entry(
    key: Entry, hyp: Hypotheses
) -> list[tuple[Entry, int]] | None:
    if isinstance(key, RepAtom):
        return _decompose_atom(key, hyp)
    da = _decompose_atom(key.a, hyp)
    db = _decompose_atom(key.b.twisted(key.twist), hyp)
    if da is None and db is None:
        return None
    left = VirtualRep.build(da or [(key.a, 1)])
    right = VirtualRep.build(db or [(key.b.twisted(key.twist), 1)])
    return list(rs_product(left, right).entries)


def _hyp_canon(key: Entry, hyp: Hypotheses) -> Entry:
    if isinstance(key, RSPair):
        return rs_pair(key.a, key.b, key.twist, hyp)
    return key._replace(twist=canon_twist(key.twist, selftwists(key, hyp)))


def decompose_under(V: VirtualRep, hyp: Hypotheses) -> VirtualRep:
    """Rewrite to the declared decomposition of every degenerate atom, then
    canonicalize twists modulo the declared self-twist subgroups."""
    entries = list(V.entries)
    while True:
        changed = False
        out: list[tuple[Entry, int]] = []
        for key, mult in entries:
            dec = _decompose_entry(key, hyp)
            if dec is None:
                out.append((key, mult))
            else:
                changed = True
                out.extend((k, m * mult) for k, m in dec)
        entries = out
        if not changed:
            break
    return VirtualRep.build((_hyp_canon(k, hyp), m) for k, m in entries)


def atom_equal(x: RepAtom, y: RepAtom, hyp: Hypotheses) -> Tri:
    """Three-valued equality of atoms as automorphic representations.

    Decisions use only declared data: degrees, the character orders, the
    declared self-twist sets, and (for cross-base adjoints) the chain
    pole => cubic central-character match => common self-twist => adjoint
    multiplicity one, which makes cross-base adjoint atoms unequal whenever
    the forms are declared twist-inequivalent.
    """
    if x == y:
        return Tri.YES
    if x.degree != y.degree:
        return Tri.NO
    if x.kind == "char" and y.kind == "char":
        return is_trivial(x.twist * y.twist.inv(), hyp)
    if x.kind != y.kind:
        return Tri.UNKNOWN
    if x.kind == "op":
        if x.label != y.label:
            return Tri.UNKNOWN
        return member_of(y.twist * x.twist.inv(), selftwists(x), hyp)
    # symmetric-power atoms of equal degree
    if x.m != y.m:
        return Tri.UNKNOWN
    if x.base == y.base:
        xi = y.twist * x.twist.inv()
        if x.m == 2:
            return member_of(xi, selftwists(x, hyp), hyp)
        if xi.is_one:
            return Tri.YES
        if x.m == 4 and is_trivial(xi**5, hyp) is Tri.NO:
            # a self-twist of a degree-five atom is quintic
            return Tri.NO
        return Tri.UNKNOWN
    # distinct bases
    if x.m == 1:
        # equality would make the bases twist-equivalent
        return Tri.UNKNOWN if hyp.twist_equiv else Tri.NO
    if x.m == 2:
        if not hyp.twist_equiv:
            return Tri.NO
        # adjoints coincide; compare as same-base atoms over pi
        u = x.twist * GENS[x.base].om
        v = y.twist * GENS[y.base].om
        return member_of(v * u.inv(), selftwists(sym_atom("pi", 2), hyp), hyp)
    # no multiplicity-one input is declared for higher symmetric powers
    return Tri.UNKNOWN
