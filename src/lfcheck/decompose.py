"""What the declared shapes decide about formal values.  A `Hypotheses`
value declares each base's shape and whether the forms are twist-equivalent;
nothing is inferred.  From it come the three-valued facts about characters
(`is_trivial`, `member_of`), `declared_selftwists`, the only code that
widens a self-twist group because of a declared shape, `decompose_under`,
which rewrites every atom the hypotheses make degenerate into its declared
pieces and reduces each twist by `repalg.reduced` modulo those groups, and
`atom_equal`, which decides as far as the declarations allow whether two
atoms are the same automorphic representation.

The constructors of `repalg` canonicalize without hypotheses.  Answers the
declarations do not settle are UNKNOWN, and the pole bookkeeping widens
accordingly.  `poles` and `casebook` run it; `expand`, `scan` and
`verify sos` never load it.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .chargroup import BASES, GENS, ONE, FormalCharacter, base_name
from .repalg import (
    Entry,
    GL2Type,
    RepAtom,
    VirtualRep,
    char_atom,
    opaque_atom,
    reduced,
    rs_product,
    selftwists,
    sym_atom,
)


class Hypotheses(namedtuple("Hypotheses", "type_pi type_pi2 twist_equiv")):
    __slots__ = ()

    def __new__(cls, type_pi: GL2Type, type_pi2: GL2Type, twist_equiv: bool = False):
        if twist_equiv and type_pi != type_pi2:
            raise ValueError("twist-equivalent forms must share a type")
        return super().__new__(cls, type_pi, type_pi2, twist_equiv)

    def type_of(self, base: str) -> GL2Type:
        if base not in BASES:
            raise KeyError(f"unknown base {base!r}")
        return self[BASES.index(base)]


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


# the stem each shape declares nontrivial over its base.  Both have prime
# order in `chargroup.STEMS` (mu 3, eta 2), so the cyclic group one
# generates has prime order and every nonzero power of it is nontrivial.
_NONTRIVIAL_STEM = {GL2Type.TETRAHEDRAL: "mu", GL2Type.OCTAHEDRAL: "eta"}


def is_trivial(c: FormalCharacter, hyp: Hypotheses) -> Tri:
    """Is the character provably trivial / provably nontrivial / unknown?

    Sound rules only: the zero vector is trivial; a word supported on a single
    generator that the declared shapes make nontrivial (`_NONTRIVIAL_STEM`)
    is nontrivial.  Everything else is UNKNOWN -- in particular words in chi
    or the central characters, and cross-products like mu_pi * mu_pi' that
    could collapse for particular forms.
    """
    supp = c.support()
    if not supp:
        return Tri.YES
    if len(supp) == 1:
        g = supp[0][0]
        for base in BASES:
            stem = _NONTRIVIAL_STEM.get(hyp.type_of(base))
            if stem and g == base_name(stem, base):
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


def _decompose_entry(key: Entry, hyp: Hypotheses) -> list[tuple[Entry, int]]:
    """The declared pieces of one entry; an entry no rule rewrites is its own."""
    if isinstance(key, RepAtom):
        return _decompose_atom(key, hyp) or [(key, 1)]
    da = _decompose_atom(key.a, hyp)
    db = _decompose_atom(key.b.twisted(key.twist), hyp)
    if da is None and db is None:
        return [(key, 1)]
    left = VirtualRep.build(da or [(key.a, 1)])
    right = VirtualRep.build(db or [(key.b.twisted(key.twist), 1)])
    return list(rs_product(left, right).entries)


def declared_selftwists(core: RepAtom, hyp: Hypotheses) -> tuple[FormalCharacter, ...]:
    """`repalg.selftwists` widened by the declarations: the adjoint of a
    tetrahedral base also has {1, mu, mu^2}."""
    if core.kind == "sym" and core.m == 2:
        if hyp.type_of(core.base) is GL2Type.TETRAHEDRAL:
            mu = GENS[core.base].mu
            return (ONE, mu, mu * mu)
    return selftwists(core)


def decompose_under(V: VirtualRep, hyp: Hypotheses) -> VirtualRep:
    """Rewrite to the declared decomposition of every degenerate atom, then
    canonicalize twists modulo the declared self-twist subgroups.  One pass
    suffices: no rule's pieces, nor a pair of them, rewrite again."""
    return VirtualRep.build(
        (reduced(k, lambda core: declared_selftwists(core, hyp)), m * mult)
        for key, mult in V.entries
        for k, m in _decompose_entry(key, hyp)
    )


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
        return member_of(y.twist * x.twist.inv(), declared_selftwists(x, hyp), hyp)
    # symmetric-power atoms of equal degree, so of equal m
    if x.base == y.base:
        xi = y.twist * x.twist.inv()
        if x.m == 2:
            return member_of(xi, declared_selftwists(x, hyp), hyp)
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
        return member_of(v * u.inv(), declared_selftwists(sym_atom("pi", 2), hyp), hyp)
    # no multiplicity-one input is declared for higher symmetric powers
    return Tri.UNKNOWN
