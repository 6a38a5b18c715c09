"""Declared hypothesis sets and the three-valued facts derivable from them.

The engine never infers cuspidality or character nontriviality: everything
comes from an explicit, serializable Hypotheses value.  Answers that the
declarations do not settle are UNKNOWN, and the pole bookkeeping widens
accordingly.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import NamedTuple

from .chargroup import STD_ORDERS, FormalCharacter, gen


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class GL2Type(enum.Enum):
    """Degeneracy shape of a degree-two form, in the usual polyhedral names."""

    DIHEDRAL = "dihedral"          # Ad non-cuspidal
    TETRAHEDRAL = "tetrahedral"    # Ad cuspidal, Sym^3 non-cuspidal
    OCTAHEDRAL = "octahedral"      # Sym^3 cuspidal, Sym^4 non-cuspidal
    GENERAL = "general"            # Sym^3 and Sym^4 cuspidal


BASES = ("pi", "pi'")


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


def base_name(stem: str, base: str) -> str:
    """The name of the generator or opaque atom `stem` over `base`: mu_pi
    over pi and mu_pi' over pi'."""
    return f"{stem}_{base}"


class BaseGens(NamedTuple):
    """The character generators over one base: its central character om,
    and the mu, eta and xiF that its tetrahedral, octahedral and dihedral
    shapes introduce."""

    om: FormalCharacter
    mu: FormalCharacter
    eta: FormalCharacter
    xiF: FormalCharacter


# the generators of each base, built once
GENS = {
    base: BaseGens(*(gen(base_name(stem, base)) for stem in BaseGens._fields))
    for base in BASES
}


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


def classify(hyp: Hypotheses) -> str:
    """Map a hypothesis set to the unique ledger case id covering it."""
    t1, t2 = hyp.type_pi, hyp.type_pi2
    dih = (t1 is GL2Type.DIHEDRAL, t2 is GL2Type.DIHEDRAL)
    if all(dih):
        return "5.1"
    if any(dih):
        return "5.2"
    if hyp.twist_equiv:
        return {
            GL2Type.TETRAHEDRAL: "5.3.1",
            GL2Type.OCTAHEDRAL: "5.3.2",
            GL2Type.GENERAL: "5.3.3",
        }[t1]
    pair = frozenset((t1, t2))
    T, O, G = GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL, GL2Type.GENERAL
    table = {
        frozenset((T,)): "4.1",
        frozenset((T, O)): "4.2",
        frozenset((O,)): "4.3",
        frozenset((G, T)): "4.4.1",
        frozenset((G, O)): "4.4.2",
        frozenset((G,)): "4.4.3",
    }
    return table[pair]
