"""Declared hypothesis sets: the shape of each base and whether the two
forms are twist-equivalent, with the character generators those shapes
introduce.

The engine never infers cuspidality or character nontriviality: everything
comes from an explicit, serializable Hypotheses value.  The three-valued
facts the declarations settle are `decompose`'s.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import NamedTuple

from .chargroup import FormalCharacter, gen


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
