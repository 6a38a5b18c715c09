"""The character group of the two-form setting, with exact arithmetic.

Every character lfcheck handles is a word in nine fixed generators
(STD_GENERATORS), each but chi one of the STEMS over one of the two
BASES: the outer twist chi, the central characters om_*, the
cubic characters mu_* and quadratic characters eta_* of the two degenerate
shapes, and the restrictions xiF_* of the inducing character in the
dihedral shape.  A character is its exponent vector over them.  mu_* and
eta_* have the orders in STD_ORDERS and their exponents are kept reduced
into [0, n); the others are free.  Two characters are equal iff their
reduced vectors coincide.  This module is the only code that reduces
exponents: satake copies them into polynomial keys as they are.  All
characters are unitary, so conjugation is inversion.

>>> x = gen("chi") * gen("mu_pi", 2)
>>> (x * gen("mu_pi")).pretty()        # mu_pi^3 = 1
'chi'
>>> x.inv() == gen("chi", -1) * gen("mu_pi")
True
>>> from_dict({"eta_pi": 3, "om_pi": 0}) == gen("eta_pi")
True
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

BASES = ("pi", "pi'")

# the stems of the generators over each base, in generator order, with the
# order of each finite one (0 for free): the central character om, the
# cubic mu and quadratic eta of the tetrahedral and octahedral shapes, and
# the xiF of the dihedral one
STEMS = {"om": 0, "mu": 3, "eta": 2, "xiF": 0}


def base_name(stem: str, base: str) -> str:
    """The name of the generator or opaque atom `stem` over `base`: mu_pi
    over pi and mu_pi' over pi'."""
    return f"{stem}_{base}"


STD_GENERATORS = ("chi", *(base_name(s, b) for s in STEMS for b in BASES))

STD_ORDERS = {base_name(s, b): n for s, n in STEMS.items() if n for b in BASES}

_INDEX = {g: i for i, g in enumerate(STD_GENERATORS)}
# the slots that can wrap, with their orders; every other exponent is free
_FINITE = tuple((_INDEX[g], n) for g, n in STD_ORDERS.items())


def _reduced(vec: list[int]) -> "FormalCharacter":
    for i, n in _FINITE:
        vec[i] %= n
    return FormalCharacter(tuple(vec))


class FormalCharacter(NamedTuple):
    """Canonical coset representative of a character word."""

    exps: tuple[int, ...]

    def __mul__(self, other: "FormalCharacter") -> "FormalCharacter":
        return _reduced([a + b for a, b in zip(self.exps, other.exps)])

    def __pow__(self, n: int) -> "FormalCharacter":
        return _reduced([n * a for a in self.exps])

    def inv(self) -> "FormalCharacter":
        return _reduced([-a for a in self.exps])

    # unitary: conjugation is inversion
    conj = inv

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def support(self) -> tuple[tuple[str, int], ...]:
        return tuple((g, e) for g, e in zip(STD_GENERATORS, self.exps) if e)

    def pretty(self) -> str:
        parts = []
        for g, e in self.support():
            parts.append(g if e == 1 else f"{g}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"<chr {self.pretty()}>"


ONE = FormalCharacter((0,) * len(STD_GENERATORS))


def index(name: str) -> int:
    try:
        return _INDEX[name]
    except KeyError:
        raise KeyError(f"unknown character generator {name!r}") from None


def gen(name: str, e: int = 1) -> FormalCharacter:
    vec = [0] * len(STD_GENERATORS)
    vec[index(name)] = e
    return _reduced(vec)


def from_dict(d: Mapping[str, int]) -> FormalCharacter:
    vec = [0] * len(STD_GENERATORS)
    for name, e in d.items():
        vec[index(name)] += e
    return _reduced(vec)


# the generators over each base, built once, a field per stem
BaseGens = NamedTuple("BaseGens", [(s, FormalCharacter) for s in STEMS])
GENS = {b: BaseGens(*(gen(base_name(s, b)) for s in STEMS)) for b in BASES}
