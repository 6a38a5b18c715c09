"""Abelian character groups: free generators and generators of finite order.

A character is an exponent vector over a fixed generator tuple.  Each
generator either has infinite order or a declared cyclic order n, and its
exponent is kept reduced into [0, n); two characters are equal iff their
reduced vectors coincide.  All characters are unitary, so conjugation is
inversion.

>>> G = CharacterGroup(("a", "b"), orders={"b": 3})
>>> x = G.gen("a") * G.gen("b", 2)
>>> (x * G.gen("b")).exps        # b^3 = 1
(1, 0)
>>> x.inv() == G.gen("a", -1) * G.gen("b")
True
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple


class CharacterGroup:
    """Generators plus their declared finite orders (absent: infinite)."""

    def __init__(
        self,
        generators: tuple[str, ...],
        orders: Mapping[str, int] | None = None,
    ):
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator name")
        self.generators = tuple(generators)
        self.orders = dict(orders or {})
        for name, n in self.orders.items():
            if name not in self.generators or n < 1:
                raise ValueError(f"bad order declaration {name}={n}")
        # per-slot modulus, 0 for a generator of infinite order
        self._moduli = tuple(self.orders.get(g, 0) for g in self.generators)
        self._index = {g: i for i, g in enumerate(self.generators)}

    def __eq__(self, other):
        return (
            isinstance(other, CharacterGroup)
            and self.generators == other.generators
            and self._moduli == other._moduli
        )

    def __hash__(self):
        return hash((self.generators, self._moduli))

    def __repr__(self):
        return f"CharacterGroup({self.generators!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown character generator {name!r}") from None

    def make(self, exps: Iterable[int]) -> "FormalCharacter":
        vec = tuple(exps)
        if len(vec) != len(self.generators):
            raise ValueError("exponent vector of wrong length")
        return FormalCharacter(
            self, tuple(e % n if n else e for e, n in zip(vec, self._moduli))
        )

    def one(self) -> "FormalCharacter":
        return self.make((0,) * len(self.generators))

    def gen(self, name: str, e: int = 1) -> "FormalCharacter":
        vec = [0] * len(self.generators)
        vec[self.index(name)] = e
        return self.make(vec)

    def from_dict(self, d: Mapping[str, int]) -> "FormalCharacter":
        vec = [0] * len(self.generators)
        for name, e in d.items():
            vec[self.index(name)] += e
        return self.make(vec)


class FormalCharacter(NamedTuple):
    """Canonical coset representative of a character word."""

    group: CharacterGroup
    exps: tuple[int, ...]

    def __mul__(self, other: "FormalCharacter") -> "FormalCharacter":
        if self.group != other.group:
            raise ValueError("characters from different groups")
        return self.group.make(a + b for a, b in zip(self.exps, other.exps))

    def __pow__(self, n: int) -> "FormalCharacter":
        return self.group.make(n * a for a in self.exps)

    def inv(self) -> "FormalCharacter":
        return self.group.make(-a for a in self.exps)

    # unitary: conjugation is inversion
    conj = inv

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def support(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            (g, e) for g, e in zip(self.group.generators, self.exps) if e
        )

    def substitute(self, mapping: Mapping[str, "FormalCharacter"]) -> "FormalCharacter":
        """Apply the homomorphism sending each named generator elsewhere."""
        out = self.group.one()
        for g, e in zip(self.group.generators, self.exps):
            target = mapping.get(g)
            out = out * (target ** e if target is not None else self.group.gen(g, e))
        return out

    def sort_key(self) -> tuple[int, ...]:
        return self.exps

    def pretty(self) -> str:
        parts = []
        for g, e in self.support():
            parts.append(g if e == 1 else f"{g}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"<chr {self.pretty()}>"


# Generator names of the standard group used throughout.  chi is the outer
# twist, om_* the central characters, mu_* the cubic and eta_* the quadratic
# characters attached to the two degenerate shapes, xiF_* the restriction of
# the inducing character in the dihedral shape.
STD_GENERATORS = (
    "chi",
    "om_pi",
    "om_pi'",
    "mu_pi",
    "mu_pi'",
    "eta_pi",
    "eta_pi'",
    "xiF_pi",
    "xiF_pi'",
)

STD_ORDERS = {"mu_pi": 3, "mu_pi'": 3, "eta_pi": 2, "eta_pi'": 2}

_STD: CharacterGroup | None = None


def standard_group() -> CharacterGroup:
    """The shared character group for the two-form setting."""
    global _STD
    if _STD is None:
        _STD = CharacterGroup(STD_GENERATORS, orders=STD_ORDERS)
    return _STD
