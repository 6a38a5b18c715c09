"""Formal calculus of isobaric sums, Rankin-Selberg pairs, and twists.

Values are immutable.  A VirtualRep is a multiset of entries, each either a
RepAtom (a character, a symmetric-power atom over one of the two bases, or
one of the four opaque atoms of the degenerate shapes) or an RSPair (a
formal Rankin-Selberg pair of two atom cores with one combined twist
character).  Constructors canonicalize: same-base symmetric-power products
expand by Clebsch-Gordan, GL(1) factors collapse into twists, pair members
are sorted and the twist is pooled, and `reduced`, the only code that
reduces a stored twist, makes it the least of its coset modulo the twists
that fix the entry (`selftwists` of an atom; for a pair, the products of
both members' groups).  So multiset equality of built values is the
identity test.  No constructor reads a declaration;
`decompose.decompose_under` calls `reduced` with the groups the declared
shapes widen.  GL2Type names those shapes, and each opaque atom records the
one its base must have.

The unramified coefficient conventions: a twist multiplies coefficients, an
isobaric sum adds them, a Rankin-Selberg pair multiplies them, and the
contragredient inverts every weight.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Iterable, NamedTuple, Union

from . import InputError
from .chargroup import BASES, GENS, ONE, FormalCharacter, base_name


class GL2Type(enum.Enum):
    """Degeneracy shape of a degree-two form, in the usual polyhedral names."""

    DIHEDRAL = "dihedral"
    TETRAHEDRAL = "tetrahedral"
    OCTAHEDRAL = "octahedral"
    GENERAL = "general"


class RepAlgError(InputError):
    pass


class PairOperandError(RepAlgError):
    """Raised when a Rankin-Selberg product is asked of a non-isobaric value."""


class OpaqueInfo(NamedTuple):
    degree: int
    # the base the atom lives over, and the shape that base must have
    base: str
    shape: GL2Type
    # the extra twist picked up under contragredient; ONE means self-dual
    dual_twist: FormalCharacter
    # the characters whose twist fixes the atom, ONE first
    selftwists: tuple[FormalCharacter, ...] = (ONE,)


# nu is the dihedral summand of the octahedral Sym^4: self-dual, with
# central character eta and eta itself a self-twist.  ind is the induced
# square in the dihedral shape; Ind(theta)~ = Ind(theta) (x) conj(theta|_F).
OPAQUE: dict[str, OpaqueInfo] = {
    name: info
    for b, g in GENS.items()
    for name, info in (
        (base_name("nu", b), OpaqueInfo(2, b, GL2Type.OCTAHEDRAL, ONE, (ONE, g.eta))),
        (base_name("ind", b), OpaqueInfo(2, b, GL2Type.DIHEDRAL, g.xiF ** -2)),
    )
}


def opaque_info(label: str) -> OpaqueInfo:
    try:
        return OPAQUE[label]
    except KeyError:
        raise RepAlgError(f"unknown opaque atom {label!r}") from None


def selftwists(core: RepAtom) -> tuple[FormalCharacter, ...]:
    """The characters whose twist fixes the atom without any declaration,
    ONE first: an opaque atom carries its own group, every other atom has
    the trivial one.  The group does not depend on the atom's twist."""
    if core.kind == "op":
        return opaque_info(core.label).selftwists
    return (ONE,)


class RepAtom(NamedTuple):
    kind: str  # "char" | "sym" | "op"
    base: str  # "" for char atoms
    m: int     # symmetric power; 0 except for kind == "sym"
    label: str  # "" except for kind == "op"
    twist: FormalCharacter

    @property
    def degree(self) -> int:
        if self.kind == "char":
            return 1
        if self.kind == "sym":
            return self.m + 1
        return opaque_info(self.label).degree

    def twisted(self, c: FormalCharacter) -> "RepAtom":
        if c.is_one:
            return self
        return reduced(self._replace(twist=self.twist * c))

    def core(self) -> "RepAtom":
        return RepAtom(self.kind, self.base, self.m, self.label, ONE)

    def dual(self) -> "RepAtom":
        """Contragredient; inverts the twist and the structural determinant."""
        if self.kind == "sym":
            shift = GENS[self.base].om ** (-self.m)
        elif self.kind == "op":
            shift = opaque_info(self.label).dual_twist
        else:
            shift = ONE
        return reduced(self._replace(twist=self.twist.conj() * shift))

    def head(self) -> tuple[str, FormalCharacter]:
        """The name a non-character atom is shown under, and the shift from
        its stored twist to the shown one: Sym^2 tw om^-1 shows as Ad."""
        if self.kind == "sym" and self.m == 2:
            return f"Ad({self.base})", GENS[self.base].om
        if self.kind == "sym":
            return f"Sym^{self.m}({self.base})", ONE
        return self.label, ONE

    def pretty(self) -> str:
        if self.kind == "char":
            return "zeta" if self.twist.is_one else self.twist.pretty()
        head, shift = self.head()
        shown = self.twist * shift
        return head if shown.is_one else f"{head} tw {shown.pretty()}"

    def __repr__(self):
        return f"<atom {self.pretty()}>"


def char_atom(c: FormalCharacter) -> RepAtom:
    return RepAtom("char", "", 0, "", c)


def sym_atom(base: str, m: int, twist: FormalCharacter | None = None) -> RepAtom:
    if base not in BASES:
        raise RepAlgError(f"unknown base {base!r}")
    if m < 0:
        raise RepAlgError("negative symmetric power")
    t = twist if twist is not None else ONE
    if m == 0:
        return char_atom(t)
    return RepAtom("sym", base, m, "", t)


def opaque_atom(label: str, twist: FormalCharacter | None = None) -> RepAtom:
    t = twist if twist is not None else ONE
    return reduced(RepAtom("op", "", 0, label, t))


def ad_atom(base: str, twist: FormalCharacter | None = None) -> RepAtom:
    """The adjoint: Sym^2 (x) conj(central character)."""
    t = twist if twist is not None else ONE
    return sym_atom(base, 2, t * GENS[base].om.inv())


class RSPair(NamedTuple):
    """Formal Rankin-Selberg pair: two twist-free cores, one pooled twist.

    Unramified coefficients only see the product of the two member
    coefficients times the combined twist value, so the pair is stored
    unordered with the twist pooled; this makes the two groupings of any
    display the same canonical object.
    """

    a: RepAtom
    b: RepAtom
    twist: FormalCharacter

    @property
    def degree(self) -> int:
        return self.a.degree * self.b.degree

    def twisted(self, c: FormalCharacter) -> "RSPair":
        return reduced(self._replace(twist=self.twist * c))

    def dual(self) -> "RSPair":
        """The members are cores, so dualizing moves only the pooled twist."""
        shift = self.a.dual().twist * self.b.dual().twist
        return reduced(self._replace(twist=self.twist.conj() * shift))

    def pretty(self) -> str:
        na, sa = self.a.head()
        nb, sb = self.b.head()
        resid = self.twist * sa * sb
        inner = f"{na} x {nb}"
        return f"({inner})" if resid.is_one else f"({inner} tw {resid.pretty()})"

    def __repr__(self):
        return f"<pair {self.pretty()}>"


Entry = Union[RepAtom, RSPair]


def reduced(key: Entry, groups=selftwists) -> Entry:
    """The entry with its twist the least of its coset modulo the entry's
    self-twist group: `groups(key)` for an atom, and for a pair every
    product of a group of one member with a group of the other."""
    if isinstance(key, RSPair):
        group = [s * t for s in groups(key.a) for t in groups(key.b)]
    else:
        group = groups(key)
    return key._replace(twist=min(key.twist * s for s in group))


def _in_order(pairs: Iterable[tuple[Entry, int]]) -> list[tuple[Entry, int]]:
    """(entry, multiplicity) pairs in the order of entries: atoms before
    pairs, and each kind by its fields in turn."""
    return sorted(pairs, key=lambda km: (isinstance(km[0], RSPair), km[0]))


def rs_pair(x: RepAtom, y: RepAtom, twist: FormalCharacter) -> RSPair:
    """The pair of two cores, sorted, its twist reduced."""
    a, b = sorted((x, y))
    return reduced(RSPair(a, b, twist))


def cg_expand(j: int, k: int) -> list[tuple[int, int]]:
    """Clebsch-Gordan for Sym^j (x) Sym^k over one base.

    Returns (degree, determinant-power) tags: the product is the isobaric
    sum of Sym^{j+k-2r} twisted by the r-th power of the central character,
    r = 0..min(j, k).

    >>> cg_expand(2, 2)
    [(4, 0), (2, 1), (0, 2)]
    """
    if j < 0 or k < 0:
        raise RepAlgError("negative symmetric power")
    return [(j + k - 2 * r, r) for r in range(min(j, k) + 1)]


def plethysm_sym2(m: int) -> list[tuple[int, int]]:
    """Decompose the symmetric square of Sym^m into (degree, det-power) tags.

    Peels weight strings off the multiset {j+k : 0 <= j <= k <= m}.

    >>> plethysm_sym2(3)
    [(6, 0), (2, 2)]
    """
    M = Counter(j + k for j in range(m + 1) for k in range(j, m + 1))
    out: list[tuple[int, int]] = []
    while M:
        a = max(M)
        lo = 2 * m - a
        for v in range(lo, a + 1):
            M[v] -= 1
            if M[v] == 0:
                del M[v]
            elif M[v] < 0:
                raise RepAlgError("weight multiset is not a union of strings")
        out.append((2 * a - 2 * m, 2 * m - a))
    return out


def _rs_atoms(x: RepAtom, y: RepAtom) -> list[tuple[Entry, int]]:
    if x.kind == "char" and y.kind == "char":
        return [(char_atom(x.twist * y.twist), 1)]
    if x.kind == "char":
        return [(y.twisted(x.twist), 1)]
    if y.kind == "char":
        return [(x.twisted(y.twist), 1)]
    if x.kind == "sym" and y.kind == "sym" and x.base == y.base:
        t = x.twist * y.twist
        om = GENS[x.base].om
        return [
            (sym_atom(x.base, d, t * om**r), 1) for d, r in cg_expand(x.m, y.m)
        ]
    return [(rs_pair(x.core(), y.core(), x.twist * y.twist), 1)]


class VirtualRep(NamedTuple):
    """Multiset of entries with nonnegative integer multiplicities."""

    entries: tuple[tuple[Entry, int], ...]

    @staticmethod
    def build(pairs: Iterable[tuple[Entry, int]]) -> "VirtualRep":
        acc: Counter = Counter()
        for key, mult in pairs:
            acc[key] += mult
        for key, mult in acc.items():
            if mult < 0:
                raise RepAlgError(f"negative multiplicity for {key!r}")
        return VirtualRep(tuple(_in_order((k, m) for k, m in acc.items() if m)))

    @staticmethod
    def of(*entries: Entry) -> "VirtualRep":
        return VirtualRep.build((e, 1) for e in entries)

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        return VirtualRep.build(self.entries + other.entries)

    @property
    def degree(self) -> int:
        return sum(k.degree * m for k, m in self.entries)

    def counter(self) -> Counter:
        return Counter(dict(self.entries))

    def is_isobaric(self) -> bool:
        return all(isinstance(k, RepAtom) for k, _m in self.entries)

    def dual(self) -> "VirtualRep":
        return VirtualRep.build((k.dual(), m) for k, m in self.entries)

    def twisted(self, c: FormalCharacter) -> "VirtualRep":
        return VirtualRep.build((k.twisted(c), m) for k, m in self.entries)

    def delta(self, other: "VirtualRep") -> dict[Entry, int]:
        """Signed multiset difference self minus other (zeros dropped), in
        the order of entries."""
        d = self.counter()
        d.subtract(other.counter())
        return dict(_in_order((k, v) for k, v in d.items() if v))

    def pretty_lines(self) -> list[str]:
        return [f"{m} * {k.pretty()}" for k, m in self.entries]

    def __repr__(self):
        inner = " + ".join(self.pretty_lines()) or "0"
        return f"<vrep {inner}>"


def rs_product(A: VirtualRep, B: VirtualRep) -> VirtualRep:
    """Rankin-Selberg product of two isobaric values (bilinear over entries)."""
    for V in (A, B):
        if not V.is_isobaric():
            raise PairOperandError(
                "rs_product operands must be isobaric (no nested pairs)"
            )
    out: list[tuple[Entry, int]] = []
    for ka, ma in A.entries:
        for kb, mb in B.entries:
            for key, mult in _rs_atoms(ka, kb):
                out.append((key, mult * ma * mb))
    return VirtualRep.build(out)
