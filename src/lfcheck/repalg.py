"""Formal calculus of isobaric sums, Rankin-Selberg pairs, and twists.

Values are immutable.  A VirtualRep is a multiset of entries, each either a
RepAtom (a character, a symmetric-power atom over one of the two bases, or
one of the four opaque atoms of the degenerate shapes) or an RSPair (a
formal Rankin-Selberg pair of two atom cores with one combined twist
character).  Constructors canonicalize: same-base symmetric-power products
expand by Clebsch-Gordan, GL(1) factors collapse into twists, pair members
are sorted and the twist is pooled, and every twist is the least of its
coset modulo the twists that fix its atom (`selftwists`; for a pair, the
product of both members' groups, reduced in `_pair`).  So multiset equality
of built values is the identity test; decompose_under also reduces modulo
the declared groups.

The unramified coefficient conventions: a twist multiplies coefficients, an
isobaric sum adds them, a Rankin-Selberg pair multiplies them, and the
contragredient inverts every weight.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Union

from . import InputError
from .chargroup import ONE, FormalCharacter, gen
from .hypotheses import (
    GL2Type, Hypotheses, Tri, base_name, is_trivial, member_of
)


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
    "nu_pi": OpaqueInfo(2, "pi", GL2Type.OCTAHEDRAL, ONE, (ONE, gen("eta_pi"))),
    "nu_pi'": OpaqueInfo(2, "pi'", GL2Type.OCTAHEDRAL, ONE, (ONE, gen("eta_pi'"))),
    "ind_pi": OpaqueInfo(2, "pi", GL2Type.DIHEDRAL, gen("xiF_pi", -2)),
    "ind_pi'": OpaqueInfo(2, "pi'", GL2Type.DIHEDRAL, gen("xiF_pi'", -2)),
}


def opaque_info(label: str) -> OpaqueInfo:
    try:
        return OPAQUE[label]
    except KeyError:
        raise RepAlgError(f"unknown opaque atom {label!r}") from None


def _om(base: str) -> FormalCharacter:
    return gen(base_name("om", base))


def selftwists(
    core: RepAtom, hyp: Hypotheses | None = None
) -> tuple[FormalCharacter, ...]:
    """The characters whose twist fixes the atom, ONE first.

    An opaque atom carries its own group.  Under hyp, the adjoint of a
    tetrahedral base also has the declared {1, mu, mu^2}.  The group does
    not depend on the atom's twist.
    """
    if core.kind == "op":
        return opaque_info(core.label).selftwists
    if hyp is not None and core.kind == "sym" and core.m == 2:
        if hyp.type_of(core.base) is GL2Type.TETRAHEDRAL:
            mu = gen(base_name("mu", core.base))
            return (ONE, mu, mu * mu)
    return (ONE,)


def _canon_twist(
    twist: FormalCharacter, subgroup: tuple[FormalCharacter, ...]
) -> FormalCharacter:
    return min((twist * s for s in subgroup), key=lambda c: c.sort_key())


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
        if self.kind == "op":
            return opaque_atom(self.label, self.twist * c)
        return RepAtom(self.kind, self.base, self.m, self.label, self.twist * c)

    def core(self) -> "RepAtom":
        return RepAtom(self.kind, self.base, self.m, self.label, ONE)

    def dual(self) -> "RepAtom":
        """Contragredient; inverts the twist and the structural determinant."""
        c = self.twist.conj()
        if self.kind == "char":
            return RepAtom("char", "", 0, "", c)
        if self.kind == "sym":
            return RepAtom("sym", self.base, self.m, "", c * _om(self.base) ** (-self.m))
        return opaque_atom(self.label, c * opaque_info(self.label).dual_twist)

    def sort_key(self):
        return (0, self.kind, self.base, self.m, self.label, self.twist.exps)

    def pretty(self) -> str:
        if self.kind == "char":
            return "zeta" if self.twist.is_one else self.twist.pretty()
        if self.kind == "sym" and self.m == 2:
            shown = self.twist * _om(self.base)
            head = f"Ad({self.base})"
        else:
            shown = self.twist
            head = (
                f"Sym^{self.m}({self.base})" if self.kind == "sym" else self.label
            )
        return head if shown.is_one else f"{head} tw {shown.pretty()}"

    def __repr__(self):
        return f"<atom {self.pretty()}>"


def char_atom(c: FormalCharacter) -> RepAtom:
    return RepAtom("char", "", 0, "", c)


def sym_atom(base: str, m: int, twist: FormalCharacter | None = None) -> RepAtom:
    if base not in ("pi", "pi'"):
        raise RepAlgError(f"unknown base {base!r}")
    if m < 0:
        raise RepAlgError("negative symmetric power")
    t = twist if twist is not None else ONE
    if m == 0:
        return char_atom(t)
    return RepAtom("sym", base, m, "", t)


def opaque_atom(label: str, twist: FormalCharacter | None = None) -> RepAtom:
    core = RepAtom("op", "", 0, label, ONE)
    t = twist if twist is not None else ONE
    return core._replace(twist=_canon_twist(t, selftwists(core)))


def ad_atom(base: str, twist: FormalCharacter | None = None) -> RepAtom:
    """The adjoint: Sym^2 (x) conj(central character)."""
    t = twist if twist is not None else ONE
    return sym_atom(base, 2, t * _om(base).inv())


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
        return _pair(self.a, self.b, self.twist * c)

    def dual(self) -> "RSPair":
        da, db = self.a.dual(), self.b.dual()
        return _pair(da.core(), db.core(), self.twist.conj() * da.twist * db.twist)

    def sort_key(self):
        return (1, self.a.sort_key(), self.b.sort_key(), self.twist.exps)

    def pretty(self) -> str:
        def dress(core: RepAtom) -> tuple[str, FormalCharacter]:
            if core.kind == "sym" and core.m == 2:
                return f"Ad({core.base})", _om(core.base).inv()
            if core.kind == "sym":
                return f"Sym^{core.m}({core.base})", ONE
            return core.label, ONE

        na, ca = dress(self.a)
        nb, cb = dress(self.b)
        resid = self.twist * ca.inv() * cb.inv()
        inner = f"{na} x {nb}"
        return f"({inner})" if resid.is_one else f"({inner} tw {resid.pretty()})"

    def __repr__(self):
        return f"<pair {self.pretty()}>"


Entry = Union[RepAtom, RSPair]


def _pair(
    x: RepAtom, y: RepAtom, twist: FormalCharacter, hyp: Hypotheses | None = None
) -> RSPair:
    """The pair of two cores, its twist reduced modulo the product of the
    members' self-twist groups (declared ones too, under hyp)."""
    a, b = sorted((x, y), key=lambda k: k.sort_key())
    sub = [s * t for s in selftwists(a, hyp) for t in selftwists(b, hyp)]
    return RSPair(a, b, _canon_twist(twist, sub))


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
        om = _om(x.base)
        return [
            (sym_atom(x.base, d, t * om**r), 1) for d, r in cg_expand(x.m, y.m)
        ]
    return [(_pair(x.core(), y.core(), x.twist * y.twist), 1)]


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
        items = tuple(
            sorted(
                ((k, m) for k, m in acc.items() if m),
                key=lambda km: km[0].sort_key(),
            )
        )
        return VirtualRep(items)

    @staticmethod
    def of(*entries: Entry) -> "VirtualRep":
        return VirtualRep.build((e, 1) for e in entries)

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        return VirtualRep.build(self.entries + other.entries)

    def scale(self, n: int) -> "VirtualRep":
        if n < 0:
            raise RepAlgError("negative scale")
        return VirtualRep.build((k, m * n) for k, m in self.entries)

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
        """Signed multiset difference self minus other (zeros dropped)."""
        d = self.counter()
        d.subtract(other.counter())
        return {k: v for k, v in d.items() if v}

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


def _decompose_atom(atom: RepAtom, hyp: Hypotheses) -> list[tuple[RepAtom, int]] | None:
    if atom.kind != "sym":
        return None
    t = hyp.type_of(atom.base)
    om = _om(atom.base)
    c = atom.twist
    if atom.m == 2 and t is GL2Type.DIHEDRAL:
        return [
            (opaque_atom(base_name("ind", atom.base), c), 1),
            (char_atom(gen(base_name("xiF", atom.base)) * c), 1),
        ]
    if atom.m == 4 and t is GL2Type.TETRAHEDRAL:
        mu = gen(base_name("mu", atom.base))
        return [
            (sym_atom(atom.base, 2, c * om), 1),
            (char_atom(mu * c * om**2), 1),
            (char_atom(mu * mu * c * om**2), 1),
        ]
    if atom.m == 4 and t is GL2Type.OCTAHEDRAL:
        eta = gen(base_name("eta", atom.base))
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
        return _pair(key.a, key.b, key.twist, hyp)
    return key._replace(twist=_canon_twist(key.twist, selftwists(key, hyp)))


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
        u = x.twist * _om(x.base)
        v = y.twist * _om(y.base)
        return member_of(v * u.inv(), selftwists(sym_atom("pi", 2), hyp), hyp)
    # no multiplicity-one input is declared for higher symmetric powers
    return Tri.UNKNOWN
