"""Pole-order bookkeeping at s = 1 for products of standard and
Rankin-Selberg L-functions of cuspidal data.

Both ledgers, `pole_order` and `isobaric_pair_pole`, take fully decomposed
values and share one pair rule, `_pair_pole`.  `cuspidality` decides each
atom, and a factor or pair member that is not known to be cuspidal under
the declared shapes is refused.  For cuspidal data: a trivial character
contributes a simple pole, any other standard L-function none, and a pair a
simple pole exactly when its second member is the contragredient of the
first (Jacquet-Shalika).  Three-valued answers about character triviality
and dual matching propagate to interval bounds [lo, hi].
"""

from __future__ import annotations

from collections import namedtuple

from . import InputError
from .decompose import Hypotheses, Tri, atom_equal, is_trivial
from .repalg import Entry, GL2Type, RepAtom, RSPair, VirtualRep, opaque_info


class PoleError(InputError):
    pass


class PoleInterval(namedtuple("PoleInterval", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if not (0 <= lo <= hi):
            raise PoleError(f"bad pole interval [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    def __add__(self, other: "PoleInterval") -> "PoleInterval":
        return PoleInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, n: int) -> "PoleInterval":
        return PoleInterval(self.lo * n, self.hi * n)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


ZERO = PoleInterval(0, 0)
ONE = PoleInterval(1, 1)
MAYBE = PoleInterval(0, 1)

# the least symmetric power of a base of each shape that is not known to be
# cuspidal.  Below it, cuspidality is a theorem: Gelbart-Jacquet for Sym^2,
# Kim-Shahidi for Sym^3 and Sym^4.  Every power at or past it is refused: a
# finite image makes it non-cuspidal, and for `general` it is not known to be
# automorphic.
FIRST_NONCUSPIDAL = {
    GL2Type.DIHEDRAL: 2,
    GL2Type.TETRAHEDRAL: 3,
    GL2Type.OCTAHEDRAL: 4,
    GL2Type.GENERAL: 5,
}


def cuspidality(atom: RepAtom, hyp: Hypotheses) -> bool:
    """Whether the atom is known to be cuspidal under the declared shapes.
    Characters count as cuspidal on GL(1).  An opaque atom (a nu or ind
    summand) is cuspidal by construction, but exists only when its base has
    the shape whose rule emits it; any other is refused."""
    if atom.kind == "char":
        return True
    if atom.kind == "op":
        info = opaque_info(atom.label)
        if hyp.type_of(info.base) is not info.shape:
            raise PoleError(f"{atom.label} needs {info.base} to be {info.shape.value}")
        return True
    return atom.m < FIRST_NONCUSPIDAL[hyp.type_of(atom.base)]


def _pair_pole(
    a: RepAtom, b: RepAtom, hyp: Hypotheses, name: str
) -> tuple[PoleInterval, str]:
    """Pole of the pair of atoms a and b, with its reason; a refusal calls the
    pair `name`.  For cuspidal members the pole is simple exactly when b is
    the contragredient of a."""
    for c in (a.core(), b.core()):
        if not cuspidality(c, hyp):
            raise PoleError(f"{name}: member {c.pretty()} is not known to be cuspidal")
    dual = atom_equal(b, a.dual(), hyp)
    if dual is Tri.YES:
        return ONE, "dual pair, simple pole"
    if dual is Tri.NO:
        return ZERO, "members not dual, entire"
    return MAYBE, "dual matching undecided"


def _entry_pole(key: Entry, hyp: Hypotheses) -> tuple[PoleInterval, str]:
    if isinstance(key, RepAtom):
        if key.kind == "char":
            t = is_trivial(key.twist, hyp)
            if t is Tri.YES:
                return ONE, f"{key.pretty()}: zeta factor, simple pole"
            if t is Tri.NO:
                return ZERO, f"{key.pretty()}: nontrivial character, entire"
            return MAYBE, f"{key.pretty()}: character triviality undecided"
        if not cuspidality(key, hyp):
            raise PoleError(
                f"{key.pretty()} is not known to be cuspidal under the declared shapes"
            )
        return ZERO, f"{key.pretty()}: cuspidal standard L-function, entire"
    assert isinstance(key, RSPair)
    iv, why = _pair_pole(key.a, key.b.twisted(key.twist), hyp, key.pretty())
    return iv, f"{key.pretty()}: {why}"


def pole_order(V: VirtualRep, hyp: Hypotheses) -> tuple[PoleInterval, list[str]]:
    """Interval bound on the order of the pole at s = 1 of the product over
    all entries, with one reason line per entry."""
    total = ZERO
    reasons = []
    for key, mult in V.entries:
        iv, why = _entry_pole(key, hyp)
        total = total + iv.scale(mult)
        reasons.append(f"x{mult} {why} -> {iv.scale(mult)}")
    return total, reasons


def isobaric_pair_pole(
    A: VirtualRep, B: VirtualRep, hyp: Hypotheses
) -> tuple[PoleInterval, list[str]]:
    """Order at s = 1 of the pairing of two isobaric sums: one simple pole
    per constituent pair in which the second is the contragredient of the
    first, counted with multiplicity; a constituent not known to be cuspidal
    under the declared shapes is refused.  It stays sharp where the
    multiplied-out product would hold powers the ledger refuses."""
    if not (A.is_isobaric() and B.is_isobaric()):
        raise PoleError("pair pole rule needs isobaric operands")
    total = ZERO
    reasons = []
    for ka, ma in A.entries:
        for kb, mb in B.entries:
            name = f"{ka.pretty()} against {kb.pretty()}"
            iv = _pair_pole(ka, kb, hyp, name)[0].scale(ma * mb)
            if iv != ZERO:
                reasons.append(f"x{ma * mb} {name} -> {iv}")
            total = total + iv
    return total, reasons


def self_dual_abelian_entries(V: VirtualRep, hyp: Hypotheses) -> list[str]:
    """Character entries whose square is declared trivial (the obstruction
    class in the zero-repulsion statement); informational."""
    out = []
    for key, mult in V.entries:
        if isinstance(key, RepAtom) and key.kind == "char":
            if is_trivial(key.twist * key.twist, hyp) is Tri.YES:
                out.append(f"x{mult} {key.pretty()}")
    return out

