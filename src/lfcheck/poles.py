"""Pole-order bookkeeping at s = 1 for products of standard and
Rankin-Selberg L-functions of cuspidal data.

Inputs must be fully decomposed: `cuspidality` calls every atom that the
declared shapes rewrite non-cuspidal, and such a factor or pair member is
refused.  For cuspidal data the rules are: a trivial character contributes
a simple pole, any other cuspidal standard L-function none, and a pair
contributes a simple pole exactly when the second member twisted by the
pooled character is the contragredient of the first.  Three-valued answers
about character triviality and dual matching propagate to interval bounds
[lo, hi] on the total order.
"""

from __future__ import annotations

from collections import namedtuple

from . import InputError
from .hypotheses import GL2Type, Hypotheses
from .decompose import Tri, atom_equal, is_trivial
from .repalg import Entry, RepAtom, RSPair, VirtualRep, opaque_info


class PoleError(InputError):
    pass


class NonCuspidalError(PoleError):
    """Raised for factors the declared hypotheses decompose further."""


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
_BY_TRI = {Tri.YES: ONE, Tri.NO: ZERO, Tri.UNKNOWN: MAYBE}


def cuspidality(atom: RepAtom, hyp: Hypotheses) -> Tri:
    """Whether the atom names a cuspidal representation under the declared
    shapes.  Characters count as cuspidal on GL(1).  An opaque atom (a nu or
    ind summand) is cuspidal by construction, but exists only when its base
    has the shape whose rule emits it; any other is refused."""
    if atom.kind == "char":
        return Tri.YES
    if atom.kind == "op":
        info = opaque_info(atom.label)
        if hyp.type_of(info.base) is not info.shape:
            raise PoleError(f"{atom.label} needs {info.base} to be {info.shape.value}")
        return Tri.YES
    t = hyp.type_of(atom.base)
    if t is GL2Type.DIHEDRAL:
        return Tri.YES if atom.m == 1 else Tri.NO
    if atom.m in (1, 2):
        return Tri.YES
    if atom.m == 3:
        return Tri.NO if t is GL2Type.TETRAHEDRAL else Tri.YES
    if atom.m == 4:
        return Tri.YES if t is GL2Type.GENERAL else Tri.NO
    return Tri.UNKNOWN


def _dual_pole(a: RepAtom, b: RepAtom, hyp: Hypotheses) -> PoleInterval:
    """Pole of the pair of a and b: simple exactly when b is the
    contragredient of a."""
    return _BY_TRI[atom_equal(b, a.dual(), hyp)]


def _entry_pole(key: Entry, hyp: Hypotheses) -> tuple[PoleInterval, str]:
    if isinstance(key, RepAtom):
        if key.kind == "char":
            t = is_trivial(key.twist, hyp)
            if t is Tri.YES:
                return ONE, f"{key.pretty()}: zeta factor, simple pole"
            if t is Tri.NO:
                return ZERO, f"{key.pretty()}: nontrivial character, entire"
            return MAYBE, f"{key.pretty()}: character triviality undecided"
        c = cuspidality(key, hyp)
        if c is Tri.NO:
            raise NonCuspidalError(
                f"{key.pretty()} is non-cuspidal under the declared shapes"
            )
        if c is Tri.UNKNOWN:
            return MAYBE, f"{key.pretty()}: cuspidality undeclared"
        return ZERO, f"{key.pretty()}: cuspidal standard L-function, entire"
    assert isinstance(key, RSPair)
    # both members are checked for NO before an UNKNOWN one widens
    cusp = [cuspidality(c, hyp) for c in (key.a, key.b)]
    for c, cc in zip((key.a, key.b), cusp):
        if cc is Tri.NO:
            raise NonCuspidalError(
                f"{key.pretty()}: member {c.pretty()} is non-cuspidal"
            )
    if Tri.UNKNOWN in cusp:
        return MAYBE, f"{key.pretty()}: member cuspidality undeclared"
    iv = _dual_pole(key.a, key.b.twisted(key.twist), hyp)
    if iv == ONE:
        return iv, f"{key.pretty()}: dual pair, simple pole"
    if iv == ZERO:
        return iv, f"{key.pretty()}: members not dual, entire"
    return iv, f"{key.pretty()}: dual matching undecided"


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
    first, counted with multiplicity.  This needs no cuspidality knowledge
    beyond the constituents themselves, so it stays sharp where the fully
    multiplied-out product would contain high symmetric powers of
    undeclared cuspidality."""
    for V in (A, B):
        if not V.is_isobaric():
            raise PoleError("pair pole rule needs isobaric operands")
    total = ZERO
    reasons = []
    for ka, ma in A.entries:
        for kb, mb in B.entries:
            iv = _dual_pole(ka, kb, hyp).scale(ma * mb)
            if iv != ZERO:
                reasons.append(
                    f"x{ma * mb} {ka.pretty()} against {kb.pretty()} -> {iv}"
                )
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

