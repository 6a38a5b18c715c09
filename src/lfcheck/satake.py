"""Unramified coefficient polynomials in Satake parameters and character values.

Every formal object of repalg has, at an unramified prime, a coefficient that
is a Laurent polynomial in the four Satake slots a_pi, b_pi, a_pi', b_pi' and
the character generators.  Central characters are not independent variables:
om = a * b per base, so they fold into the Satake slots.

The finite orders of mu_* and eta_* live in chargroup alone.  `char_poly` is
the one door from characters into polynomials, and a monomial's mu/eta
exponents are those of the one reduced character it came from.  LaurentPoly
itself is the free Laurent ring over VARS: its arithmetic does not identify
mu^3 with 1, and `conj` gives mu^-1, not mu^2.  Evaluation is unaffected,
because `satake_point` enforces the declared orders.

All inputs of modulus one, so conjugation is exponent inversion.
"""

from __future__ import annotations

from operator import add, neg

from . import TOL
from .chargroup import FormalCharacter, STD_GENERATORS, STD_ORDERS
from .hypotheses import BASES, base_name
from .repalg import RepAtom, VirtualRep


class CoefficientError(ValueError):
    pass


_OM = {base_name("om", b): b for b in BASES}
# variable universe: Satake slots then character generators, omegas excluded
VARS = tuple(base_name(s, b) for b in BASES for s in ("a", "b")) + tuple(
    g for g in STD_GENERATORS if g not in _OM
)
_IDX = {n: i for i, n in enumerate(VARS)}
_VARSET = frozenset(VARS)
# the (a, b) slots of each base, and the slots each generator's exponent
# lands in: om_* on both of its base's, every other generator on its own
_AB = {b: (_IDX[base_name("a", b)], _IDX[base_name("b", b)]) for b in BASES}
_SLOTS = tuple(_AB[_OM[g]] if g in _OM else (_IDX[g],) for g in STD_GENERATORS)


class LaurentPoly:
    """Integer-coefficient Laurent polynomial, free over the variable universe.

    `c` maps exponent tuples (in VARS order) to nonzero integer coefficients.
    Products add exponent tuples and `conj` negates them, modulo nothing.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[tuple[int, ...], int] | None = None):
        self.c = {k: v for k, v in (coeffs or {}).items() if v}

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(0,) * len(VARS): 1})

    @property
    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0) + v
            if not out[k]:
                del out[k]
        return _poly(out)

    def __neg__(self) -> "LaurentPoly":
        return _poly({k: -v for k, v in self.c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
                if not out[k]:
                    del out[k]
        return _poly(out)

    def conj(self) -> "LaurentPoly":
        """Complex conjugate under unit-modulus evaluation: invert exponents."""
        return _poly({tuple(map(neg, k)): v for k, v in self.c.items()})

    def eval(self, vals: dict[str, complex]) -> complex:
        """The value at one point, term by term: each term starts from its
        coefficient and multiplies in v ** e for its variables in VARS
        order, and the terms are summed in dict order."""
        if not vals.keys() >= _VARSET:
            missing = [n for n in VARS if n not in vals]
            raise CoefficientError(f"missing evaluation values for {missing}")
        point = tuple(vals[n] for n in VARS)
        s = 0j
        for key, v in self.c.items():
            term = complex(v)
            for x, e in zip(point, key):
                if e:
                    term *= x**e
            s += term
        return s

    @property
    def n_terms(self) -> int:
        return len(self.c)

    def pretty(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c):
            v = self.c[k]
            mono = "*".join(
                f"{n}^{e}" if e != 1 else n for n, e in zip(VARS, k) if e
            )
            head = f"{v}" if not mono else (mono if v == 1 else f"{v}*{mono}")
            parts.append(head)
        return " + ".join(parts)

    def __repr__(self):
        return f"<lpoly {self.pretty()}>"


def _poly(c: dict[tuple[int, ...], int]) -> LaurentPoly:
    """A LaurentPoly on c itself, which holds no zero coefficient."""
    r = LaurentPoly()
    r.c = c
    return r


def char_poly(c: FormalCharacter) -> LaurentPoly:
    """Monomial of a formal character: its exponents, already reduced by
    chargroup, copied slot by slot, with the omegas folded to a*b."""
    key = [0] * len(VARS)
    for slots, e in zip(_SLOTS, c.exps):
        if e:
            for i in slots:
                key[i] += e
    return _poly({tuple(key): 1})


def _core_poly(core: RepAtom) -> LaurentPoly:
    """1 for a character core; for Sym^m the complete homogeneous
    polynomial, the sum of a^(m-i) b^i for i = 0..m."""
    if core.kind == "op":
        raise CoefficientError(f"opaque atom {core.label!r} has no coefficient model")
    if core.kind == "char":
        return LaurentPoly.one()
    ia, ib = _AB[core.base]
    terms = {}
    for i in range(core.m + 1):
        key = [0] * len(VARS)
        key[ia], key[ib] = core.m - i, i
        terms[tuple(key)] = 1
    return _poly(terms)


def coeff_poly(V: VirtualRep) -> LaurentPoly:
    """Prime coefficient of a virtual value as a Laurent polynomial.  Each
    entry has exactly one character monomial: an atom's twist, or a pair's
    pooled twist (its members are bare cores)."""
    out: dict[tuple[int, ...], int] = {}
    for key, mult in V.entries:
        if isinstance(key, RepAtom):
            poly = _core_poly(key) * char_poly(key.twist)
        else:
            poly = _core_poly(key.a) * _core_poly(key.b) * char_poly(key.twist)
        for k, v in poly.c.items():
            out[k] = out.get(k, 0) + mult * v
            if not out[k]:
                del out[k]
    return _poly(out)


def satake_point(
    alpha_pi: complex,
    beta_pi: complex,
    alpha_pi2: complex,
    beta_pi2: complex,
    chars: dict[str, complex] | None = None,
) -> dict[str, complex]:
    """Validated evaluation dictionary for coefficient polynomials.

    Satake slots must be unit modulus (tempered normalization); finite-order
    character values must satisfy their declared order; remaining character
    generators default to 1, and any other name is refused.  Each holds to
    within TOL.
    """
    slots = (alpha_pi, beta_pi, alpha_pi2, beta_pi2)
    vals: dict[str, complex] = dict(zip(VARS[:4], map(complex, slots)))
    rest = dict(chars or {})
    for n in VARS[4:]:
        vals[n] = complex(rest.pop(n, 1))
    if rest:
        raise CoefficientError(f"unknown character name {next(iter(rest))!r}")
    for n, v in vals.items():
        if not abs(abs(v) - 1.0) <= TOL:  # a NaN fails too
            raise CoefficientError(f"{n} is not unit modulus: {v!r}")
        order = STD_ORDERS.get(n, 0)
        if order and abs(v**order - 1.0) > TOL:
            raise CoefficientError(f"{n} does not have order dividing {order}")
    return vals
