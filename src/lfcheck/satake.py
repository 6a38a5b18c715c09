"""Unramified coefficient polynomials in Satake parameters and character values.

Every formal object of repalg has, at an unramified prime, a coefficient that
is a Laurent polynomial in the four Satake slots a_pi, b_pi, a_pi', b_pi' and
the character generators.  Central characters are not independent variables:
om = a * b per base, so they fold into the Satake slots.  Finite-order
generators carry their declared order and exponents are reduced mod it.

All inputs of modulus one, so conjugation is exponent inversion.
"""

from __future__ import annotations

from .chargroup import FormalCharacter, STD_GENERATORS, STD_ORDERS
from .repalg import Entry, RepAtom, RSPair, VirtualRep


class CoefficientError(ValueError):
    pass


# variable universe: Satake slots then character generators, omegas excluded
VARS = ("a_pi", "b_pi", "a_pi'", "b_pi'") + tuple(
    g for g in STD_GENERATORS if g not in ("om_pi", "om_pi'")
)
_IDX = {n: i for i, n in enumerate(VARS)}
_VARSET = frozenset(VARS)
_MODV = tuple(STD_ORDERS.get(n, 0) for n in VARS)


def _reduce(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(e % m if m else e for e, m in zip(key, _MODV))


class LaurentPoly:
    """Integer-coefficient Laurent polynomial over the variable universe.

    `c` maps exponent tuples (in VARS order) to nonzero integer coefficients.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[tuple[int, ...], int] | None = None):
        c: dict[tuple[int, ...], int] = {}
        for k, v in (coeffs or {}).items():
            if v:
                k = _reduce(k)
                c[k] = c.get(k, 0) + v
                if not c[k]:
                    del c[k]
        self.c = c

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
        r = LaurentPoly()
        r.c = out
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly()
        r.c = {k: -v for k, v in self.c.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = _reduce(tuple(a + b for a, b in zip(k1, k2)))
                out[k] = out.get(k, 0) + v1 * v2
                if not out[k]:
                    del out[k]
        r = LaurentPoly()
        r.c = out
        return r

    def conj(self) -> "LaurentPoly":
        """Complex conjugate under unit-modulus evaluation: invert exponents."""
        r = LaurentPoly()
        r.c = {_reduce(tuple(-e for e in k)): v for k, v in self.c.items()}
        return r

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


def char_poly(c: FormalCharacter) -> LaurentPoly:
    """Monomial of a formal character with the omegas folded to a*b."""
    key = [0] * len(VARS)
    for name, e in zip(STD_GENERATORS, c.exps):
        if not e:
            continue
        if name == "om_pi":
            key[_IDX["a_pi"]] += e
            key[_IDX["b_pi"]] += e
        elif name == "om_pi'":
            key[_IDX["a_pi'"]] += e
            key[_IDX["b_pi'"]] += e
        else:
            key[_IDX[name]] += e
    return LaurentPoly({tuple(key): 1})


def _sym_poly(base: str, m: int) -> LaurentPoly:
    """Complete homogeneous polynomial: sum of a^(m-i) b^i for i = 0..m."""
    ia, ib = _IDX[f"a_{base}"], _IDX[f"b_{base}"]
    terms = {}
    for i in range(m + 1):
        key = [0] * len(VARS)
        key[ia], key[ib] = m - i, i
        terms[tuple(key)] = 1
    return LaurentPoly(terms)


def _atom_poly(atom: RepAtom) -> LaurentPoly:
    if atom.kind == "op":
        raise CoefficientError(
            f"opaque atom {atom.label!r} has no coefficient model"
        )
    if atom.kind == "char":
        return char_poly(atom.twist)
    return _sym_poly(atom.base, atom.m) * char_poly(atom.twist)


def entry_poly(key: Entry) -> LaurentPoly:
    if isinstance(key, RepAtom):
        return _atom_poly(key)
    assert isinstance(key, RSPair)
    return _atom_poly(key.a) * _atom_poly(key.b) * char_poly(key.twist)


def coeff_poly(V: VirtualRep) -> LaurentPoly:
    """Prime coefficient of a virtual value as a Laurent polynomial."""
    out = LaurentPoly.zero()
    scale = LaurentPoly()
    for key, mult in V.entries:
        scale.c = {(0,) * len(VARS): mult}
        out = out + scale * entry_poly(key)
    return out


def satake_point(
    alpha_pi: complex,
    beta_pi: complex,
    alpha_pi2: complex,
    beta_pi2: complex,
    chars: dict[str, complex] | None = None,
    tol: float = 1e-9,
) -> dict[str, complex]:
    """Validated evaluation dictionary for coefficient polynomials.

    Satake slots must be unit modulus (tempered normalization); finite-order
    character values must satisfy their declared order; remaining character
    generators default to 1, and any other name is refused.
    """
    vals: dict[str, complex] = {
        "a_pi": complex(alpha_pi),
        "b_pi": complex(beta_pi),
        "a_pi'": complex(alpha_pi2),
        "b_pi'": complex(beta_pi2),
    }
    rest = dict(chars or {})
    for n in VARS[4:]:
        vals[n] = complex(rest.pop(n, 1))
    if rest:
        raise CoefficientError(f"unknown character name {next(iter(rest))!r}")
    for n, v in vals.items():
        if not abs(abs(v) - 1.0) <= tol:  # a NaN fails too
            raise CoefficientError(f"{n} is not unit modulus: {v!r}")
        order = STD_ORDERS.get(n, 0)
        if order and abs(v**order - 1.0) > tol:
            raise CoefficientError(f"{n} does not have order dividing {order}")
    return vals
