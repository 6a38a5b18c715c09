"""The degree-324 auxiliary product: construction, the sum-of-squares
identity for its prime-power coefficients, and a numeric positivity scan.

The product has fifteen factors.  Writing A, A' for the two adjoints, S4,
S4' for the omega-normalized fourth symmetric powers, and chi for the
auxiliary character, the factors and multiplicities are

    zeta^6, (A x A'chi)^4, (A x A'chibar)^4, A^7, A'^2, (A'chi)^2,
    (A'chibar)^2, S4^5, S4'^2, (A x A')^3, (A x S4')^3, (A' x S4),
    (A' x S4chi)^2, (A' x S4chibar)^2, (S4 x S4').

At an unramified prime the coefficient equals |2x + xz + z|^2 with
x the adjoint coefficient of the first form (real) and z the chi-twisted
adjoint coefficient of the second.
"""

from __future__ import annotations

from typing import NamedTuple

from . import Record
from .chargroup import standard_group
from .repalg import VirtualRep, ad_atom, rs_product, sym_atom, char_atom
from .satake import (
    CoefficientError,
    LaurentPoly,
    _compile,
    coeff_poly,
    satake_point,
)


def _om2bar(base: str):
    G = standard_group()
    return G.gen("om_pi" if base == "pi" else "om_pi'") ** (-2)


def aux_factors() -> list[tuple[str, VirtualRep, int]]:
    """The fifteen factors in display order as (label, value, multiplicity)."""
    G = standard_group()
    chi = G.gen("chi")
    A = VirtualRep.of(ad_atom("pi"))
    A2 = VirtualRep.of(ad_atom("pi'"))
    A2chi = VirtualRep.of(ad_atom("pi'", chi))
    A2chibar = VirtualRep.of(ad_atom("pi'", chi.inv()))
    S4 = VirtualRep.of(sym_atom("pi", 4, _om2bar("pi")))
    S42 = VirtualRep.of(sym_atom("pi'", 4, _om2bar("pi'")))
    S4chi = VirtualRep.of(sym_atom("pi", 4, chi * _om2bar("pi")))
    S4chibar = VirtualRep.of(sym_atom("pi", 4, chi.inv() * _om2bar("pi")))
    one = VirtualRep.of(char_atom(G.one()))
    out = [
        ("zeta", one, 6),
        ("A x A'(chi)", rs_product(A, A2chi), 4),
        ("A x A'(chibar)", rs_product(A, A2chibar), 4),
        ("A", A, 7),
        ("A'", A2, 2),
        ("A'(chi)", A2chi, 2),
        ("A'(chibar)", A2chibar, 2),
        ("S4", S4, 5),
        ("S4'", S42, 2),
        ("A x A'", rs_product(A, A2), 3),
        ("A x S4'", rs_product(A, S42), 3),
        ("A' x S4", rs_product(A2, S4), 1),
        ("A' x S4(chi)", rs_product(A2, S4chi), 2),
        ("A' x S4(chibar)", rs_product(A2, S4chibar), 2),
        ("S4 x S4'", rs_product(S4, S42), 1),
    ]
    return out


def build_D() -> VirtualRep:
    """The full auxiliary product as one multiset; degree 324."""
    total = VirtualRep.build([])
    for _label, V, mult in aux_factors():
        total = total + V.scale(mult)
    assert total.degree == 324, total.degree
    return total


_CACHE: dict[str, LaurentPoly] = {}


def _polys() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """(full coefficient polynomial, x, z), cached."""
    if "P" not in _CACHE:
        G = standard_group()
        _CACHE["P"] = coeff_poly(build_D())
        _CACHE["x"] = coeff_poly(VirtualRep.of(ad_atom("pi")))
        _CACHE["z"] = coeff_poly(VirtualRep.of(ad_atom("pi'", G.gen("chi"))))
    return _CACHE["P"], _CACHE["x"], _CACHE["z"]


def sos_closed_form() -> LaurentPoly:
    _P, x, z = _polys()
    two = LaurentPoly.one() + LaurentPoly.one()
    w = two * x + x * z + z
    return w * w.conj()


def verify_sos() -> list[tuple[str, bool, str]]:
    """Check the square identity and its supporting relations exactly.

    Returns (name, ok, detail) per sub-check.
    """
    P, x, z = _polys()
    checks = []

    checks.append(
        ("adjoint coefficient is real", (x.conj() - x).is_zero, "conj(x) = x")
    )

    for base, xx in (("pi", x), ("pi'", coeff_poly(VirtualRep.of(ad_atom("pi'"))))):
        s4 = coeff_poly(VirtualRep.of(sym_atom(base, 4, _om2bar(base))))
        lhs = xx * xx
        rhs = LaurentPoly.one() + xx + s4
        checks.append(
            (
                f"square relation over {base}",
                (lhs - rhs).is_zero,
                "x^2 = 1 + x + s4",
            )
        )

    Q = sos_closed_form()
    diff = P - Q
    checks.append(
        (
            "coefficient equals |2x + xz + z|^2",
            diff.is_zero,
            "0 residual" if diff.is_zero else f"{diff.n_terms} residual terms",
        )
    )

    ones = satake_point(1, 1, 1, 1)
    v324 = P.eval(ones)
    checks.append(
        (
            "degree check at the trivial point",
            abs(v324 - 324) < 1e-9,
            f"value {v324.real:.12g}",
        )
    )

    vneg = P.eval(satake_point(1, 1, 1, 1, {"chi": -1}))
    checks.append(
        (
            "quadratic character point",
            abs(vneg - 36) < 1e-9,
            f"value {vneg.real:.12g}",
        )
    )

    chibar = {"chi": 0.6 + 0.8j}
    pt = satake_point(1j, -1j, 0.8 + 0.6j, 0.8 - 0.6j, chibar)
    sym = P.eval(pt)
    swapped = P.eval({**pt, "chi": pt["chi"].conjugate()})
    checks.append(
        (
            "conjugate-character symmetry",
            abs(sym - swapped) < 1e-9,
            f"|difference| {abs(sym - swapped):.3g}",
        )
    )
    return checks


def a_D_value(point: dict[str, complex]) -> complex:
    """Direct evaluation of the full coefficient polynomial."""
    P, _x, _z = _polys()
    return P.eval(point)


# the compiled scan loop and the coefficient dicts it was built from
_KERNEL: list = [None, (None, None, None)]


def _scan_kernel():
    """(generator function, coefficients) for the current (P, x, z), compiled
    by `_compile` and rebuilt whenever one of their dicts is rebound.

    fn(bases, lmax, *coefficients) yields (p, l, direct, square) for each
    (p, base) of `bases` and l = 1..lmax: P at the point base ** l, and the
    closed square |2x + xz + z|^2 there.  Only the variables the three
    polynomials use are read, and their powers are shared among them.
    """
    polys = _polys()
    if any(q.c is not c for q, c in zip(polys, _KERNEL[1])):
        _KERNEL[0] = _compile(
            "bases, lmax",
            ["for p, base in bases:", "for l in range(1, lmax + 1):"],
            polys,
            "base[{name!r}] ** l",
            "yield p, l, s0, abs(2 * s1 + s1 * s2 + s2) ** 2",
        )
        _KERNEL[1] = tuple(q.c for q in polys)
    return _KERNEL[0]


# Violation kinds, each named after the scan verdict it fails
NONNEGATIVITY = "nonnegativity"
REALNESS = "realness"
SQUARE_IDENTITY = "square identity"


class Violation(NamedTuple):
    """A failed check at the point (p, l): `value` is the direct coefficient
    there and `square` the closed square form |2x + xz + z|^2."""

    kind: str
    p: int
    l: int
    value: complex
    square: float

    def __str__(self) -> str:
        head = f"p={self.p} l={self.l}: "
        if self.kind == REALNESS:
            return head + f"coefficient not real ({self.value.imag:.3g})"
        if self.kind == NONNEGATIVITY:
            return head + f"negative coefficient ({self.value.real:.3g})"
        return head + (
            f"direct/square mismatch ({self.value.real:.12g} vs {self.square:.12g})"
        )


class ScanResult(Record):
    """Scan totals: `min_at` is the first (p, l) with the smallest direct
    coefficient and `max_delta_at` the first with the largest gap between
    it and the closed square; both None when nothing was checked."""

    __slots__ = (
        "checked",
        "min_value",
        "min_at",
        "max_abs_delta",
        "max_delta_at",
        "violations",
    )

    def __init__(
        self,
        checked: int = 0,
        min_value: float = float("inf"),
        min_at: tuple[int, int] | None = None,
        max_abs_delta: float = 0.0,
        max_delta_at: tuple[int, int] | None = None,
        violations: list[Violation] | None = None,
    ):
        self.checked = checked
        self.min_value = min_value
        self.min_at = min_at
        self.max_abs_delta = max_abs_delta
        self.max_delta_at = max_delta_at
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.violations


# the variables of a prepared point, in its order; P, x and z read no other
_POINT_VARS = ("a_pi", "b_pi", "a_pi'", "b_pi'", "chi")


def _bases(points):
    """(p, base) in p order, where base maps each of the point's five
    variables to its value, checked to be of unit modulus."""
    for p, vals in sorted(points.items()):
        base = dict(zip(_POINT_VARS, map(complex, vals)))
        for name, v in base.items():
            if abs(abs(v) - 1.0) > 1e-6:
                raise CoefficientError(f"{name} is not unit modulus: {v!r}")
        yield p, base


def scan_positivity(
    points: dict[int, tuple[complex, complex, complex, complex, complex]],
    lmax: int = 3,
    tol: float = 1e-9,
) -> ScanResult:
    """Check non-negativity and the square identity for each prepared prime
    point and each prime-power exponent up to lmax, in (p, l) order.

    points maps p to (alpha1, beta1, alpha2, beta2, chi(p)).
    """
    res = ScanResult()
    fn, coefs = _scan_kernel()
    for p, ell, direct, sos in fn(_bases(points), lmax, *coefs):
        delta = abs(direct.real - sos)
        res.checked += 1
        if res.min_at is None or direct.real < res.min_value:
            res.min_value, res.min_at = direct.real, (p, ell)
        if res.max_delta_at is None or delta > res.max_abs_delta:
            res.max_abs_delta, res.max_delta_at = delta, (p, ell)
        if abs(direct.imag) > tol:
            kind = REALNESS
        elif direct.real < -tol:
            kind = NONNEGATIVITY
        elif delta > tol:
            kind = SQUARE_IDENTITY
        else:
            continue
        res.violations.append(Violation(kind, p, ell, direct, sos))
    return res
