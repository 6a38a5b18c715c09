"""The degree-324 auxiliary product: construction and the sum-of-squares
identity for its prime-power coefficients.  The numeric positivity scan of
those coefficients lives in `scan`.

The product D is defined by its square root.  At an unramified prime its
coefficient is |w|^2 with

    w = 2x + xz + z,

where x is the adjoint coefficient of the first form (real) and z the
chi-twisted adjoint coefficient of the second.  `W` holds w; `build_D`,
the closed square form and the scan's square all read it.
"""

from __future__ import annotations

from collections import Counter

from . import TOL
from .chargroup import GENS, ONE, gen
from .report import Verdict, check
from .repalg import RepAtom, VirtualRep, ad_atom, rs_product, sym_atom, char_atom
from .satake import VARS, LaurentPoly, coeff_poly, satake_point

# w as (power of x, power of z) -> coefficient, its terms in the order the
# scan adds them
W = {(1, 0): 2, (1, 1): 1, (0, 1): 1}

# the atoms whose coefficients are x and z
_X, _Z = ad_atom("pi"), ad_atom("pi'", gen("chi"))


def w_text(x: str, z: str, sep: str) -> str:
    """w written in the names x and z, the factors of each term joined by
    sep and the terms in W order."""
    return " + ".join(
        sep.join([str(c)] * (c != 1) + [x] * i + [z] * j) or "1"
        for (i, j), c in W.items()
    )


def _powers(atom: RepAtom, n: int) -> list[VirtualRep]:
    """The Rankin-Selberg powers 0..n of one atom."""
    out = [VirtualRep.of(char_atom(ONE))]
    for _ in range(n):
        out.append(rs_product(out[-1], VirtualRep.of(atom)))
    return out


def build_D() -> VirtualRep:
    """|w|^2 as one multiset; degree 324.

    The terms c x^i z^j and c' x^k z^l of W give c c' copies of
    x^(i+k) z^j zbar^l: the Rankin-Selberg product of a power of Ad(pi)
    with powers of Ad(pi') twisted by chi and of its dual.  Each power and
    each z^j zbar^l is built once.
    """
    nz = max(j for _i, j in W)
    xs = _powers(_X, 2 * max(i for i, _j in W))
    zz = {
        (j, l): rs_product(zj, zbl)
        for j, zj in enumerate(_powers(_Z, nz))
        for l, zbl in enumerate(_powers(_Z.dual(), nz))
    }
    mults: Counter = Counter()
    for (i, j), c in W.items():
        for (k, l), c2 in W.items():
            mults[i + k, j, l] += c * c2
    total = VirtualRep.build(
        (key, m * mult)
        for (n, j, l), m in mults.items()
        for key, mult in rs_product(xs[n], zz[j, l]).entries
    )
    assert total.degree == 324, total.degree
    return total


_CACHE: dict[str, LaurentPoly] = {}


def coeff_polys() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """(full coefficient polynomial, x, z), cached."""
    if "P" not in _CACHE:
        _CACHE["P"] = coeff_poly(build_D())
        _CACHE["x"] = coeff_poly(VirtualRep.of(_X))
        _CACHE["z"] = coeff_poly(VirtualRep.of(_Z))
    return _CACHE["P"], _CACHE["x"], _CACHE["z"]


def sos_closed_form() -> LaurentPoly:
    """|w|^2 with w built from W as a polynomial in x and z."""
    _P, x, z = coeff_polys()
    w = LaurentPoly.zero()
    for (i, j), c in W.items():
        term = LaurentPoly({(0,) * len(VARS): c})
        for f in [x] * i + [z] * j:
            term = term * f
        w = w + term
    return w * w.conj()


def verify_sos() -> list[Verdict]:
    """Check the square identity and its supporting relations exactly."""
    P, x, z = coeff_polys()
    checks = [
        check("adjoint coefficient is real", (x.conj() - x).is_zero, "conj(x) = x")
    ]

    for base, xx in (("pi", x), ("pi'", coeff_poly(VirtualRep.of(ad_atom("pi'"))))):
        om2bar = GENS[base].om ** -2
        s4 = coeff_poly(VirtualRep.of(sym_atom(base, 4, om2bar)))
        lhs = xx * xx
        rhs = LaurentPoly.one() + xx + s4
        checks.append(
            check(
                f"square relation over {base}",
                (lhs - rhs).is_zero,
                "x^2 = 1 + x + s4",
            )
        )

    Q = sos_closed_form()
    diff = P - Q
    checks.append(
        check(
            f"coefficient equals |{w_text('x', 'z', '')}|^2",
            diff.is_zero,
            "0 residual",
            f"{diff.n_terms} residual terms",
        )
    )

    # exact values: at the trivial point every monomial is 1, and at
    # chi = -1 each is signed by the parity of its chi exponent
    v324 = sum(P.c.values())
    checks.append(
        check("degree check at the trivial point", v324 == 324, f"value {v324}")
    )

    ichi = VARS.index("chi")
    vneg = sum(-v if k[ichi] % 2 else v for k, v in P.c.items())
    checks.append(check("quadratic character point", vneg == 36, f"value {vneg}"))

    chibar = {"chi": 0.6 + 0.8j}
    pt = satake_point(1j, -1j, 0.8 + 0.6j, 0.8 - 0.6j, chibar)
    sym = P.eval(pt)
    swapped = P.eval({**pt, "chi": pt["chi"].conjugate()})
    checks.append(
        check(
            "conjugate-character symmetry",
            abs(sym - swapped) < TOL,
            f"|difference| {abs(sym - swapped):.3g}",
        )
    )
    return checks


def a_D_value(point: dict[str, complex]) -> complex:
    """Direct evaluation of the full coefficient polynomial."""
    P, _x, _z = coeff_polys()
    return P.eval(point)
