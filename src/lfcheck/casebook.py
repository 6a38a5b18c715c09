"""Case-by-case verification of the factorization displays.

Eleven cases, indexed by the shape taxonomy: the first six cover the
twist-inequivalent non-dihedral type combinations and check the claimed
factorization of the auxiliary degree-324 product after subtracting the
two removed adjoint-pair powers; the rest cover dihedral and
twist-equivalent shapes with their own smaller displays.

Every display is text: one row per factor, `<multiplicity>  <expression>`,
in the notation `expand` and `poles` read (`exprlang`), and a side is the
sum of its rows.  The six auxiliary displays keep `build_D()` as their
left side, and each appends the two removed pair powers with its own ell.

Each case produces verdicts:
  classification  the declared shapes land on this case id
  degree          both sides of the display have equal total degree
  identity        multiset equality after decomposition and twist reduction
  coefficient     Laurent-polynomial identity (only where decomposition-free)
  pole ledger     pole-order interval matches the recorded expectation
  entirety        pole upper bound does not exceed the cleared order k
  ghl budget      2*ell > k so the zero-counting step applies, with ell
                  (auxiliary cases) the count of A x A'chi in D
  gl2 structure   (both-dihedral case) every factor has members of degree <= 2

One display is reproduced as printed even though its exponents do not
balance; its identity verdict fails and a discrepancy-analysis verdict
confirms the exact signed difference, which is degree-neutral and is
repaired by redistributing one exponent onto the two character-twisted
copies of the same pair.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import InputError
from .chargroup import gen
from .decompose import decompose_under
from .exprlang import parse_expr
from .hypotheses import BASES, GL2Type, Hypotheses
from .repalg import Entry, RepAtom, RSPair, VirtualRep, plethysm_sym2, sym_atom
from .satake import LaurentPoly, coeff_poly
from .poles import PoleInterval, isobaric_pair_pole, pole_order
from .dseries import build_D
from .report import Verdict, check


class CaseError(InputError):
    pass


def classify(hyp: Hypotheses) -> str:
    """Map a hypothesis set to the unique ledger case id covering it."""
    t1, t2 = hyp.type_pi, hyp.type_pi2
    dih = (t1 is GL2Type.DIHEDRAL, t2 is GL2Type.DIHEDRAL)
    if all(dih):
        return "5.1"
    if any(dih):
        return "5.2"
    if hyp.twist_equiv:
        return {
            GL2Type.TETRAHEDRAL: "5.3.1",
            GL2Type.OCTAHEDRAL: "5.3.2",
            GL2Type.GENERAL: "5.3.3",
        }[t1]
    pair = frozenset((t1, t2))
    T, O, G = GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL, GL2Type.GENERAL
    table = {
        frozenset((T,)): "4.1",
        frozenset((T, O)): "4.2",
        frozenset((O,)): "4.3",
        frozenset((G, T)): "4.4.1",
        frozenset((G, O)): "4.4.2",
        frozenset((G,)): "4.4.3",
    }
    return table[pair]


def _signed(rows: str) -> dict[Entry, int]:
    """Sum the rows `<multiplicity>  <expression>` of a display, blank lines
    skipped, into a map from entry to nonzero signed multiplicity."""
    acc: Counter = Counter()
    for row in rows.splitlines():
        if row.strip():
            m, expr = row.split(None, 1)
            for key, n in parse_expr(expr).entries:
                acc[key] += int(m) * n
    return {key: m for key, m in acc.items() if m}


def _rows(rows: str) -> VirtualRep:
    """A display's side: the sum of its rows."""
    return VirtualRep.build(_signed(rows).items())


# The displays as printed, one factor per row in print order.  The first
# six are the auxiliary right sides before the two removed pair powers,
# which _aux_case appends with the case's ell.

_CLAIMED_4_1 = """
    6  1
    1  mu*mu'
    1  mu^-1*mu'^-1
    1  mu*mu'^-1
    1  mu^-1*mu'
   12  Ad(pi)
    4  Ad(pi')
    4  Ad(pi) tw mu'
    4  Ad(pi) tw mu'^-1
    5  mu
    5  mu^-1
    2  Ad(pi') tw mu
    2  Ad(pi') tw mu^-1
    2  Ad(pi') tw chi
    2  Ad(pi') tw chi^-1
    2  mu'
    2  mu'^-1
    2  Ad(pi') tw chi*mu
    2  Ad(pi') tw chi^-1*mu
    2  Ad(pi') tw chi*mu^-1
    2  Ad(pi') tw chi^-1*mu^-1
    8  Ad(pi) (x) Ad(pi')
"""

_CLAIMED_4_2 = """
    6  1
   12  Ad(pi)
    2  Ad(pi')
    2  nu_pi'
    4  Ad(pi) (x) nu_pi'
    2  Ad(pi') tw eta'
    4  Ad(pi) (x) Ad(pi') tw eta'
    5  mu
    5  mu^-1
    1  nu_pi' tw mu
    1  nu_pi' tw mu^-1
    1  Ad(pi') tw mu
    1  Ad(pi') tw mu^-1
    1  Ad(pi') tw mu*eta'
    1  Ad(pi') tw mu^-1*eta'
    4  Ad(pi) (x) Ad(pi')
    2  Ad(pi') tw chi
    2  Ad(pi') tw chi^-1
    2  Ad(pi') tw chi*mu
    2  Ad(pi') tw chi^-1*mu
    2  Ad(pi') tw chi*mu^-1
    2  Ad(pi') tw chi^-1*mu^-1
"""

_CLAIMED_4_3 = """
    6  1
    1  nu_pi (x) nu_pi'
    7  Ad(pi)
    2  Ad(pi')
    1  nu_pi (x) Ad(pi')
    5  Ad(pi) tw eta
    3  Ad(pi) (x) nu_pi'
    2  nu_pi'
    5  nu_pi
    1  Ad(pi) (x) nu_pi' tw eta
    2  Ad(pi') tw eta'
    1  Ad(pi') (x) nu_pi tw eta'
    1  Ad(pi) (x) Ad(pi') tw eta
    2  Ad(pi') tw chi
    2  Ad(pi') tw chi^-1
    2  Ad(pi') (x) nu_pi tw chi
    3  Ad(pi) (x) Ad(pi') tw eta'
    2  Ad(pi') (x) nu_pi tw chi^-1
    1  Ad(pi) (x) Ad(pi') tw eta*eta'
    3  Ad(pi) (x) Ad(pi')
    2  Ad(pi) (x) Ad(pi') tw chi*eta
    2  Ad(pi) (x) Ad(pi') tw chi^-1*eta
"""

_CLAIMED_4_4_1 = """
    6  1
    7  Ad(pi)
    4  Ad(pi')
    2  mu'
    2  mu'^-1
    3  Ad(pi) tw mu'
    3  Ad(pi) tw mu'^-1
    5  Sym^4(pi) tw omega^-2
    1  Sym^4(pi) tw mu'*omega^-2
    1  Sym^4(pi) tw mu'^-1*omega^-2
    2  Ad(pi') tw chi
    2  Sym^4(pi) tw omega^-2 (x) Ad(pi') tw chi
    2  Sym^4(pi) tw omega^-2 (x) Ad(pi') tw chi^-1
    2  Ad(pi') tw chi^-1
    2  Sym^4(pi) tw omega^-2 (x) Ad(pi')
    6  Ad(pi) (x) Ad(pi')
"""

_CLAIMED_4_4_2 = """
    6  1
    5  Sym^4(pi) tw omega^-2
    2  Ad(pi') tw eta'
    3  Ad(pi) (x) nu_pi'
    2  Ad(pi')
    2  nu_pi'
    7  Ad(pi)
    3  Ad(pi) (x) Ad(pi') tw eta'
    1  Sym^4(pi) tw omega^-2 (x) Ad(pi') tw eta'
    1  Sym^4(pi) tw omega^-2 (x) nu_pi'
    1  Sym^4(pi) tw omega^-2 (x) Ad(pi')
    3  Ad(pi) (x) Ad(pi')
    2  Ad(pi') tw chi
    2  Sym^4(pi) tw omega^-2 (x) Ad(pi') tw chi
    2  Ad(pi') tw chi^-1
    2  Sym^4(pi) tw omega^-2 (x) Ad(pi') tw chi^-1
"""

# the last row is the slip: its exponent 4 belongs on the chi and chi^-1
# twists of the same pair, 2 each (_SLIP_4_4_3 is claimed minus required)
_CLAIMED_4_4_3 = """
    6  1
    1  Sym^4(pi) tw omega^-2 (x) Sym^4(pi') tw omega'^-2
    2  Ad(pi') tw chi
    2  Ad(pi') tw chi^-1
    5  Sym^4(pi) tw omega^-2
    7  Ad(pi)
    2  Ad(pi')
    3  Ad(pi) (x) Ad(pi')
    3  Ad(pi) (x) Sym^4(pi') tw omega'^-2
    2  Sym^4(pi') tw omega'^-2
    1  Ad(pi') (x) Sym^4(pi) tw omega^-2
    4  Ad(pi') (x) Sym^4(pi) tw omega^-2
"""

_SLIP_4_4_3 = """
    4  Ad(pi') (x) Sym^4(pi) tw omega^-2
   -2  Ad(pi') (x) Sym^4(pi) tw chi*omega^-2
   -2  Ad(pi') (x) Sym^4(pi) tw chi^-1*omega^-2
"""

# A x A'chi, the factor of the headline L-function, and its twist-equivalent
# form A x A chi; the self-twist rows put mu where chi was
_FACTOR = "1  Ad(pi) (x) Ad(pi') tw chi"
_SELFPAIR = "1  Ad(pi) (x) Ad(pi) tw chi"
_SELFPAIR_MU = "1  Ad(pi) (x) Ad(pi) tw mu"

_CLAIMED_5_2 = """
    1  ind_pi' (x) Ad(pi) tw chi*omega'^-1
    1  Ad(pi) tw chi*omega'^-1*xiF'
"""

_HEAD_5_3 = """
    1  chi
    1  Ad(pi) tw chi
    1  Sym^4(pi) tw chi*omega^-2
"""

_SPLIT_5_3_1 = """
    1  chi
    1  Ad(pi) tw chi
    1  Ad(pi) tw chi
    1  chi*mu^-1
    1  chi*mu
"""

_HEAD_5_3_MU = """
    1  1
    1  Ad(pi)
    1  Sym^4(pi) tw omega^-2
"""

_SPLIT_5_3_1_MU = """
    1  1
    1  Ad(pi)
    1  Ad(pi)
    1  mu
    1  mu^-1
"""

_SPLIT_5_3_2 = """
    1  chi
    1  Ad(pi) tw chi
    1  nu_pi tw chi
    1  Ad(pi) tw eta*chi
"""

_PI1 = "1 (+) Ad(pi) (+) Sym^4(pi) tw chi*omega^-2"

_CLAIMED_5_3_3 = """
    1  1
    1  Ad(pi) (x) Ad(pi)
    1  Sym^4(pi) (x) Sym^4(pi) tw omega^-4
    2  Ad(pi)
    1  Ad(pi) (x) Sym^4(pi) tw chi*omega^-2
    1  Ad(pi) (x) Sym^4(pi) tw chi^-1*omega^-2
    1  Sym^4(pi) tw chi*omega^-2
    1  Sym^4(pi) tw chi^-1*omega^-2
"""


class IdentitySpec(NamedTuple):
    label: str
    lhs: str | None  # display rows; None is the auxiliary product build_D()
    rhs: str
    known_delta: str | None = None  # signed rows, claimed minus required
    polycheck: bool = False


class CaseSpec(NamedTuple):
    case_id: str
    title: str
    hyp: Hypotheses
    identities: tuple[IdentitySpec, ...]
    expected_pole: tuple[int, int]
    ell: int | None = None
    k: int | None = None
    structural: bool = False
    # isobaric operands (expressions) for the pair-multiplicity pole rule;
    # used instead of per-factor pole bookkeeping when the multiplied-out
    # product would contain symmetric powers of undeclared cuspidality
    pair_pole: tuple[str, str] | None = None


def _aux_case(case_id, title, t1, t2, ell, k, pole, claimed, known_delta=None):
    pairs = f"""
    {ell}  Ad(pi) (x) Ad(pi') tw chi
    {ell}  Ad(pi) (x) Ad(pi') tw chi^-1
"""
    return CaseSpec(
        case_id,
        title,
        Hypotheses(t1, t2),
        (IdentitySpec("display", None, claimed + pairs, known_delta),),
        ell=ell,
        k=k,
        expected_pole=pole,
    )


T, O, D, GEN = (
    GL2Type.TETRAHEDRAL,
    GL2Type.OCTAHEDRAL,
    GL2Type.DIHEDRAL,
    GL2Type.GENERAL,
)


def _build_cases() -> dict[str, CaseSpec]:
    cases = [
        _aux_case(
            "4.1", "both bases cubic-self-twist type", T, T, 6, 10, (6, 10),
            _CLAIMED_4_1,
        ),
        _aux_case(
            "4.2", "cubic-self-twist with quadratic-self-twist", T, O, 6, 6,
            (6, 6), _CLAIMED_4_2,
        ),
        _aux_case(
            "4.3", "both bases quadratic-self-twist type", O, O, 4, 7, (6, 7),
            _CLAIMED_4_3,
        ),
        _aux_case(
            "4.4.1", "generic base with cubic-self-twist base", GEN, T, 4, 6,
            (6, 6), _CLAIMED_4_4_1,
        ),
        _aux_case(
            "4.4.2", "generic base with quadratic-self-twist base", GEN, O, 4,
            6, (6, 6), _CLAIMED_4_4_2,
        ),
        _aux_case(
            "4.4.3", "both bases generic", GEN, GEN, 4, 7, (6, 7),
            _CLAIMED_4_4_3, _SLIP_4_4_3,
        ),
        CaseSpec(
            "5.1",
            "both bases dihedral",
            Hypotheses(D, D),
            (),
            expected_pole=(0, 2),
            structural=True,
        ),
        CaseSpec(
            "5.2",
            "non-dihedral base against dihedral base",
            Hypotheses(GEN, D),
            (IdentitySpec("factorization", _FACTOR, _CLAIMED_5_2),),
            expected_pole=(0, 0),
        ),
        CaseSpec(
            "5.3.1",
            "twist-equivalent, cubic-self-twist type",
            Hypotheses(T, T, twist_equiv=True),
            (
                IdentitySpec(
                    "generic head", _SELFPAIR, _HEAD_5_3, polycheck=True
                ),
                IdentitySpec("generic split", _SELFPAIR, _SPLIT_5_3_1),
                IdentitySpec("self-twist head", _SELFPAIR_MU, _HEAD_5_3_MU),
                IdentitySpec("self-twist split", _SELFPAIR_MU, _SPLIT_5_3_1_MU),
            ),
            expected_pole=(0, 3),
        ),
        CaseSpec(
            "5.3.2",
            "twist-equivalent, quadratic-self-twist type",
            Hypotheses(O, O, twist_equiv=True),
            (
                IdentitySpec("head", _SELFPAIR, _HEAD_5_3, polycheck=True),
                IdentitySpec("split", _SELFPAIR, _SPLIT_5_3_2),
            ),
            expected_pole=(0, 1),
        ),
        CaseSpec(
            "5.3.3",
            "twist-equivalent, generic type",
            Hypotheses(GEN, GEN, twist_equiv=True),
            (
                IdentitySpec(
                    "self-product",
                    f"1  ({_PI1}) (x) ({_PI1})~",
                    _CLAIMED_5_3_3,
                    polycheck=True,
                ),
            ),
            ell=2,
            k=3,
            expected_pole=(3, 3),
            pair_pole=(_PI1, f"({_PI1})~"),
        ),
    ]
    return {c.case_id: c for c in cases}


CASES = _build_cases()
CASE_IDS = tuple(CASES)


class CaseReport(NamedTuple):
    case_id: str
    title: str
    hypotheses: str
    verdicts: list[Verdict]

    @property
    def ok(self) -> bool:
        return all(v.status == "PASS" for v in self.verdicts)


def _fmt_delta(delta: dict[Entry, int]) -> str:
    parts = [f"{'+' if m > 0 else ''}{m} {k.pretty()}" for k, m in delta.items()]
    return "; ".join(parts) if parts else "none"


def _coefficient(name: str, resid: LaurentPoly) -> Verdict:
    """The verdict that a residual coefficient polynomial vanishes."""
    return check(
        name,
        resid.is_zero,
        "coefficient polynomials agree",
        f"{resid.n_terms} residual terms",
    )


def _hyp_desc(hyp: Hypotheses) -> str:
    bits = [f"{base}={hyp.type_of(base).value}" for base in BASES]
    if hyp.twist_equiv:
        bits.append("twist-equivalent")
    return ", ".join(bits)


def _tampered(V: VirtualRep, n: int) -> VirtualRep:
    if not V.entries:
        raise CaseError("nothing to tamper with")
    idx = n % len(V.entries)
    key, _m = V.entries[idx]
    return V + VirtualRep.of(key)


def verify_case(case_id: str, tamper: int | None = None) -> CaseReport:
    """Run every check recorded for one case; optionally bump the
    multiplicity of the tamper-th claimed entry first (soundness probe)."""
    if case_id not in CASES:
        raise CaseError(
            f"unknown case {case_id!r}; known: {', '.join(CASE_IDS)}"
        )
    spec = CASES[case_id]
    if tamper is not None and not spec.identities:
        raise CaseError(f"case {case_id} has no display to tamper with")
    got = classify(spec.hyp)
    verdicts = [
        check("classification", got == case_id, f"declared shapes classify as {got}")
    ]

    pole_target = dD = None
    for i, ident in enumerate(spec.identities):
        lhs = build_D() if ident.lhs is None else _rows(ident.lhs)
        rhs = _rows(ident.rhs)
        if tamper is not None and i == 0:
            rhs = _tampered(rhs, tamper)
        tag = f" ({ident.label})" if len(spec.identities) > 1 else ""

        verdicts.append(
            check(
                f"degree{tag}",
                lhs.degree == rhs.degree,
                f"{lhs.degree} vs {rhs.degree}",
            )
        )

        dl = decompose_under(lhs, spec.hyp)
        dr = decompose_under(rhs, spec.hyp)
        if i == 0:
            pole_target = dl
        if ident.lhs is None:
            dD = dl
        delta = dr.delta(dl)
        verdicts.append(
            check(
                f"identity{tag}",
                not delta,
                "exact multiset match",
                f"claimed minus required: {_fmt_delta(delta)}",
            )
        )
        if ident.known_delta is not None and tamper is None:
            known = _signed(ident.known_delta)
            degshift = sum(m * k.degree for k, m in delta.items())
            verdicts.append(
                check(
                    f"discrepancy analysis{tag}",
                    delta == known and degshift == 0,
                    "difference matches the recorded slip and is "
                    "degree-neutral; repaired by moving exponent 4 onto "
                    "the chi and conjugate-chi twists as 2+2",
                    "difference does not match the recorded slip",
                )
            )
        if ident.polycheck:
            resid = coeff_poly(rhs) - coeff_poly(lhs)
            verdicts.append(_coefficient(f"coefficient{tag}", resid))

    if spec.structural:
        dl = decompose_under(_rows(_FACTOR), spec.hyp)
        pole_target = dl
        bad = []
        for key, _m in dl.entries:
            if isinstance(key, RepAtom) and key.degree > 2:
                bad.append(key.pretty())
            elif isinstance(key, RSPair) and (
                key.a.degree > 2 or key.b.degree > 2
            ):
                bad.append(key.pretty())
        verdicts.append(
            check(
                "gl2 structure",
                not bad,
                "all factors have members of degree <= 2",
                "oversized factors: " + "; ".join(bad),
            )
        )

    if spec.pair_pole is not None:
        left, right = map(parse_expr, spec.pair_pole)
        iv, reasons = isobaric_pair_pole(left, right, spec.hyp)
    else:
        iv, reasons = pole_order(pole_target, spec.hyp)
    want = PoleInterval(*spec.expected_pole)
    verdicts.append(
        check(
            "pole ledger",
            iv == want,
            f"order interval {iv}, expected {want} "
            f"({len(reasons)} factors examined)",
        )
    )
    if spec.k is not None:
        if iv.hi <= spec.k:
            status, det = "PASS", f"upper bound {iv.hi} <= k = {spec.k}"
        elif iv.lo > spec.k:
            status, det = "FAIL", f"lower bound {iv.lo} > k = {spec.k}"
        else:
            status, det = "UNKNOWN", f"interval {iv} straddles k = {spec.k}"
        verdicts.append(Verdict("entirety", status, det))

    if spec.ell is not None and spec.k is not None:
        ok = 2 * spec.ell > spec.k
        det = f"2*ell = {2 * spec.ell} {'>' if ok else '<='} k = {spec.k}"
        # ell counts A x A'chi in D; 5.3.3 has no D, and no stated rule gives
        # its ell (its Sym^4 chi-twists appear once each), so it stays recorded
        if dD is not None:
            ((target, _m),) = decompose_under(_rows(_FACTOR), spec.hyp).entries
            ell = dD.counter()[target]
            if ell != spec.ell:
                ok, det = False, f"computed ell = {ell}, recorded ell = {spec.ell}"
        verdicts.append(check("ghl budget", ok, det))
    return CaseReport(case_id, spec.title, _hyp_desc(spec.hyp), verdicts)


def verify_plethysm_bridge() -> CaseReport:
    """The ratio bridge behind the twist-equivalent generic case: pairing
    the adjoint against the normalized fourth power and removing the
    denominator leaves exactly the symmetric square of the third power,
    both as multisets and as coefficient polynomials."""
    numer = parse_expr("Ad(pi) (x) Sym^4(pi) tw chi*omega^-2")
    denom = parse_expr("Sym^4(pi) tw chi*omega^-2")
    ratio = numer.delta(denom)

    tags = plethysm_sym2(3)
    verdicts = [
        check("weight peel", tags == [(6, 0), (2, 2)], f"Sym^2(Sym^3) tags: {tags}")
    ]

    chi, om = gen("chi"), gen("om_pi")
    pleth = VirtualRep.build(
        (sym_atom("pi", d, chi * om ** (r - 3)), 1) for d, r in tags
    )
    verdicts.append(
        check(
            "multiset identity",
            ratio == dict(pleth.counter()),
            "numerator minus denominator equals the plethysm block",
            f"difference: {_fmt_delta(ratio)}",
        )
    )

    resid = coeff_poly(numer) - coeff_poly(denom) - coeff_poly(pleth)
    verdicts.append(_coefficient("coefficient", resid))
    return CaseReport(
        "bridge",
        "symmetric-square-of-cube ratio identity",
        _hyp_desc(Hypotheses(GEN, GEN, twist_equiv=True)),
        verdicts,
    )


def run_all() -> list[CaseReport]:
    return [verify_case(cid) for cid in CASE_IDS]
