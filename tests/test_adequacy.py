"""Every verdict of the eleven cases can go red (mutation adequacy).

Each mutation below changes `CASES`, one rewrite rule, the cuspidality
table, one rule the ledger decides equality or triviality by, the factor
of D the ghl budget counts or the claimed side in-process, and names
every verdict that then fails to PASS; all the others must PASS as
before.  A case's verdict that no mutation here and no test in
`ELSEWHERE` turns red is a blind spot, listed by name in `BLIND_SPOTS`.
That list is empty and may only shrink, so a new verdict comes with its
mutation.
"""

import pytest

import test_casebook
from lfcheck import casebook, decompose, poles
from lfcheck.casebook import CASES, run_all, verify_case
from lfcheck.cli import main
from lfcheck.decompose import Hypotheses, Tri
from lfcheck.repalg import GL2Type


def _recorded(cid, **fields):
    def mutate(monkeypatch):
        monkeypatch.setitem(CASES, cid, CASES[cid]._replace(**fields))

    return mutate


def _declared(cid, type_pi, type_pi2):
    return _recorded(cid, hyp=Hypotheses(type_pi, type_pi2))


T, O, D, GEN = (
    GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL, GL2Type.DIHEDRAL, GL2Type.GENERAL,
)


def _slip(rows):
    def mutate(monkeypatch):
        spec = CASES["4.4.3"]
        ident = spec.identities[0]._replace(known_delta=rows)
        monkeypatch.setitem(CASES, "4.4.3", spec._replace(identities=(ident,)))

    return mutate


def _without_dihedral_adjoint(monkeypatch):
    real = decompose._decompose_atom

    def dropped(atom, hyp):
        if atom.kind == "sym" and atom.m == 2:
            if hyp.type_of(atom.base) is GL2Type.DIHEDRAL:
                return None
        return real(atom, hyp)

    monkeypatch.setattr(decompose, "_decompose_atom", dropped)


def _first_noncuspidal(shape, m):
    def mutate(monkeypatch):
        monkeypatch.setitem(poles.FIRST_NONCUSPIDAL, shape, m)

    return mutate


def _counted_factor(text):
    def mutate(monkeypatch):
        monkeypatch.setattr(casebook, "_FACTOR", text)

    return mutate


def _cross_base_adjoints_undecided(monkeypatch):
    # drops the multiplicity-one rule: Sym^2 atoms on different bases of
    # twist-inequivalent forms are no longer decided unequal
    real = poles.atom_equal

    def undecided(x, y, hyp):
        if x.kind == y.kind == "sym" and x.m == y.m == 2 and x.base != y.base:
            if not hyp.twist_equiv:
                return Tri.UNKNOWN
        return real(x, y, hyp)

    monkeypatch.setattr(poles, "atom_equal", undecided)


def _undecided_character_read_as_entire(monkeypatch):
    real = poles.is_trivial

    def entire(c, hyp):
        t = real(c, hyp)
        return Tri.NO if t is Tri.UNKNOWN else t

    monkeypatch.setattr(poles, "is_trivial", entire)


def _adjoints_undecided(cid, got, want, factors, k, standing=()):
    return (
        cid, _cross_base_adjoints_undecided, None,
        [
            *standing,
            (
                "pole ledger", "FAIL",
                f"order interval {got}, expected {want} ({factors} factors examined)",
            ),
            ("entirety", "UNKNOWN", f"interval {got} straddles k = {k}"),
        ],
    )


# a factor D does not hold, so the computed ell is 0
OTHER_FACTOR = _counted_factor("1  Ad(pi) (x) Ad(pi') tw chi^2")


REFUSED = (
    "(Ad(pi) x Ad(pi') tw chi): member Ad(pi) tw om_pi is not known to be cuspidal"
)
NOT_CUSPIDAL = "is not known to be cuspidal under the declared shapes"

# name -> (case, mutation or None, --tamper value, the verdicts that do not
# PASS as (name, status, detail), where a detail of None is not compared)
MUTATIONS = {
    "k below the ledger": (
        "4.3", _recorded("4.3", k=5), None,
        [("entirety", "FAIL", "lower bound 6 > k = 5")],
    ),
    "k inside the ledger": (
        "4.1", _recorded("4.1", k=8), None,
        [("entirety", "UNKNOWN", "interval [6, 10] straddles k = 8")],
    ),
    "no dihedral adjoint rule": (
        "5.1", _without_dihedral_adjoint, None,
        [
            ("gl2 structure", "FAIL", "oversized factors: (Ad(pi) x Ad(pi') tw chi)"),
            ("pole ledger", "FAIL", f"refused: {REFUSED}"),
        ],
    ),
    "dihedral pi declared in 5.1": (
        "5.1",
        _recorded("5.1", hyp=Hypotheses(GL2Type.DIHEDRAL, GL2Type.GENERAL)),
        None,
        [
            ("classification", "FAIL", "declared shapes classify as 5.2"),
            (
                "gl2 structure", "FAIL",
                "oversized factors: Ad(pi') tw chi*om_pi^-1*xiF_pi; "
                "(ind_pi x Ad(pi') tw chi*om_pi^-1)",
            ),
            (
                "pole ledger", "FAIL",
                "order interval [0, 0], expected [0, 2] (2 factors examined)",
            ),
        ],
    ),
    "octahedral pair declared in 5.3.3": (
        "5.3.3",
        _recorded(
            "5.3.3",
            hyp=Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.OCTAHEDRAL, twist_equiv=True),
        ),
        None,
        [
            ("classification", "FAIL", "declared shapes classify as 5.3.2"),
            (
                "pole ledger", "FAIL",
                "order interval [4, 6], expected [3, 3] (6 factors examined)",
            ),
            ("entirety", "FAIL", "lower bound 4 > k = 3"),
        ],
    ),
    "other shapes declared": (
        "4.4.1",
        _recorded("4.4.1", hyp=Hypotheses(GL2Type.OCTAHEDRAL, GL2Type.TETRAHEDRAL)),
        None,
        [("classification", "FAIL", "declared shapes classify as 4.2")],
    ),
    # each case below declared with the shapes of another case
    "4.1 declared (T, O)": (
        "4.1", _declared("4.1", T, O), None,
        [
            ("classification", "FAIL", "declared shapes classify as 4.2"),
            ("identity", "FAIL", None),
            (
                "pole ledger", "FAIL",
                "order interval [6, 6], expected [6, 10] (24 factors examined)",
            ),
        ],
    ),
    "4.2 declared (T, GEN)": (
        "4.2", _declared("4.2", T, GEN), None,
        [
            ("classification", "FAIL", "declared shapes classify as 4.4.1"),
            ("identity", "FAIL", None),
        ],
    ),
    "4.3 declared (GEN, GEN)": (
        "4.3", _declared("4.3", GEN, GEN), None,
        [
            ("classification", "FAIL", "declared shapes classify as 4.4.3"),
            ("identity", "FAIL", None),
        ],
    ),
    "4.4.2 declared (T, O)": (
        "4.4.2", _declared("4.4.2", T, O), None,
        [
            ("classification", "FAIL", "declared shapes classify as 4.2"),
            ("ghl budget", "FAIL", "computed ell = 6, recorded ell = 4"),
        ],
    ),
    "4.4.3 declared (GEN, T)": (
        "4.4.3", _declared("4.4.3", GEN, T), None,
        [
            ("classification", "FAIL", "declared shapes classify as 4.4.1"),
            ("identity", "FAIL", None),
            (
                "pole ledger", "FAIL",
                "order interval [6, 6], expected [6, 7] (18 factors examined)",
            ),
        ],
    ),
    "5.2 declared (D, D)": (
        "5.2", _declared("5.2", D, D), None,
        [
            ("classification", "FAIL", "declared shapes classify as 5.1"),
            (
                "pole ledger", "FAIL",
                "order interval [0, 2], expected [0, 0] (4 factors examined)",
            ),
        ],
    ),
    "5.3.1 declared (T, T) not twist-equivalent": (
        "5.3.1", _declared("5.3.1", T, T), None,
        [("classification", "FAIL", "declared shapes classify as 4.1")],
    ),
    "5.3.2 declared (O, T)": (
        "5.3.2", _declared("5.3.2", O, T), None,
        [("classification", "FAIL", "declared shapes classify as 4.2")],
    ),
    # the cuspidality table lowered by one: the ledger refuses the case's
    # highest power of that shape, and no other verdict changes
    "FIRST_NONCUSPIDAL tetrahedral 2 in 4.2": (
        "4.2", _first_noncuspidal(T, 2), None,
        [("pole ledger", "FAIL", f"refused: Ad(pi) {NOT_CUSPIDAL}")],
    ),
    "FIRST_NONCUSPIDAL tetrahedral 2 in 5.3.1": (
        "5.3.1", _first_noncuspidal(T, 2), None,
        [("pole ledger", "FAIL", f"refused: Ad(pi) tw chi {NOT_CUSPIDAL}")],
    ),
    "FIRST_NONCUSPIDAL general 4 in 4.4.1": (
        "4.4.1", _first_noncuspidal(GEN, 4), None,
        [("pole ledger", "FAIL", f"refused: Sym^4(pi) tw om_pi^-2 {NOT_CUSPIDAL}")],
    ),
    "FIRST_NONCUSPIDAL general 4 in 4.4.2": (
        "4.4.2", _first_noncuspidal(GEN, 4), None,
        [("pole ledger", "FAIL", f"refused: Sym^4(pi) tw om_pi^-2 {NOT_CUSPIDAL}")],
    ),
    # the computed ell counts another factor of D than A x A'chi
    "computed ell of another factor in 4.1": (
        "4.1", OTHER_FACTOR, None,
        [("ghl budget", "FAIL", "computed ell = 0, recorded ell = 6")],
    ),
    "computed ell of another factor in 4.2": (
        "4.2", OTHER_FACTOR, None,
        [("ghl budget", "FAIL", "computed ell = 0, recorded ell = 6")],
    ),
    "computed ell of another factor in 4.4.1": (
        "4.4.1", OTHER_FACTOR, None,
        [("ghl budget", "FAIL", "computed ell = 0, recorded ell = 4")],
    ),
    "computed ell of another factor in 4.4.3": (
        "4.4.3", OTHER_FACTOR, None,
        [
            ("identity", "FAIL", None),  # the case's deliberate red
            ("ghl budget", "FAIL", "computed ell = 0, recorded ell = 4"),
        ],
    ),
    # the ledger computed without one rule it decides by
    "cross-base adjoints undecided in 4.2": _adjoints_undecided(
        "4.2", "[6, 26]", "[6, 6]", 24, 6
    ),
    "cross-base adjoints undecided in 4.3": _adjoints_undecided(
        "4.3", "[6, 27]", "[6, 7]", 24, 7
    ),
    "cross-base adjoints undecided in 4.4.1": _adjoints_undecided(
        "4.4.1", "[6, 20]", "[6, 6]", 18, 6
    ),
    "cross-base adjoints undecided in 4.4.2": _adjoints_undecided(
        "4.4.2", "[6, 20]", "[6, 6]", 18, 6
    ),
    "cross-base adjoints undecided in 4.4.3": _adjoints_undecided(
        "4.4.3", "[6, 18]", "[6, 7]", 15, 7,
        standing=[("identity", "FAIL", None)],  # the case's deliberate red
    ),
    "undecided character read as entire in 5.3.2": (
        "5.3.2", _undecided_character_read_as_entire, None,
        [
            (
                "pole ledger", "FAIL",
                "order interval [0, 0], expected [0, 1] (4 factors examined)",
            ),
        ],
    ),
    # 5.3.3 has no D, so only its recorded ell and k meet
    "recorded ell = 1 in 5.3.3": (
        "5.3.3", _recorded("5.3.3", ell=1), None,
        [("ghl budget", "FAIL", "2*ell = 2 <= k = 3")],
    ),
    "slip recorded as 3": (
        "4.4.3",
        _slip("""
    3  Ad(pi') (x) Sym^4(pi) tw omega^-2
   -2  Ad(pi') (x) Sym^4(pi) tw chi*omega^-2
   -2  Ad(pi') (x) Sym^4(pi) tw chi^-1*omega^-2
"""),
        None,
        [
            ("identity", "FAIL", None),
            ("discrepancy analysis", "FAIL", "difference does not match the recorded slip"),
        ],
    ),
    "self-product tampered": (
        "5.3.3", None, 0,
        [
            ("degree", "FAIL", "81 vs 82"),
            ("identity", "FAIL", "claimed minus required: +1 zeta"),
            ("coefficient", "FAIL", "1 residual terms"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_turns_its_verdicts_red(monkeypatch, name):
    cid, mutate, tamper, want = MUTATIONS[name]
    if mutate is not None:
        mutate(monkeypatch)
    got = [v for v in verify_case(cid, tamper).verdicts if v.status != "PASS"]
    assert [(v.name, v.status) for v in got] == [(n, s) for n, s, _d in want]
    for v, (_n, _s, detail) in zip(got, want):
        assert detail is None or v.detail == detail


def test_refused_factor_finishes_the_report(monkeypatch, capsys):
    # a built-in case reads no user input, so a factor the ledger refuses is
    # a FAIL in a finished report (exit 1), never the usage error (exit 2)
    _without_dihedral_adjoint(monkeypatch)
    assert main(["verify", "case", "5.1"]) == 1
    cap = capsys.readouterr()
    assert cap.err == "" and f"[FAIL] pole ledger: refused: {REFUSED}" in cap.out


def test_refused_factor_skips_entirety(monkeypatch):
    # entirety compares the ledger's interval with k, and a refusal has none
    monkeypatch.setattr(decompose, "_decompose_atom", lambda atom, hyp: None)
    rep = verify_case("4.1")
    names = [v.name for v in rep.verdicts]
    assert "entirety" not in names and "ghl budget" in names
    (ledger,) = [v for v in rep.verdicts if v.name == "pole ledger"]
    assert ledger.status == "FAIL" and ledger.detail.startswith("refused: ")


DISPLAY_CASES = tuple(cid for cid, spec in CASES.items() if spec.identities)

TAMPER = test_casebook.test_tamper_flips_every_display_case

# (test, verdict, cases) for the tests in other files that turn a verdict red
ELSEWHERE = (
    (TAMPER, "identity", DISPLAY_CASES),
    (TAMPER, "degree", DISPLAY_CASES),
    (TAMPER, "coefficient", ("5.3.1", "5.3.2", "5.3.3")),
    (test_casebook.test_ghl_budget_checks_ell_against_D, "ghl budget", ("4.3",)),
)

# verdict -> the cases in which it appears and nothing turns it red
BLIND_SPOTS = {}


def test_blind_spots_are_exactly_the_verdicts_nothing_turns_red():
    def base(name):
        return name.split(" (")[0]

    verdicts = [(r.case_id, v) for r in run_all() for v in r.verdicts]
    appears = {(cid, base(v.name)) for cid, v in verdicts}
    passing = {(cid, base(v.name)) for cid, v in verdicts if v.status == "PASS"}
    killed = {
        (cid, base(n))
        for cid, _m, _t, want in MUTATIONS.values()
        for n, _s, _d in want
    } & passing
    killed |= {(cid, name) for _test, name, cids in ELSEWHERE for cid in cids}
    blind = {(cid, name) for name, cids in BLIND_SPOTS.items() for cid in cids}
    assert not killed & blind
    assert killed | blind == appears
