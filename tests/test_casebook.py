"""Case-by-case verification: the eleven shape cases and the ratio bridge."""

import pytest

from lfcheck import casebook
from lfcheck import chargroup as G
from lfcheck.casebook import (
    CASE_IDS,
    CASES,
    CaseError,
    _signed,
    run_all,
    verify_case,
    verify_plethysm_bridge,
)
from lfcheck.decompose import Hypotheses
from lfcheck.repalg import GL2Type, VirtualRep, sym_atom
from lfcheck.satake import char_poly


EXPECTED_POLES = {
    "4.1": "[6, 10]",
    "4.2": "[6, 6]",
    "4.3": "[6, 7]",
    "4.4.1": "[6, 6]",
    "4.4.2": "[6, 6]",
    "4.4.3": "[6, 7]",
    "5.1": "[0, 2]",
    "5.2": "[0, 0]",
    "5.3.1": "[0, 3]",
    "5.3.2": "[0, 1]",
    "5.3.3": "[3, 3]",
}

ELL_K = {
    "4.1": (6, 10),
    "4.2": (6, 6),
    "4.3": (4, 7),
    "4.4.1": (4, 6),
    "4.4.2": (4, 6),
    "4.4.3": (4, 7),
    "5.3.3": (2, 3),
}


def _by_name(rep, prefix):
    return [v for v in rep.verdicts if v.name.startswith(prefix)]


def test_run_all_roster():
    reports = run_all()
    assert [r.case_id for r in reports] == list(CASE_IDS)
    assert len(reports) == 11
    for r in reports:
        assert r.title and r.hypotheses


def test_all_cases_pass_except_known_erratum():
    for rep in run_all():
        if rep.case_id == "4.4.3":
            assert not rep.ok
            continue
        assert rep.ok, (
            rep.case_id,
            [(v.name, v.status, v.detail) for v in rep.verdicts if v.status != "PASS"],
        )


def test_classification_verdicts():
    for rep in run_all():
        (v,) = _by_name(rep, "classification")
        assert v.status == "PASS"
        assert rep.case_id in v.detail


def test_budget_pairs():
    for cid, (ell, k) in ELL_K.items():
        rep = verify_case(cid)
        (v,) = _by_name(rep, "ghl budget")
        assert v.status == "PASS"
        assert f"2*ell = {2 * ell} > k = {k}" == v.detail


def test_ghl_budget_checks_ell_against_D(monkeypatch):
    # ell = 5 would pass 2*ell > k, but D holds A x A'chi four times in 4.3;
    # the display's pair rows keep ell = 4, so nothing else goes red
    monkeypatch.setitem(CASES, "4.3", CASES["4.3"]._replace(ell=5))
    rep = verify_case("4.3")
    assert [(v.name, v.status, v.detail) for v in rep.verdicts if v.status != "PASS"] == [
        ("ghl budget", "FAIL", "computed ell = 4, recorded ell = 5")
    ]


def test_ghl_budget_needs_twice_ell_above_k(monkeypatch):
    # with k = 8 recorded, 4.3's ell = 4 gives 2*ell = k: the budget fails
    # while the pole interval [6, 7] still sits below k
    monkeypatch.setitem(CASES, "4.3", CASES["4.3"]._replace(k=8))
    rep = verify_case("4.3")
    assert [(v.name, v.status, v.detail) for v in rep.verdicts if v.status != "PASS"] == [
        ("ghl budget", "FAIL", "2*ell = 8 <= k = 8")
    ]
    (v,) = _by_name(rep, "entirety")
    assert v.detail == "upper bound 7 <= k = 8"


def test_pole_ledgers():
    for cid, iv in EXPECTED_POLES.items():
        rep = verify_case(cid)
        (v,) = _by_name(rep, "pole ledger")
        assert v.status == "PASS", (cid, v.detail)
        assert f"order interval {iv}, expected {iv}" in v.detail


def test_entirety_within_budget():
    for cid in ELL_K:
        rep = verify_case(cid)
        (v,) = _by_name(rep, "entirety")
        assert v.status == "PASS", (cid, v.detail)


def test_known_erratum_shape():
    rep = verify_case("4.4.3")
    idents = _by_name(rep, "identity")
    assert [v.status for v in idents] == ["FAIL"]
    detail = idents[0].detail
    assert "claimed minus required:" in detail
    terms = detail.split(": ", 1)[1].split("; ")
    signs = sorted(t.split(" ", 1)[0] for t in terms)
    assert signs == ["+4", "-2", "-2"]
    (disc,) = _by_name(rep, "discrepancy analysis")
    assert disc.status == "PASS"
    assert "degree-neutral" in disc.detail
    # every other verdict on the case is clean
    others = [
        v
        for v in rep.verdicts
        if not v.name.startswith("identity")
    ]
    assert all(v.status == "PASS" for v in others)


def test_recorded_slip_is_degree_neutral():
    delta = _signed(CASES["4.4.3"].identities[0].known_delta)
    assert sorted(delta.values()) == [-2, -2, 4]
    assert sum(m * key.degree for key, m in delta.items()) == 0
    for key in delta:
        assert "Sym^4(pi) x Ad(pi')" in key.pretty()
        assert "om_pi^-2" in key.pretty()


def test_tamper_flips_every_display_case():
    # the tamper lands on identity 0: its degree and multiset checks fail,
    # and its coefficient check where it has one; every other verdict holds
    for cid, spec in CASES.items():
        if not spec.identities:
            continue
        red = ["degree", "identity"] + ["coefficient"] * spec.identities[0].polycheck
        for n in (0, 3):
            rep = verify_case(cid, tamper=n)
            got = [
                (v.name.split(" (")[0], v.status)
                for v in rep.verdicts
                if v.status != "PASS"
            ]
            assert got == [(name, "FAIL") for name in red], (cid, n)


def test_tamper_reports_a_reproducer():
    rep = verify_case("4.2", tamper=5)
    first = _by_name(rep, "identity")[0]
    assert "claimed minus required:" in first.detail


def test_tamper_on_structural_case_rejected():
    with pytest.raises(CaseError):
        verify_case("5.1", tamper=0)


def test_unknown_case_rejected():
    with pytest.raises(CaseError) as e:
        verify_case("9.9")
    assert "4.4.3" in str(e.value)  # the message lists the known ids


def test_each_polycheck_identity_emits_its_coefficient_verdict():
    # none of the three holds an opaque atom, so coeff_poly decides each one
    want = {
        "5.3.1": ["coefficient (generic head)"],
        "5.3.2": ["coefficient (head)"],
        "5.3.3": ["coefficient"],
    }
    assert set(want) == {
        cid for cid, spec in CASES.items()
        if any(ident.polycheck for ident in spec.identities)
    }
    for cid, names in want.items():
        got = _by_name(verify_case(cid), "coefficient")
        assert [(v.name, v.status) for v in got] == [(n, "PASS") for n in names]


def test_bridge():
    rep = verify_plethysm_bridge()
    names = [v.name for v in rep.verdicts]
    assert names == ["weight peel", "multiset identity", "coefficient"]
    assert rep.ok
    assert "(6, 0), (2, 2)" in rep.verdicts[0].detail


def _reordered_tags(monkeypatch):
    real = casebook.plethysm_sym2
    monkeypatch.setattr(casebook, "plethysm_sym2", lambda m: real(m)[::-1])


def _swapped_delta(monkeypatch):
    # denominator minus numerator: only the multiset side reads delta
    real = VirtualRep.delta
    monkeypatch.setattr(VirtualRep, "delta", lambda self, other: real(other, self))


# the plethysm block Sym^6(pi) tw chi*om^-3 (+) Sym^2(pi) tw chi*om^-1
_PLETH = VirtualRep.build(
    (sym_atom("pi", d, G.gen("chi") * G.gen("om_pi", r - 3)), 1)
    for d, r in [(6, 0), (2, 2)]
)


def _extra_pleth_term(monkeypatch):
    # one extra monomial, mu_pi, in the plethysm side's coefficient only
    real = casebook.coeff_poly

    def mutated(V):
        P = real(V)
        return P + char_poly(G.gen("mu_pi")) if V == _PLETH else P

    monkeypatch.setattr(casebook, "coeff_poly", mutated)


# each mutation of verify bridge's inputs and the exact checks it turns red
BRIDGE_MUTATIONS = {
    "plethysm tags reordered": (_reordered_tags, {"weight peel"}),
    "delta with its operands swapped": (_swapped_delta, {"multiset identity"}),
    "extra term in the plethysm coefficient": (_extra_pleth_term, {"coefficient"}),
}


@pytest.mark.parametrize("name", BRIDGE_MUTATIONS)
def test_bridge_mutation_turns_its_check_red(monkeypatch, name):
    mutate, red = BRIDGE_MUTATIONS[name]
    mutate(monkeypatch)
    rep = verify_plethysm_bridge()
    assert {v.name for v in rep.verdicts if v.status != "PASS"} == red


def test_every_bridge_check_has_a_killing_mutation():
    names = {v.name for v in verify_plethysm_bridge().verdicts}
    assert names == set().union(*(red for _m, red in BRIDGE_MUTATIONS.values()))


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        Hypotheses(GL2Type.TETRAHEDRAL, GL2Type.OCTAHEDRAL, twist_equiv=True)
    # there is no chi_ad_selftwist field
    with pytest.raises(TypeError):
        Hypotheses(
            GL2Type.TETRAHEDRAL,
            GL2Type.TETRAHEDRAL,
            twist_equiv=True,
            chi_ad_selftwist=True,
        )
