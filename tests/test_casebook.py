"""Case-by-case verification: the eleven shape cases and the ratio bridge."""

import pytest

from lfcheck.casebook import (
    CASE_IDS,
    CASES,
    CaseError,
    _signed,
    run_all,
    verify_case,
    verify_plethysm_bridge,
)
from lfcheck.hypotheses import GL2Type, Hypotheses


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
    for cid, spec in CASES.items():
        if not spec.identities:
            continue
        for n in (0, 3):
            rep = verify_case(cid, tamper=n)
            first = _by_name(rep, "identity")[0]
            assert first.status == "FAIL", (cid, n)
            assert not rep.ok


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
