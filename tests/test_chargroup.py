"""Exact arithmetic in the shared character lattice."""

import random

import pytest

from lfcheck import chargroup as G
from lfcheck.chargroup import STD_GENERATORS


def exponent_of(c, name):
    return c.exps[G.index(name)]


# the roster spelled out once, here, against the one that chargroup builds
# from its bases and stems: generator order decides the order of entries
ROSTER = (
    "chi",
    "om_pi", "om_pi'",
    "mu_pi", "mu_pi'",
    "eta_pi", "eta_pi'",
    "xiF_pi", "xiF_pi'",
)
ORDERS = [("mu_pi", 3), ("mu_pi'", 3), ("eta_pi", 2), ("eta_pi'", 2)]
SHORT = {
    "omega": "om_pi", "omega'": "om_pi'",
    "mu": "mu_pi", "mu'": "mu_pi'",
    "eta": "eta_pi", "eta'": "eta_pi'",
    "xiF": "xiF_pi", "xiF'": "xiF_pi'",
}


def test_generator_roster():
    assert STD_GENERATORS == ROSTER
    assert list(G.STD_ORDERS.items()) == ORDERS
    assert G.BASES == ("pi", "pi'")
    for i, name in enumerate(STD_GENERATORS):
        assert G.index(name) == i
        assert G.gen(name).support() == ((name, 1),)


def test_short_character_names():
    from lfcheck.exprlang import CHARACTERS

    short = {k: v for k, v in CHARACTERS.items() if k not in ROSTER}
    assert {k: v for k, v in short.items() if not v.is_one} == {
        k: G.gen(g) for k, g in SHORT.items()
    }
    assert list(short) == [*SHORT, "1", "one", "zeta"]


def test_declared_orders():
    # mu cubic, eta quadratic, everything else free
    assert (G.gen("mu_pi") ** 3).is_one
    assert (G.gen("mu_pi'") ** 3).is_one
    assert (G.gen("eta_pi") ** 2).is_one
    assert (G.gen("eta_pi'") ** 2).is_one
    assert not (G.gen("mu_pi") ** 2).is_one
    assert not (G.gen("om_pi") ** 12).is_one
    assert not (G.gen("chi") ** 2).is_one


def test_order_reduction_normalizes():
    assert G.gen("mu_pi", 5) == G.gen("mu_pi", 2)
    assert G.gen("eta_pi", -1) == G.gen("eta_pi")
    assert G.from_dict({"mu_pi": 3, "eta_pi'": 2}) == G.ONE


def test_group_axioms_seeded():
    rng = random.Random(20817)
    names = list(STD_GENERATORS)
    for _ in range(200):
        a = G.from_dict({rng.choice(names): rng.randrange(-4, 5) for _ in range(3)})
        b = G.from_dict({rng.choice(names): rng.randrange(-4, 5) for _ in range(3)})
        c = G.from_dict({rng.choice(names): rng.randrange(-4, 5) for _ in range(3)})
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * G.ONE == a
        assert (a * a.inv()).is_one
        assert a.inv() == a ** (-1)


def test_conjugation_is_inversion():
    c = G.gen("chi") * G.gen("om_pi", -2) * G.gen("mu_pi")
    assert c.conj() == c.inv()
    assert c.conj().conj() == c


def test_exponent_access():
    c = G.gen("chi") * G.gen("om_pi'", -1)
    assert exponent_of(c, "chi") == 1
    assert exponent_of(c, "om_pi'") == -1
    assert exponent_of(c, "eta_pi") == 0
    assert dict(c.support()) == {"chi": 1, "om_pi'": -1}


def test_pretty_and_sort_are_stable():
    c = G.gen("chi") * G.gen("om_pi", -2)
    assert c.pretty() == "chi*om_pi^-2"
    assert G.ONE.pretty() == "1"
    # characters order by their exponent vectors
    assert G.ONE != c
    assert sorted([c, G.ONE]) == [G.ONE, c]


def test_unknown_generator_rejected():
    with pytest.raises(KeyError):
        G.gen("nosuch")
    with pytest.raises(KeyError):
        G.from_dict({"nosuch": 1})
