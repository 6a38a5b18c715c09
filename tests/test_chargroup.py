"""Exact arithmetic in the shared character lattice."""

import random

import pytest

from lfcheck.chargroup import (
    CharacterGroup,
    STD_GENERATORS,
    standard_group,
)


G = standard_group()


def exponent_of(c, name):
    return c.exps[c.group.index(name)]


def test_generator_roster():
    assert G.generators == STD_GENERATORS
    assert len(STD_GENERATORS) == 9


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
    assert G.from_dict({"mu_pi": 3, "eta_pi'": 2}) == G.one()


def test_group_axioms_seeded():
    rng = random.Random(20817)
    names = list(STD_GENERATORS)
    for _ in range(200):
        a = G.from_dict({rng.choice(names): rng.randrange(-4, 5) for _ in range(3)})
        b = G.from_dict({rng.choice(names): rng.randrange(-4, 5) for _ in range(3)})
        c = G.from_dict({rng.choice(names): rng.randrange(-4, 5) for _ in range(3)})
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * G.one() == a
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
    assert G.one().pretty() == "1"
    assert c.sort_key() == c.sort_key()
    assert G.one().sort_key() != c.sort_key()


def test_unknown_generator_rejected():
    with pytest.raises(KeyError):
        G.gen("nosuch")
    with pytest.raises(KeyError):
        G.from_dict({"nosuch": 1})


def test_make_length_checked():
    with pytest.raises(ValueError):
        G.make([1, 2])


def test_cross_group_mixing_rejected():
    other = CharacterGroup(("z",))
    with pytest.raises(ValueError):
        _ = G.one() * other.one()
