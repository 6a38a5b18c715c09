"""Arithmetic inputs: eigenvalue tables, Satake data, character values."""

import random
import time

import pytest

from lfcheck import ingest
from lfcheck.ingest import (
    BoundError,
    MR_LIMIT,
    IngestError,
    builtin_form,
    is_prime,
    deligne_ok,
    delta_eigenvalues,
    kronecker,
    load_eigenvalue_file,
    parse_char_spec,
    prepare_scan_points,
    satake_from_ap,
    sieve,
)


def eta24_series(nmax):
    """Coefficients of prod_{n>=1} (1-q^n)^24 through q^nmax, read from the
    series that built-in Delta ingest grows."""
    return tuple(ingest._grow_eta24(nmax)[: nmax + 1])


def tau(n):
    """Ramanujan tau, n >= 1, from the same series."""
    return ingest._grow_eta24(n - 1)[n - 1]


# classical table, Ramanujan 1916
TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744, 11: 534612}

# 11a1 traces of Frobenius
AP_11A = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0, 23: -1}


def test_tau_table():
    for n, v in TAU.items():
        assert tau(n) == v


def test_eta_power_vs_naive_product():
    # same q-expansion from the fast route and a direct product expansion,
    # computed at two different truncation orders
    for nmax in (30, 64):
        fast = eta24_series(nmax)
        slow = naive_product_series(nmax)
        assert list(fast) == list(slow)
    short = eta24_series(20)
    assert list(short) == list(eta24_series(50))[: len(short)]


def test_hecke_relation_at_prime_squares():
    for p in sieve(100):
        assert tau(p * p) == tau(p) ** 2 - p**11


def test_tau_multiplicative():
    rng = random.Random(5077)
    for _ in range(30):
        m = rng.randrange(2, 40)
        n = rng.randrange(2, 40)
        import math

        if math.gcd(m, n) == 1:
            assert tau(m * n) == tau(m) * tau(n)


def test_eta24_prefixes_agree_in_any_call_order(monkeypatch):
    want = naive_product_series(120)
    for sizes in ((120, 30), (30, 120)):
        monkeypatch.setattr(ingest, "_ETA24", [1])
        got = {n: eta24_series(n) for n in sizes}
        assert list(got[120]) == want
        assert list(got[30]) == want[:31]


def test_tau_past_the_memo_end_extends_it(monkeypatch):
    monkeypatch.setattr(ingest, "_ETA24", [1])
    short = eta24_series(20)
    want = naive_product_series(90)
    assert tau(90) == want[89]
    assert ingest._ETA24 == want[:90]
    assert eta24_series(20) == short


def naive_product_series(nmax: int, power: int = 24) -> list[int]:
    """Oracle: expand prod_{n=1}^{nmax} (1-q^n)^power term by term."""
    acc = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        for _ in range(power):
            for j in range(nmax, n - 1, -1):
                acc[j] -= acc[j - n]
    return acc


def _legendre_table(p):
    sq = bytearray(p)
    for i in range(1, (p + 1) // 2 + 1):
        sq[i * i % p] = 1
    return sq


def x0_11_ap(p):
    """Oracle: trace of Frobenius at a prime p != 11 for the curve
    y^2 + y = x^3 - x^2 - 10x - 20, by counting points."""
    if p == 2:
        count = 0
        for x in range(2):
            for y in range(2):
                if (y * y + y - (x**3 - x * x - 10 * x - 20)) % 2 == 0:
                    count += 1
        return p + 1 - (count + 1)
    # complete the square: y^2 + y = c has 1 + legendre(4c + 1) solutions
    sq = _legendre_table(p)
    total = 0
    for x in range(p):
        c = (4 * (x * x * x - x * x - 10 * x - 20) + 1) % p
        if c:
            total += 1 if sq[c] else -1
    return -total


def _count_points_naive(p):
    # affine points of y^2 + y = x^3 - x^2 - 10x - 20 over F_p, plus the
    # point at infinity
    count = 1
    for x in range(p):
        rhs = (x**3 - x * x - 10 * x - 20) % p
        for y in range(p):
            if (y * y + y - rhs) % p == 0:
                count += 1
    return count


def test_x0_11_against_point_counting():
    for p in sieve(40):
        if p == 11:
            continue
        assert x0_11_ap(p) == p + 1 - _count_points_naive(p)


def test_x0_11_known_values_and_hasse():
    builtin = builtin_form("11a", 23).ap
    for p, ap in AP_11A.items():
        assert builtin[p] == ap
        assert x0_11_ap(p) == ap
    for p, ap in builtin_form("11a", 500).ap.items():
        assert ap * ap <= 4 * p


def test_builtin_11a_matches_point_counts():
    want = {p: x0_11_ap(p) for p in sieve(2000) if p != 11}
    assert builtin_form("11a", 2000).ap == want


def test_deligne_exact():
    assert deligne_ok(tau(5), 5, 12)
    # 4 * 5^11 = 195312500; isqrt gives the edge
    assert deligne_ok(13975, 5, 12)
    assert not deligne_ok(13976, 5, 12)


def test_satake_pair():
    for p in (2, 3, 5, 7):
        a, b = satake_from_ap(tau(p), p, 12)
        assert abs(abs(a) - 1) < 1e-12 and abs(abs(b) - 1) < 1e-12
        assert abs(a * b - 1) < 1e-12
        assert abs((a + b) - tau(p) / p**5.5) < 1e-12
    with pytest.raises(BoundError):
        satake_from_ap(10**6, 2, 12)


def test_builtin_forms():
    f = builtin_form("delta", 50)
    assert f.weight == 12 and f.level == 1
    assert f.ap[7] == tau(7)
    g = builtin_form("11a", 50)
    assert g.weight == 2 and g.level == 11
    assert 11 not in g.ap
    with pytest.raises(IngestError):
        builtin_form("37b", 50)
    with pytest.raises(IngestError):
        builtin_form("delta", 50).satake(101)


def _legendre_naive(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_kronecker_vs_legendre():
    for p in sieve(60):
        if p == 2:
            continue
        for a in range(-10, 25):
            assert kronecker(a, p) == _legendre_naive(a, p), (a, p)


def test_kronecker_multiplicative():
    rng = random.Random(88011)
    for _ in range(100):
        a = rng.randrange(-30, 31)
        m = rng.randrange(1, 30)
        n = rng.randrange(1, 30)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_load_eigenvalue_file(tmp_path):
    p = tmp_path / "form.tsv"
    p.write_text("#weight 12 level 1\n2\t-24\n3\t252\n\n# comment\n5\t4830\n")
    f = load_eigenvalue_file(str(p))
    assert (f.weight, f.level) == (12, 1)
    assert f.ap == {2: -24, 3: 252, 5: 4830}


LONG = "9" * 5000  # past Python's 4,300-digit limit on int(str)


def test_loader_error_lines(tmp_path):
    cases = [
        ("#weights 12 level 1\n2\t-24\n", 1, "header"),
        ("#weight twelve level 1\n2\t-24\n", 1, "non-integer weight"),
        ("#weight 12 level 1\n2 -24\n", 2, "expected"),
        ("#weight 12 level 1\n2\tx\n", 2, "non-integer entry"),
        ("#weight 12 level 1\n4\t-24\n", 2, "not prime"),
        ("#weight 12 level 1\n2\t-24\n2\t-24\n", 3, "duplicate"),
        ("", 0, "empty file"),
        ("#weight 12 level 1\n", 0, "no eigenvalue rows"),
        # int() raises the same ValueError past the interpreter's digit
        # limit as for a non-numeral; the message must say which it was
        (f"#weight {LONG} level 1\n2\t-24\n", 1, "weight is too long"),
        (f"#weight 12 level -{LONG}\n2\t-24\n", 1, "level is too long"),
        (f"#weight 12 level 1\n3\t{LONG}\n", 2, "a_p is too long"),
        (f"#weight 12 level 1\n+{LONG}\t0\n", 2, "p is too long"),
        (f"#weight 12 level 1\n3\t{LONG}x\n", 2, "non-integer entry"),
    ]
    for text, lineno, frag in cases:
        f = tmp_path / "bad.tsv"
        f.write_text(text)
        with pytest.raises(IngestError) as e:
            load_eigenvalue_file(str(f))
        assert frag in str(e.value), text
        if lineno:
            assert f":{lineno}:" in str(e.value), text


def test_is_prime_against_sieve_and_pseudoprimes():
    assert [n for n in range(-3, 20000) if is_prime(n)] == sieve(19999)
    # strong pseudoprimes to every prime base up to 37 (the last one
    # defeats the first twelve bases and is caught only by 41)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n


def _strong_probable_prime(n, a):
    """Whether odd n > a passes one Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


FIRST_PRIMES = tuple(sieve(200))


def _oracle_prime(n):
    # the first 13 prime bases are exact below MR_LIMIT; the rest only make
    # a pseudoprime above it less likely
    return all(n == q or n % q for q in FIRST_PRIMES) and all(
        _strong_probable_prime(n, a) for a in FIRST_PRIMES if a < n
    )


def test_is_prime_agrees_with_sieve_below_1e5():
    assert [n for n in range(100000) if is_prime(n)] == sieve(99999)


def test_miller_rabin_bounds_are_the_first_pseudoprimes_of_each_prefix():
    bounds, bases = ingest._MR_BOUNDS, ingest._MR_BASES
    assert len(bounds) == len(bases) and bounds[-1] == MR_LIMIT
    assert list(bounds) == sorted(bounds)
    assert bases == FIRST_PRIMES[: len(bases)]
    for k, bound in enumerate(bounds, 1):
        # composite (some base witnesses it), yet it passes the k bases
        # that are meant to be exact below it, so a mistyped bound goes red
        assert not all(_strong_probable_prime(bound, a) for a in FIRST_PRIMES)
        assert all(_strong_probable_prime(bound, a) for a in bases[:k]), bound
        if bound < MR_LIMIT:
            assert not is_prime(bound), bound
    # and the first bound is the smallest one: no odd composite below 2047
    # is a strong pseudoprime to base 2
    odd_composites = set(range(9, 2047, 2)) - set(sieve(2047))
    assert not any(_strong_probable_prime(n, 2) for n in odd_composites)


def test_is_prime_on_each_side_of_every_bound():
    for bound in sorted(set(ingest._MR_BOUNDS)):
        below = next(n for n in range(bound - 1, 0, -1) if _oracle_prime(n))
        above = next(n for n in range(bound + 1, 2 * bound) if _oracle_prime(n))
        assert is_prime(below), below
        assert is_prime(above), above
        for n in range(below + 1, bound):
            assert not is_prime(n), n
        if above < MR_LIMIT:
            for n in range(bound + 1, above):
                assert not is_prime(n), n


def test_loader_primality_near_1e18_is_fast(tmp_path):
    # no factor below 10^9, so trial division against a sieve up to sqrt(p)
    # would need a table of 10^9 entries
    composite = 1000000007 * 1000000009
    prime = 10**18 + 3
    f = tmp_path / "big.tsv"
    t0 = time.perf_counter()
    f.write_text(f"#weight 2 level 1\n{prime}\t0\n")
    assert load_eigenvalue_file(str(f)).ap == {prime: 0}
    f.write_text(f"#weight 2 level 1\n{composite}\t0\n")
    with pytest.raises(IngestError) as e:
        load_eigenvalue_file(str(f))
    assert time.perf_counter() - t0 < 1.0
    assert ":2:" in str(e.value) and "not prime" in str(e.value)


def test_loader_rejects_primes_beyond_the_exact_range(tmp_path):
    f = tmp_path / "huge.tsv"
    f.write_text(f"#weight 2 level 1\n3\t0\n{MR_LIMIT}\t0\n")
    with pytest.raises(IngestError) as e:
        load_eigenvalue_file(str(f))
    assert not isinstance(e.value, BoundError)
    assert ":3:" in str(e.value) and "too large" in str(e.value)


def test_loader_rejects_powers_beyond_float_range(tmp_path):
    # 2^1023 is the largest power of two a float holds; 2^1024, 3^999 and
    # 3^(10^9 - 1) are not, and the last (about 200 MB as an integer) must be
    # refused without forming it
    f = tmp_path / "w.tsv"
    f.write_text("#weight 1024 level 1\n2\t0\n")
    assert load_eigenvalue_file(str(f)).ap == {2: 0}
    for weight, p in ((1025, 2), (1000, 3), (10**9, 3)):
        f.write_text(f"#weight {weight} level 2\n{p}\t0\n")
        t0 = time.perf_counter()
        with pytest.raises(IngestError) as e:
            load_eigenvalue_file(str(f))
        assert time.perf_counter() - t0 < 1.0
        assert not isinstance(e.value, BoundError)
        assert ":2:" in str(e.value) and "too large for a float" in str(e.value)


def test_loader_bound_violation_is_typed(tmp_path):
    f = tmp_path / "huge.tsv"
    f.write_text("#weight 12 level 1\n2\t-10000\n")
    with pytest.raises(BoundError) as e:
        load_eigenvalue_file(str(f))
    assert "violates the eigenvalue bound at p=2" in str(e.value)
    # ramified primes are exempt from the bound
    g = tmp_path / "ram.tsv"
    g.write_text("#weight 2 level 14\n7\t-100\n")
    assert load_eigenvalue_file(str(g)).ap[7] == -100


def test_parse_char_spec(tmp_path):
    assert parse_char_spec("trivial").value(7) == 1
    ch = parse_char_spec("kronecker:-4")
    assert ch.modulus == 16
    assert ch.value(5) == 1 and ch.value(7) == -1
    t = tmp_path / "char.tsv"
    t.write_text("3\t0.0\t1.0\n5\t-1.0\t0.0\n")
    tab = parse_char_spec(str(t))
    assert tab.value(3) == 1j and tab.value(5) == -1
    with pytest.raises(IngestError):
        tab.value(7)
    for bad in ("kronecker:x", "kronecker:0", str(tmp_path / "missing")):
        with pytest.raises(IngestError):
            parse_char_spec(bad)
    with pytest.raises(IngestError, match="discriminant is too long"):
        parse_char_spec(f"kronecker:-{LONG}")
    t.write_text(f"{LONG}\t1.0\t0.0\n")
    with pytest.raises(IngestError, match="char.tsv:1: p is too long"):
        parse_char_spec(str(t))
    for row in ("3\t2.0\t0.0\n", "3\tnan\t0.0\n", "3\t1.0\tnan\n", "3\tinf\t0\n"):
        t.write_text(row)
        with pytest.raises(IngestError, match="unit modulus"):
            parse_char_spec(str(t))


def test_prepare_scan_points():
    f1 = builtin_form("delta", 100)
    f2 = builtin_form("11a", 100)
    points, skipped = prepare_scan_points(f1, f2, parse_char_spec("kronecker:-4"), 100)
    assert skipped == [2, 11]
    assert set(points) == {p for p in sieve(100) if p not in (2, 11)}
    a1, b1, a2, b2, cv = points[3]
    assert abs(a1 * b1 - 1) < 1e-12 and abs(a2 * b2 - 1) < 1e-12
    assert cv == kronecker(-4, 3)
    # a truncated form table surfaces as a missing-eigenvalue error
    short = builtin_form("delta", 10)
    with pytest.raises(IngestError):
        prepare_scan_points(short, f2, parse_char_spec("trivial"), 100)
