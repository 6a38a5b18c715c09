"""Arithmetic inputs: eigenvalue tables, Satake data, character values."""

import math
import random
import sys
import time

import pytest

from lfcheck import ingest
from lfcheck.ingest import (
    BoundError,
    MR_LIMIT,
    CharacterData,
    IngestError,
    builtin_form,
    is_prime,
    deligne_ok,
    delta_eigenvalues,
    load_eigenvalue_file,
    parse_char_spec,
    prepare_scan_points,
    sieve,
)


def eta24_series(nmax):
    """Coefficients of prod_{n>=1} (1-q^n)^24 through q^nmax, read from the
    series that built-in Delta ingest grows."""
    return tuple(ingest._grow_eta24(nmax)[0][: nmax + 1])


# prod (1-q^n)^24 by the power recurrence at every index, which uses no
# Hecke relation, so tests that check those relations read this series
_ORACLE = [1]


def oracle_eta24(nmax):
    """Oracle: with g = prod (1-q^n)^3 = sum (-1)^k (2k+1) q^(k(k+1)/2)
    (Jacobi) and f = g^8, n f_n = sum_{j>=1} (9j - n) g_j f_(n-j)."""
    f = _ORACLE
    g = []
    k = 1
    while k * (k + 1) // 2 <= nmax:
        g.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    for n in range(len(f), nmax + 1):
        s = sum((9 * j - n) * gj * f[n - j] for j, gj in g if j <= n)
        assert s % n == 0, n
        f.append(s // n)
    return f[: nmax + 1]


def tau(n):
    """Ramanujan tau, n >= 1, from the oracle series."""
    return oracle_eta24(n - 1)[n - 1]


# classical table, Ramanujan 1916
TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744, 11: 534612}

# 11a1 traces of Frobenius
AP_11A = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0, 23: -1}


def test_tau_table():
    grown = eta24_series(10)
    for n, v in TAU.items():
        assert tau(n) == v
        assert grown[n - 1] == v


def test_eta_power_vs_naive_product():
    # same q-expansion from the fast route, the oracle and a direct product
    # expansion, computed at two different truncation orders
    for nmax in (30, 64):
        fast = eta24_series(nmax)
        slow = naive_product_series(nmax)
        assert list(fast) == list(slow)
        assert oracle_eta24(nmax) == slow
    short = eta24_series(20)
    assert list(short) == list(eta24_series(50))[: len(short)]


def test_grown_series_equals_the_oracle_through_1e4(monkeypatch):
    monkeypatch.setattr(ingest, "_ETA24", [1])
    assert list(eta24_series(10**4)) == oracle_eta24(10**4)


def test_hecke_relation_at_prime_squares():
    for p in sieve(100):
        assert tau(p * p) == tau(p) ** 2 - p**11


def test_tau_multiplicative():
    rng = random.Random(5077)
    for _ in range(30):
        m = rng.randrange(2, 40)
        n = rng.randrange(2, 40)
        if math.gcd(m, n) == 1:
            assert tau(m * n) == tau(m) * tau(n)


def test_a_wrong_composite_entry_fails_the_division(monkeypatch):
    # index 99 holds tau(100), a composite filled by the Hecke relations;
    # the recurrence at n = 100 (101 is prime) reads it with weight
    # (9 - 100) g_1 = 273, which 100 does not divide
    prefix = oracle_eta24(99)
    prefix[99] += 1
    monkeypatch.setattr(ingest, "_ETA24", prefix)
    with pytest.raises(ArithmeticError, match="at n=100$"):
        ingest._grow_eta24(200)


def test_delta_eigenvalues_list_every_prime():
    assert list(delta_eigenvalues(100)) == sieve(100)
    assert list(delta_eigenvalues(101)) == sieve(101)
    assert delta_eigenvalues(2) == {2: -24}


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
    assert eta24_series(89)[89] == want[89]
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


def oracle_x0_11(xmax):
    """Oracle: q prod (1-q^n)^2 (1-q^(11n))^2 expanded in full through
    q^(xmax-1), the q^11 factor by two passes over every index, read at
    the primes p <= xmax other than 11."""
    nmax = max(xmax - 1, 0)

    def pentagonal(step):
        # nonzero terms (e, sign) of prod (1 - q^(step n)) through q^nmax
        terms = [(0, 1)]
        k = 1
        while step * k * (3 * k - 1) // 2 <= nmax:
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if step * e <= nmax:
                    terms.append((step * e, (-1) ** k))
            k += 1
        return terms

    c = [0] * (nmax + 1)
    for e1, s1 in pentagonal(1):
        for e2, s2 in pentagonal(1):
            if e1 + e2 <= nmax:
                c[e1 + e2] += s1 * s2
    for _ in range(2):
        out = [0] * (nmax + 1)
        for e, s in pentagonal(11):
            for n in range(e, nmax + 1):
                out[n] += s * c[n - e]
        c = out
    return {p: c[p - 1] for p in sieve(xmax) if p != 11}


def test_builtin_11a_equals_the_full_expansion_through_2e4():
    assert ingest.x0_11_eigenvalues(2 * 10**4) == oracle_x0_11(2 * 10**4)
    for xmax in (2, 3, 11, 12, 13, 23, 24, 100):
        assert ingest.x0_11_eigenvalues(xmax) == oracle_x0_11(xmax), xmax


def test_builtin_11a_matches_point_counts():
    want = {p: x0_11_ap(p) for p in sieve(2000) if p != 11}
    assert builtin_form("11a", 2000).ap == want


def test_builtin_11a_congruence_and_hasse_through_1e5():
    # past the oracles' range: 11a has a rational point of order 5, which
    # injects into E(F_p) for p != 11, so 5 divides #E(F_p) = p + 1 - a_p
    ap = ingest.x0_11_eigenvalues(10**5)
    assert list(ap) == [p for p in sieve(10**5) if p != 11]
    for p, a in ap.items():
        assert (a - 1 - p) % 5 == 0, p
        assert a * a <= 4 * p, p


def test_builtin_delta_congruence_mod_691_through_1e4():
    # Ramanujan: tau(n) = sigma_11(n) mod 691, so tau(p) = 1 + p^11
    for p, t in delta_eigenvalues(10**4).items():
        assert (t - 1 - pow(p, 11, 691)) % 691 == 0, p


def test_packed_square_product_matches_the_naive_product():
    rng = random.Random(4111)
    for n in (1, 2, 7, 40):
        series = [rng.randrange(-1000, 1001) for _ in range(n)]
        exponents = sorted(rng.sample(range(n), min(n, 6)))
        terms = [(e, rng.choice((1, -1))) for e in exponents]
        want = series
        for _ in range(2):
            out = [0] * n
            for e, s in terms:
                for i in range(e, n):
                    out[i] += s * want[i - e]
            want = out
        assert list(ingest._times_square_packed(series, terms)) == want


def test_packed_square_product_is_exact_up_to_the_slot_width():
    top = 2**31 - 1
    series = [top, -top, 0, 1, -1]
    assert list(ingest._times_square_packed(series, [(0, 1)])) == series
    # 46340^2 < 2^31 <= 46341^2: the largest coefficient the bound admits
    # round-trips, and one more term is refused before it could wrap
    ones = [(0, 1)] * 46340
    assert list(ingest._times_square_packed([-1, 1], ones)) == [-(46340**2), 46340**2]
    for series, terms in (
        ([2**31], [(0, 1)]),
        ([0, -(2**31)], [(0, 1)]),
        ([1], ones + [(0, -1)]),
        ([2**29], [(0, 1), (1, -1)]),
    ):
        with pytest.raises(ArithmeticError, match="does not fit 32 bits"):
            ingest._times_square_packed(series, terms)


def test_deligne_exact():
    assert deligne_ok(tau(5), 5**11)
    # 4 * 5^11 = 195312500; isqrt gives the edge
    assert deligne_ok(13975, 5**11)
    assert not deligne_ok(13976, 5**11)


def delta_pairs(xmax):
    """The points of the scan of Delta against itself with the trivial
    character, up to xmax, with each side made as the command line makes
    it: the second builtin_form reads the series the first grew."""
    f1, f2 = builtin_form("delta", xmax), builtin_form("delta", xmax)
    return prepare_scan_points(f1, f2, parse_char_spec("trivial"), xmax)[0]


def test_satake_pair():
    points = delta_pairs(7)
    assert sorted(points) == [2, 3, 5, 7]
    for p, (a, b, _a2, _b2, _cv) in points.items():
        assert abs(abs(a) - 1) < 1e-12 and abs(abs(b) - 1) < 1e-12
        assert abs(a * b - 1) < 1e-12
        assert abs((a + b) - tau(p) / p**5.5) < 1e-12


def test_same_form_on_both_sides_gives_equal_pairs():
    for p, (a1, b1, a2, b2, cv) in delta_pairs(60).items():
        assert (a1, b1) == (a2, b2) and cv == 1


def test_builtin_forms():
    f = builtin_form("delta", 50)
    assert f.weight == 12 and f.level == 1
    assert f.ap[7] == tau(7)
    g = builtin_form("11a", 50)
    assert g.weight == 2 and g.level == 11
    assert 11 not in g.ap
    with pytest.raises(IngestError):
        builtin_form("37b", 50)


def kronecker(a, n):
    """Oracle: the Kronecker symbol (a|n) for any integers, by reciprocity."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out twos of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # quadratic reciprocity loop on odd n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


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


def test_kronecker_character_at_primes_matches_the_oracle():
    # p = 2 and every p dividing d included, though a scan skips them all
    primes = sieve(2999)
    for d in range(-300, 301):
        chi = CharacterData(abs(4 * d), f"kronecker:{d}", d)
        for p in primes:
            assert chi.value(p) == kronecker(d, p), (d, p)


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
        ("#weight 12 level 1\n2.0\t-24\n", 2, "non-integer p"),
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


# OEIS A014233: entry k is the smallest strong pseudoprime to all of the
# first k prime bases, so is_prime, which tests all 13, must refuse each
# one below MR_LIMIT, the 13th
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_miller_rabin_bounds_are_the_first_pseudoprimes_of_each_prefix():
    bases = ingest._MR_BASES
    assert len(A014233) == len(bases) and A014233[-1] == MR_LIMIT
    assert list(A014233) == sorted(A014233)
    assert bases == FIRST_PRIMES[: len(bases)]
    for k, bound in enumerate(A014233, 1):
        # composite (some base witnesses it), yet it passes the first k
        # bases, so a mistyped value goes red
        assert not all(_strong_probable_prime(bound, a) for a in FIRST_PRIMES)
        assert all(_strong_probable_prime(bound, a) for a in bases[:k]), bound
        if bound < MR_LIMIT:
            assert not is_prime(bound), bound
    # and the first value is the smallest one: no odd composite below 2047
    # is a strong pseudoprime to base 2
    odd_composites = set(range(9, 2047, 2)) - set(sieve(2047))
    assert not any(_strong_probable_prime(n, 2) for n in odd_composites)


def test_is_prime_on_each_side_of_every_bound():
    # the nearest primes around each pseudoprime are accepted, and every
    # number between them is refused
    for bound in sorted(set(A014233)):
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


def _row_table(tmp_path, p):
    """A 3-line table file (the empty line after its last newline counts)
    whose one row lists p."""
    f = tmp_path / "rows.tsv"
    f.write_text(f"#weight 2 level 1\n{p}\t0\n")
    return str(f)


def test_table_rows_on_each_side_of_the_sieve_bound(tmp_path, monkeypatch):
    # a 3-line table sieves through 3 * SIEVE_PER_LINE, and only a p past
    # that bound goes to is_prime
    bound = 3 * ingest.SIEVE_PER_LINE
    tested = []
    monkeypatch.setattr(ingest, "is_prime", lambda n: tested.append(n) or is_prime(n))
    below = max(sieve(bound))
    above = next(n for n in range(bound + 1, 2 * bound) if is_prime(n))
    for p, calls in ((below, []), (above, [above])):
        tested.clear()
        assert load_eigenvalue_file(_row_table(tmp_path, p)).ap == {p: 0}
        assert tested == calls
    composites = (
        max(n for n in range(4, bound + 1) if not is_prime(n)),
        next(n for n in range(bound + 1, 2 * bound) if not is_prime(n)),
    )
    for n in composites:
        with pytest.raises(IngestError, match=f"rows.tsv:2: {n} is not prime$"):
            load_eigenvalue_file(_row_table(tmp_path, n))


def test_table_rows_that_are_not_prime(tmp_path):
    # mirror, read as an index, is the sieve's largest prime (47 at -2); no
    # p below 2 indexes the sieve
    bound = 3 * ingest.SIEVE_PER_LINE
    mirror = -(bound + 1 - max(sieve(bound)))
    above = next(n for n in range(bound + 1, 2 * bound) if is_prime(n))
    for n in (-7, mirror, 0, 1, 4, above * above):
        with pytest.raises(IngestError, match=f"rows.tsv:2: {n} is not prime$"):
            load_eigenvalue_file(_row_table(tmp_path, n))


def test_a_short_table_sieves_only_its_bound(tmp_path, monkeypatch):
    # a 13-digit prime in a 2-line table costs a sieve of a few dozen
    # numbers and one is_prime call, not a sieve up to p
    p = 10**12 + 39
    sieved = []
    flags = ingest.prime_flags
    monkeypatch.setattr(ingest, "prime_flags", lambda n: sieved.append(n) or flags(n))
    assert load_eigenvalue_file(_row_table(tmp_path, p)).ap == {p: 0}
    assert sieved == [3 * ingest.SIEVE_PER_LINE] and sieved[0] < 100


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
    # one digit past the limit: the sign is not counted as a digit
    limit = sys.get_int_max_str_digits()
    with pytest.raises(IngestError, match=f"[(]{limit + 1} digits, limit {limit}[)]"):
        parse_char_spec("kronecker:-" + "9" * (limit + 1))
    # rows follow the rules of an eigenvalue table's rows
    for text, frag in (
        (f"{LONG}\t1.0\t0.0\n", "char.tsv:1: p is too long"),
        ("3\t1.0\t0.0\n5\t1.0\n", "char.tsv:2: expected"),
        ("# values\n3.0\t1.0\t0.0\n", "char.tsv:2: non-integer p"),
        ("3\t1.0\t0.0\n\n9\t1.0\t0.0\n", "char.tsv:3: 9 is not prime"),
        ("3\t1.0\t0.0\n3\t-1.0\t0.0\n", "char.tsv:2: duplicate prime 3"),
        ("3\t1.0\tx\n", "char.tsv:1: bad number"),
        ("# no rows\n", "no character rows"),
    ):
        t.write_text(text)
        with pytest.raises(IngestError, match=frag):
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
    # a truncated form table surfaces as a missing-eigenvalue error naming
    # the form (11 is ramified, so 13 is the first prime missing)
    trivial = parse_char_spec("trivial")
    missing = "no eigenvalue for unramified p=13$"
    with pytest.raises(IngestError, match="^builtin:delta: " + missing):
        prepare_scan_points(builtin_form("delta", 10), f2, trivial, 100)
    with pytest.raises(IngestError, match="^builtin:11a: " + missing):
        prepare_scan_points(f1, builtin_form("11a", 10), trivial, 100)
