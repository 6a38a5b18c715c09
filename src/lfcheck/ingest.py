"""Hecke eigenvalue sources for the numeric scan: two built-in classical
forms computed from scratch, a TSV loader for user data, and characters.
Eigenvalue tables and character tables share one reader for their rows,
keyed by primes (_prime_rows); each adds only its own checks on the
values.

Both built-ins come from eta products.  The weight-12 level-1 form is
q prod (1-q^n)^24, grown on demand.  Its coefficient tau(p) at a prime
takes the power recurrence for the 8th power of Jacobi's series for
prod (1-q^n)^3; every other coefficient follows from smaller ones by the
Hecke relations of a level-1 eigenform, tau(ab) = tau(a) tau(b) for coprime
a, b and tau(p^(e+1)) = tau(p) tau(p^e) - p^11 tau(p^(e-1)).  The weight-2
level-11 form is q prod (1-q^n)^2 (1-q^(11n))^2 from Euler's pentagonal
series: the square is expanded at every index, and the two q^11 factors
are applied to it packed into one int, as shifted adds.  The tests check
each against an independent oracle: the power recurrence at every index
and the naive product, and the full expansion and point counts on
y^2 + y = x^3 - x^2 - 10x - 20.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from itertools import compress, islice
from typing import NamedTuple

from . import UNIT_SLACK, InputError, read_lines


class IngestError(InputError):
    pass


class BoundError(IngestError):
    """Data that parsed fine but violates the exact eigenvalue bound."""


def prime_flags(n: int) -> bytearray:
    """flags[i] is 1 if i is prime and 0 if not, for 0 <= i <= n; n >= 1."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return flags


def sieve(n: int) -> list[int]:
    """The primes up to n."""
    if n < 2:
        return []
    return list(compress(range(n + 1), prime_flags(n)))


_FLOAT_MAX = int(sys.float_info.max)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with these 13 bases is exact below the smallest strong
# pseudoprime to all of them (OEIS A014233)
MR_LIMIT = 3317044064679887385961981
_BASES_PRODUCT = math.prod(_MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < MR_LIMIT."""
    if n < 2:
        return False
    if math.gcd(n, _BASES_PRODUCT) != 1:
        return n in _MR_BASES
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int(name: str, lineno: int | None, what: str, text: str, fault: str) -> int:
    """int(text), or an IngestError at `name:lineno` (at `name` when lineno
    is None) saying `fault`.  A decimal numeral past the interpreter's
    limit on digits, which int() refuses with the same ValueError as a
    non-numeral, is reported as too long."""
    try:
        return int(text)
    except ValueError:
        pass
    where = name if lineno is None else f"{name}:{lineno}"
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    limit = sys.get_int_max_str_digits()
    if digits.isdecimal() and 0 < limit < len(digits):
        raise IngestError(
            f"{where}: {what} is too long ({len(digits)} digits, limit {limit})"
        )
    raise IngestError(f"{where}: {fault}")


# table rows certify p by one sieve up to this many numbers per line of the
# file, so its cost is bounded by the input's size; p above it takes is_prime
SIEVE_PER_LINE = 16


def _prime_rows(name: str, lines: list[str], start: int, shape: str):
    """(lineno, p, fields) for each row of a prime-keyed TSV table, read
    from the lines of file `name` after its first `start`.  Blank lines and
    '#' comments are skipped.  Each row has as many tab-separated fields as
    `shape`, and the first is a prime that no earlier row lists.  p is
    certified by a lookup in one sieve up to SIEVE_PER_LINE times the
    file's line count, and by is_prime above that bound.  A row's
    `name:lineno` is formatted only for an error, here and in the callers."""
    width = len(shape.split("\\t"))
    flags = prime_flags(SIEVE_PER_LINE * len(lines))
    seen = set()
    for lineno, raw in islice(enumerate(lines, 1), start, None):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise IngestError(f"{name}:{lineno}: expected '{shape}', got {line!r}")
        p = _int(name, lineno, "p", fields[0], "non-integer p")
        if p >= MR_LIMIT:
            raise IngestError(
                f"{name}:{lineno}: {p} is too large to certify as prime "
                f"(limit {MR_LIMIT})"
            )
        if p < len(flags):
            prime = p > 1 and flags[p]  # p < 2, negatives too, never indexes flags
        else:
            prime = is_prime(p)
        if not prime:
            raise IngestError(f"{name}:{lineno}: {p} is not prime")
        if p in seen:
            raise IngestError(f"{name}:{lineno}: duplicate prime {p}")
        seen.add(p)
        yield lineno, p, fields


# prod (1-q^n)^24 through the largest exponent asked for so far
_ETA24 = [1]


def _grow_eta24(nmax: int) -> tuple[list[int], list[int]]:
    """_ETA24, first extended through q^nmax, and the primes up to nmax + 1.

    f = prod (1-q^n)^24 = sum tau(n+1) q^n is Delta / q, so f_n is the
    Hecke eigenvalue tau(n+1) of a level-1 eigenform.  Only at an index
    with n + 1 prime does f_n take the power recurrence: with g = prod
    (1-q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2} (Jacobi) and f = g^8,
    n f_n = sum_{j>=1} (9j - n) g_j f_{n-j}.  Every other index follows from
    smaller ones by the Hecke relations tau(ab) = tau(a) tau(b) for coprime
    a, b and tau(p^(e+1)) = tau(p) tau(p^e) - p^11 tau(p^(e-1)).  A wrong
    entry feeds every later prime index, so the division is checked."""
    f = _ETA24
    primes = sieve(nmax + 1)
    if len(f) > nmax:
        return f, primes
    g = []
    for k in range(1, (math.isqrt(8 * nmax + 1) + 1) // 2):  # k(k+1)/2 <= nmax
        j = k * (k + 1) // 2
        gj = (-1) ** k * (2 * k + 1)
        g.append((j, gj, 9 * j * gj))
    i = bisect_right(primes, len(f))  # primes[i] is the next prime m = n + 1
    for n in range(len(f), nmax + 1):
        m = n + 1
        if i < len(primes) and primes[i] == m:
            i += 1
            s = 0
            for j, gj, a in g:
                if j > n:
                    break
                s += (a - n * gj) * f[n - j]
            if s % n:
                raise ArithmeticError(
                    f"prod (1-q^n)^24: power recurrence does not divide at n={n}"
                )
            f.append(s // n)
            continue
        # m is composite, so its smallest prime factor p is at most sqrt(m)
        for p in primes:
            if m % p == 0:
                break
        q = p  # grows to p^e, the full power of p in m
        while m % (q * p) == 0:
            q *= p
        if q < m:
            f.append(f[q - 1] * f[m // q - 1])
        else:
            f.append(f[p - 1] * f[m // p - 1] - p**11 * f[m // (p * p) - 1])
    return f, primes


def delta_eigenvalues(xmax: int) -> dict[int, int]:
    """a_p of the weight-12 level-1 form for primes p <= xmax."""
    series, primes = _grow_eta24(xmax - 1)
    return {p: series[p - 1] for p in primes}


def _pentagonal(nmax: int, step: int) -> list[tuple[int, int]]:
    """Nonzero terms (e, sign) of prod (1 - q^(step n)) through q^nmax (Euler)."""
    terms = [(0, 1)]
    k = 1
    while step * k * (3 * k - 1) // 2 <= nmax:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * e <= nmax:
                terms.append((step * e, -1 if k % 2 else 1))
        k += 1
    return terms


def _times_square_packed(series: list[int], terms: list[tuple[int, int]]):
    """series * (sum s q^e over terms)^2 through the length of series, as a
    tuple of ints that each fit a signed 32-bit word; no exponent e may
    exceed len(series).

    The series is packed into one int X with the coefficient of q^n in bits
    32n to 32n + 31 (little-endian two's complement words, on every
    platform), so multiplying by s q^e adds s (X << 32e), and masking X to
    len(series) slots truncates the series.  Every coefficient is read
    back with a bias of 2^31 per slot, which is exact while each lies
    strictly between -2^31 and 2^31.  Each coefficient of both products sums
    at most len(terms)^2 signed entries of the series, so that holds a
    priori below the bound checked first; past it one slot could carry into
    the next, which is an internal error."""
    bound = max(map(abs, series)) * len(terms) ** 2
    if bound >= 1 << 31:
        raise ArithmeticError(
            f"packed product: coefficient bound {bound} does not fit 32 bits"
        )
    n = len(series)
    words = f"<{n}i"
    bias = int.from_bytes(b"\0\0\0\x80" * n, "little")
    mask = (1 << 32 * n) - 1
    # two's complement slots, then the same series as a sum of signed slots
    x = ((int.from_bytes(struct.pack(words, *series), "little") ^ bias) - bias) & mask
    for _ in range(2):
        acc = 0
        for e, s in terms:
            # only the low n - e slots of x reach the first n of the product
            y = (x & ((1 << 32 * (n - e)) - 1)) << 32 * e
            acc = acc + y if s > 0 else acc - y
        x = acc & mask
    return struct.unpack(words, (((x + bias) & mask) ^ bias).to_bytes(4 * n, "little"))


def x0_11_eigenvalues(xmax: int) -> dict[int, int]:
    """a_p of the level-11 weight-2 form q prod (1-q^n)^2 (1-q^(11n))^2 for
    primes p <= xmax other than 11; a_p sits at q^(p-1) of the product.

    h = prod (1-q^n)^2 comes from pairs of Euler's pentagonal terms, and
    both factors prod (1-q^(11n)) are applied to h packed into one int, one
    shift-add per term (49 terms at xmax 10^4)."""
    nmax = max(xmax - 1, 0)
    h = [0] * (nmax + 1)
    euler = _pentagonal(nmax, 1)  # ascending exponents
    for e1, s1 in euler:
        for e2, s2 in euler:
            if e1 + e2 > nmax:
                break
            h[e1 + e2] += s1 * s2
    product = _times_square_packed(h, _pentagonal(nmax, 11))
    return {p: product[p - 1] for p in sieve(xmax) if p != 11}


def deligne_ok(ap: int, pw: int) -> bool:
    """Exact integer check a_p^2 <= 4 p^(k-1), given pw = p^(k-1)."""
    return ap * ap <= 4 * pw


def _satake_alpha(ap: int, p: int, k: int) -> complex:
    """alpha of the Satake pair (alpha, conj(alpha)) of an a_p that the
    caller has checked against the eigenvalue bound."""
    t = ap / math.sqrt(p ** (k - 1))
    disc = max(0.0, 1.0 - t * t / 4.0)
    return complex(t / 2.0, math.sqrt(disc))


class NewformData(NamedTuple):
    weight: int
    level: int
    ap: dict[int, int]
    source: str


def _bound_error(where: str, ap: int, p: int, k: int) -> BoundError:
    return BoundError(
        f"{where}: a_p={ap} violates the eigenvalue bound at p={p} for weight {k}"
    )


# the built-in forms: name -> (weight, level, a_p at the primes up to xmax
# that do not divide the level)
BUILTINS = {
    "delta": (12, 1, delta_eigenvalues),
    "11a": (2, 11, x0_11_eigenvalues),
}


def builtin_form(name: str, xmax: int) -> NewformData:
    """A built-in form with its a_p at the primes up to xmax that do not
    divide its level, each checked against the exact eigenvalue bound as a
    table row is."""
    if name not in BUILTINS:
        raise IngestError(
            f"unknown builtin form {name!r} (use {' or '.join(BUILTINS)})"
        )
    k, level, eigenvalues = BUILTINS[name]
    form = NewformData(k, level, eigenvalues(xmax), f"builtin:{name}")
    for p, ap in form.ap.items():
        if not deligne_ok(ap, p ** (k - 1)):
            raise _bound_error(form.source, ap, p, k)
    return form


def load_eigenvalue_file(path: str) -> NewformData:
    """TSV loader.  First non-blank line: '#weight <k> level <N>'; then
    prime-keyed rows '<p>\\t<a_p>' (see _prime_rows), each checked
    against the exact eigenvalue bound."""
    lines = read_lines(path)
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line:
            break
    else:
        raise IngestError(f"{path}: empty file")
    where = f"{path}:{lineno}"
    parts = line.split()
    if len(parts) != 4 or parts[0] != "#weight" or parts[2] != "level":
        raise IngestError(
            f"{where}: expected header '#weight <k> level <N>', got {line!r}"
        )
    k = _int(path, lineno, "weight", parts[1], "non-integer weight or level")
    N = _int(path, lineno, "level", parts[3], "non-integer weight or level")
    if k < 1 or N < 1:
        raise IngestError(f"{where}: weight and level must be >= 1")
    w = k - 1
    table: dict[int, int] = {}
    for lineno, p, fields in _prime_rows(path, lines, lineno, "<p>\\t<a_p>"):
        ap = _int(path, lineno, "a_p", fields[1], "non-integer entry")
        # sqrt(p^(k-1)) is taken in floats; bit lengths catch a huge k first
        if w * (p.bit_length() - 1) >= 1024 or (pw := p**w) > _FLOAT_MAX:
            raise IngestError(
                f"{path}:{lineno}: p^(k-1) = {p}^{w} is too large for a float"
            )
        if N % p != 0 and not deligne_ok(ap, pw):
            raise _bound_error(f"{path}:{lineno}", ap, p, k)
        table[p] = ap
    if not table:
        raise IngestError(f"{path}: no eigenvalue rows")
    return NewformData(k, N, table, path)


class CharacterData(NamedTuple):
    """A table character has its values in `table`, a Kronecker character
    its discriminant in `disc`; the trivial character has neither."""

    modulus: int
    spec: str
    disc: int | None = None
    table: dict[int, complex] | None = None

    def value(self, p: int) -> complex:
        """chi(p) at a prime p.  A Kronecker character takes the symbol
        (d|p): Euler's criterion d^((p-1)/2) mod p for odd p, and d mod 8
        at p = 2."""
        if self.table is not None:
            if p not in self.table:
                raise IngestError(f"{self.spec}: no character value for p={p}")
            return self.table[p]
        d = self.disc
        if d is None:
            return 1.0 + 0j
        if p == 2:
            return complex(0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1)
        s = pow(d, (p - 1) // 2, p)
        return complex(s - p if s > 1 else s)


def parse_char_spec(spec: str) -> CharacterData:
    """'trivial', 'kronecker:<d>', or a path to a table of prime-keyed rows
    '<p>\\t<re>\\t<im>' (see _prime_rows) of unit-modulus values."""
    if spec == "trivial":
        return CharacterData(1, "trivial")
    if spec.startswith("kronecker:"):
        text = spec.split(":", 1)[1]
        d = _int("--char", None, "discriminant", text, f"bad discriminant in {spec!r}")
        if d == 0:
            raise IngestError("kronecker discriminant must be nonzero")
        return CharacterData(abs(4 * d), spec, d)
    try:
        lines = read_lines(spec)
    except OSError:
        raise IngestError(
            f"character spec {spec!r} is neither 'trivial', 'kronecker:<d>', "
            "nor a readable file"
        ) from None
    table: dict[int, complex] = {}
    rows = _prime_rows(spec, lines, 0, "<p>\\t<re>\\t<im>")
    for lineno, p, fields in rows:
        try:
            v = complex(float(fields[1]), float(fields[2]))
        except ValueError:
            raise IngestError(f"{spec}:{lineno}: bad number") from None
        # written so that a NaN part fails too: a NaN value would make
        # every check at its point pass
        if not abs(abs(v) - 1) <= UNIT_SLACK:
            raise IngestError(f"{spec}:{lineno}: character value not unit modulus")
        table[p] = v
    if not table:
        raise IngestError(f"{spec}: no character rows")
    return CharacterData(1, spec, table=table)


def prepare_scan_points(
    form1: NewformData,
    form2: NewformData,
    char: CharacterData,
    xmax: int,
) -> tuple[dict[int, tuple[complex, complex, complex, complex, complex]], list[int]]:
    """Satake and character values at primes up to xmax with good reduction
    everywhere; returns (points, skipped ramified primes).

    Every unramified a_p met the eigenvalue bound when its form was made
    (builtin_form, load_eigenvalue_file), so each Satake pair is built by
    _satake_alpha without checking it again."""
    points = {}
    skipped = []
    bad = form1.level * form2.level * char.modulus
    ap1, k1, ap2, k2 = form1.ap, form1.weight, form2.ap, form2.weight
    for p in sieve(xmax):
        if bad % p == 0:
            skipped.append(p)
            continue
        if p not in ap1 or p not in ap2:
            form = form2 if p in ap1 else form1
            raise IngestError(f"{form.source}: no eigenvalue for unramified p={p}")
        a1 = _satake_alpha(ap1[p], p, k1)
        a2 = _satake_alpha(ap2[p], p, k2)
        points[p] = (a1, a1.conjugate(), a2, a2.conjugate(), char.value(p))
    return points, skipped
