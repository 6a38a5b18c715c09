"""Hecke eigenvalue sources for the numeric scan: two built-in classical
forms computed from scratch, a TSV loader for user data, and character
value tables.

Both built-ins come from eta products.  The weight-12 level-1 form is
prod (1-q^n)^24, grown on demand as the 8th power of Jacobi's series for
prod (1-q^n)^3; the weight-2 level-11 form is q prod (1-q^n)^2 (1-q^(11n))^2
from Euler's pentagonal series.  The tests check each against an independent
oracle: the naive product, and point counts on y^2 + y = x^3 - x^2 - 10x - 20.
"""

from __future__ import annotations

import math
import sys
from operator import add, sub
from typing import NamedTuple

from . import InputError, read_lines


class IngestError(InputError):
    pass


class BoundError(IngestError):
    """Data that parsed fine but violates the exact eigenvalue bound."""


def sieve(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_FLOAT_MAX = int(sys.float_info.max)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first k bases is exact below _MR_BOUNDS[k - 1]: the
# smallest strong pseudoprime to all of them (OEIS A014233)
_MR_BOUNDS = (
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
MR_LIMIT = _MR_BOUNDS[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < MR_LIMIT.
    Uses the shortest prefix of the bases that is exact below n."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((i for i, b in enumerate(_MR_BOUNDS, 1) if n < b), len(_MR_BASES))
    for a in _MR_BASES[:k]:
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


def _refuse_long_numeral(where: str, what: str, text: str) -> None:
    """Raise when int(text) failed only because text is a decimal numeral
    past the interpreter's limit on digits, which int() reports with the
    same ValueError as a non-numeral."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    limit = sys.get_int_max_str_digits()
    if digits.isdecimal() and 0 < limit < len(digits):
        raise IngestError(
            f"{where}: {what} is too long ({len(digits)} digits, limit {limit})"
        )


# prod (1-q^n)^24 through the largest exponent asked for so far
_ETA24 = [1]


def _grow_eta24(nmax: int) -> list[int]:
    """_ETA24, first extended through q^nmax.  With g = prod (1-q^n)^3 =
    sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2} (Jacobi) and f = g^8, the power
    recurrence n f_n = sum_{j>=1} (9j - n) g_j f_{n-j} divides exactly."""
    f = _ETA24
    if len(f) > nmax:
        return f
    g = []
    for k in range(1, (math.isqrt(8 * nmax + 1) + 1) // 2):  # k(k+1)/2 <= nmax
        j = k * (k + 1) // 2
        gj = (-1) ** k * (2 * k + 1)
        g.append((j, gj, 9 * j * gj))
    for n in range(len(f), nmax + 1):
        s = 0
        for j, gj, a in g:
            if j > n:
                break
            s += (a - n * gj) * f[n - j]
        f.append(s // n)
    return f


def delta_eigenvalues(xmax: int) -> dict[int, int]:
    """a_p of the weight-12 level-1 form for primes p <= xmax."""
    series = _grow_eta24(xmax)
    return {p: series[p - 1] for p in sieve(xmax)}


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


def x0_11_eigenvalues(xmax: int) -> dict[int, int]:
    """a_p of the level-11 weight-2 form q prod (1-q^n)^2 (1-q^(11n))^2 for
    primes p <= xmax other than 11; a_p sits at q^(p-1) of the product."""
    nmax = max(xmax - 1, 0)
    c = [0] * (nmax + 1)
    euler = _pentagonal(nmax, 1)  # ascending exponents
    for e1, s1 in euler:
        for e2, s2 in euler:
            if e1 + e2 > nmax:
                break
            c[e1 + e2] += s1 * s2
    for step in (11, 11):
        out = [0] * (nmax + 1)
        for e, s in _pentagonal(nmax, step):
            out[e:] = map(add if s > 0 else sub, out[e:], c[: nmax + 1 - e])
        c = out
    return {p: c[p - 1] for p in sieve(xmax) if p != 11}


def deligne_ok(ap: int, p: int, k: int) -> bool:
    """Exact integer check a_p^2 <= 4 p^(k-1)."""
    return ap * ap <= 4 * p ** (k - 1)


def satake_from_ap(ap: int, p: int, k: int) -> tuple[complex, complex]:
    """Unit-modulus Satake pair for a weight-k eigenvalue with trivial
    nebentypus normalization (alpha * beta = 1)."""
    if not deligne_ok(ap, p, k):
        raise BoundError(f"eigenvalue bound fails at p={p}: |a_p| too large")
    t = ap / math.sqrt(p ** (k - 1))
    disc = max(0.0, 1.0 - t * t / 4.0)
    alpha = complex(t / 2.0, math.sqrt(disc))
    return alpha, alpha.conjugate()


class NewformData(NamedTuple):
    weight: int
    level: int
    ap: dict[int, int]
    source: str

    def satake(self, p: int) -> tuple[complex, complex]:
        if p not in self.ap:
            raise IngestError(f"no eigenvalue stored for p={p} ({self.source})")
        return satake_from_ap(self.ap[p], p, self.weight)


def builtin_form(name: str, xmax: int) -> NewformData:
    if name == "delta":
        return NewformData(12, 1, delta_eigenvalues(xmax), "builtin:delta")
    if name == "11a":
        return NewformData(2, 11, x0_11_eigenvalues(xmax), "builtin:11a")
    raise IngestError(f"unknown builtin form {name!r} (use delta or 11a)")


def load_eigenvalue_file(path: str) -> NewformData:
    """TSV loader.  First non-blank line: '#weight <k> level <N>'; data
    lines: '<p>\\t<a_p>'.  Validates primality, duplicates, and the exact
    eigenvalue bound."""
    k = N = None
    table: dict[int, int] = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line:
            continue
        if k is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "#weight" or parts[2] != "level":
                raise IngestError(
                    f"{path}:{lineno}: expected header "
                    f"'#weight <k> level <N>', got {line!r}"
                )
            try:
                k, N = int(parts[1]), int(parts[3])
            except ValueError:
                _refuse_long_numeral(f"{path}:{lineno}", "weight", parts[1])
                _refuse_long_numeral(f"{path}:{lineno}", "level", parts[3])
                raise IngestError(
                    f"{path}:{lineno}: non-integer weight or level"
                ) from None
            if k < 1 or N < 1:
                raise IngestError(f"{path}:{lineno}: weight and level must be >= 1")
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise IngestError(
                f"{path}:{lineno}: expected '<p>\\t<a_p>', got {line!r}"
            )
        try:
            p, ap = int(fields[0]), int(fields[1])
        except ValueError:
            _refuse_long_numeral(f"{path}:{lineno}", "p", fields[0])
            _refuse_long_numeral(f"{path}:{lineno}", "a_p", fields[1])
            raise IngestError(f"{path}:{lineno}: non-integer entry") from None
        if p >= MR_LIMIT:
            raise IngestError(
                f"{path}:{lineno}: {p} is too large to certify as prime "
                f"(limit {MR_LIMIT})"
            )
        if not is_prime(p):
            raise IngestError(f"{path}:{lineno}: {p} is not prime")
        if p in table:
            raise IngestError(f"{path}:{lineno}: duplicate prime {p}")
        # sqrt(p^(k-1)) is taken in floats; bit lengths catch a huge k first
        w = k - 1
        if w * (p.bit_length() - 1) >= 1024 or p**w > _FLOAT_MAX:
            raise IngestError(
                f"{path}:{lineno}: p^(k-1) = {p}^{w} is too large for a float"
            )
        if N % p != 0 and not deligne_ok(ap, p, k):
            raise BoundError(
                f"{path}:{lineno}: a_p={ap} violates the eigenvalue "
                f"bound at p={p} for weight {k}"
            )
        table[p] = ap
    if k is None:
        raise IngestError(f"{path}: empty file")
    if not table:
        raise IngestError(f"{path}: no eigenvalue rows")
    return NewformData(k, N, table, path)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
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


class CharacterData(NamedTuple):
    """A table character has its values in `table`, a Kronecker character
    its discriminant in `disc`; the trivial character has neither."""

    modulus: int
    spec: str
    disc: int | None = None
    table: dict[int, complex] | None = None

    def value(self, p: int) -> complex:
        if self.table is not None:
            if p not in self.table:
                raise IngestError(f"no character value stored for p={p}")
            return self.table[p]
        if self.disc is None:
            return 1.0 + 0j
        return complex(kronecker(self.disc, p))


def parse_char_spec(spec: str) -> CharacterData:
    """'trivial', 'kronecker:<d>', or a path to a '<p>\\t<re>\\t<im>' table."""
    if spec == "trivial":
        return CharacterData(1, "trivial")
    if spec.startswith("kronecker:"):
        text = spec.split(":", 1)[1]
        try:
            d = int(text)
        except ValueError:
            _refuse_long_numeral("--char", "discriminant", text)
            raise IngestError(f"bad discriminant in {spec!r}") from None
        if d == 0:
            raise IngestError("kronecker discriminant must be nonzero")
        return CharacterData(abs(4 * d), spec, d)
    table: dict[int, complex] = {}
    try:
        lines = read_lines(spec)
    except OSError:
        raise IngestError(
            f"character spec {spec!r} is neither 'trivial', 'kronecker:<d>', "
            "nor a readable file"
        ) from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise IngestError(
                f"{spec}:{lineno}: expected '<p>\\t<re>\\t<im>'"
            )
        try:
            p = int(fields[0])
            v = complex(float(fields[1]), float(fields[2]))
        except ValueError:
            _refuse_long_numeral(f"{spec}:{lineno}", "p", fields[0])
            raise IngestError(f"{spec}:{lineno}: bad number") from None
        if p in table:
            raise IngestError(f"{spec}:{lineno}: duplicate prime {p}")
        # written so that a NaN part fails too: a NaN value would make
        # every check at its point pass
        if not abs(abs(v) - 1) <= 1e-6:
            raise IngestError(
                f"{spec}:{lineno}: character value not unit modulus"
            )
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
    everywhere; returns (points, skipped ramified primes)."""
    points = {}
    skipped = []
    bad = form1.level * form2.level * char.modulus
    for p in sieve(xmax):
        if bad % p == 0:
            skipped.append(p)
            continue
        if p not in form1.ap or p not in form2.ap:
            raise IngestError(f"missing eigenvalue at unramified p={p}")
        a1, b1 = form1.satake(p)
        a2, b2 = form2.satake(p)
        points[p] = (a1, b1, a2, b2, char.value(p))
    return points, skipped
