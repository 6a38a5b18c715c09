"""The numeric positivity scan: D's coefficient at each prime-power point,
evaluated directly and as the closed square |w|^2 (`dseries.W`), checked
for realness, non-negativity and the square identity.

`_compile` turns the three polynomials of `dseries.coeff_polys` into one
generated loop whose every value is bit-identical to term-by-term
evaluation; `scan_positivity` runs it and keeps the violations and the two
extremes.  A long scan is cut into contiguous chunks of primes, one per
CPU and at most one per MIN_CHUNK_ROWS rows; forked children run the loop
on every chunk but the first, which this process runs, and stream the
rows it yields back, and one tally reads every chunk's rows in p order.
Only the `scan` subcommand loads this module.
"""

from __future__ import annotations

import marshal
import os
import sys
from math import inf
from typing import BinaryIO, NamedTuple, Sequence

from . import TOL, UNIT_SLACK
from .dseries import coeff_polys, w_text
from .satake import VARS, CoefficientError


def _power_name(j: int, e: int) -> str:
    """The name the scan loop binds to u<j> ** e."""
    return f"w{j}_{e}" if e > 0 else f"w{j}_m{-e}"


def _power_lines(j: int, exps) -> list[str]:
    """Statements binding _power_name(j, e) to u<j> ** e for each nonzero e
    of exps, by the operations CPython's complex power performs for an
    integer exponent (c_powi): ONE, the complex 1+0j, times the squares
    u<j> ** 2^b over the set bits b of |e| in ascending order, and ONE
    divided by that when e < 0.  The squares are shared by all of exps, and
    e < 0 divides into the chain of -e when exps holds -e too."""
    top = max(map(abs, exps)).bit_length()
    sq = [f"u{j}"] + [f"u{j}_{1 << b}" for b in range(1, top)]
    lines = [f"{sq[b]} = {sq[b - 1]} * {sq[b - 1]}" for b in range(1, top)]
    for e in sorted(exps, key=lambda e: (e < 0, abs(e))):
        m = abs(e)
        chain = "ONE" + "".join(f" * {sq[b]}" for b in range(top) if m >> b & 1)
        if e > 0:
            rhs = chain
        elif m in exps:
            rhs = f"ONE / {_power_name(j, m)}"
        else:
            rhs = f"ONE / ({chain})"
        lines.append(f"{_power_name(j, e)} = {rhs}")
    return lines


# the variables of a prepared point, in its order: the four Satake slots and
# chi lead VARS; P, x and z read no other
_POINT_VARS = VARS[: VARS.index("chi") + 1]


def _compile(polys):
    """(generator function, coefficients): the scan loop over `polys`,
    which are P, x and z.

    fn(bases, lmax, tol, c0, c1, c2), where c<k> is `coefficients[k]`, the
    values of polys[k] in dict order, evaluates each row (p, l) for each
    (p, values) of `bases` and l = 1..lmax: the direct value s0, P at the
    point values ** l, and the closed square sq = |w|^2 there.  Each
    coefficient is unpacked from c<k> into a local once per call, so the
    source names only variables, exponents and indices, never a
    coefficient.  values holds the point's variables, the first
    len(_POINT_VARS) of VARS; variable j is bound from it as v<j> once per
    p and raised to l as u<j>, if some polynomial uses it.

    The loop yields (p, l, s0, sq) only for a row that may change the
    scan's result.  With r = s0.real, d = |r - sq|, lo the smallest r and
    hi the largest d of the rows before it, that is a row where r <
    max(lo, -tol), d > min(hi, tol) or |s0.imag| > tol, or where one of
    them is NaN; the first row always.  A negative tol thus yields every
    row.  The generator returns the number of rows it evaluated.

    Each distinct power u ** e is computed once and shared by every
    polynomial, by the operations CPython's own u ** e performs
    (_power_lines).  Every term starts from its coefficient, multiplies
    its factors in VARS order and is added to its sum in dict order; a
    product of a coefficient value and leading factors that two or more
    terms start with is computed once.  These are the floating-point
    operations of term-by-term evaluation on the same inputs, so every
    value is bit-identical to it; tests check the power chain against
    u ** e, signed zeros included.  One statement per term keeps long
    polynomials inside the compiler's nesting limit.
    """
    exps: dict[int, set[int]] = {}  # j -> the exponents e of u<j> ** e
    coefs = tuple(tuple(complex(v) for v in q.c.values()) for q in polys)
    terms = []  # (k, i, coefficient value, power names in VARS order)
    uses: dict[tuple, int] = {}  # (value, leading powers) -> terms sharing it
    for k, q in enumerate(polys):
        for i, key in enumerate(q.c):
            for j, e in enumerate(key):
                if e:
                    exps.setdefault(j, set()).add(e)
            ws = tuple(_power_name(j, e) for j, e in enumerate(key) if e)
            cv = coefs[k][i]
            terms.append((k, i, cv, ws))
            for n in range(1, len(ws) + 1):
                uses[cv, ws[:n]] = uses.get((cv, ws[:n]), 0) + 1
    used = sorted(exps)
    assert all(j < len(_POINT_VARS) for j in used), "a variable no point holds"
    lines = []
    for j in used:
        lines += [f"u{j} = v{j} ** l", *_power_lines(j, exps[j])]
    temps: dict[tuple, str] = {}  # shared prefix -> its t<n>
    sums: list[list[str]] = [[] for _ in polys]
    for k, i, cv, ws in terms:
        head, n = f"c{k}_{i}", 0
        while n < len(ws) and uses[cv, ws[: n + 1]] > 1:
            n += 1
            if (cv, ws[:n]) not in temps:
                temps[cv, ws[:n]] = f"t{len(temps)}"
                lines.append(f"{temps[cv, ws[:n]]} = {head} * {ws[n - 1]}")
            head = temps[cv, ws[:n]]
        sums[k].append(f"s{k} += {head}" + "".join(f" * {w}" for w in ws[n:]))
    for k, body in enumerate(sums):
        lines += [f"s{k} = 0j", *body]
    # lo and hi hold max(smallest r, -tol) and min(largest d, tol), so one
    # comparison each tells whether a row can move an extreme or fail
    lines += [
        f"sq = abs({w_text('s1', 's2', ' * ')}) ** 2",
        "n += 1",
        "r = s0.real",
        "d = abs(r - sq)",
        "if r >= lo and d <= hi and abs(s0.imag) <= tol:",
        "    continue",
        "lo = min(lo, max(r, -tol))",
        "hi = max(hi, min(d, tol))",
        "yield p, l, s0, sq",
    ]
    point = ", ".join(
        f"v{j}" if j in exps else "_" for j in range(len(_POINT_VARS))
    )
    src = "".join(
        [
            "def _f(bases, lmax, tol, c0, c1, c2):\n",
            "    ONE = 1 + 0j\n",
            *(
                f"    [{', '.join(f'c{k}_{i}' for i in range(len(cs)))}] = c{k}\n"
                for k, cs in enumerate(coefs)
            ),
            "    n, lo, hi = 0, inf, -inf\n",
            f"    for p, ({point}) in bases:\n",
            "        for l in range(1, lmax + 1):\n",
            *(f"            {line}\n" for line in lines),
            "    return n\n",
        ]
    )
    ns: dict = {"inf": inf}
    exec(compile(src, "<scan loop>", "exec"), ns)
    return ns["_f"], coefs


# Violation kinds, each named after the scan verdict it fails
NONNEGATIVITY = "nonnegativity"
REALNESS = "realness"
SQUARE_IDENTITY = "square identity"


class Violation(NamedTuple):
    """The first failure of one check, at the point (p, l), and `count`, the
    number of points that fail it: `value` is the direct coefficient at
    (p, l) and `square` the closed square form |w|^2."""

    kind: str
    p: int
    l: int
    value: complex
    square: float
    count: int

    def __str__(self) -> str:
        head = f"p={self.p} l={self.l}: "
        if self.kind == REALNESS:
            return head + f"coefficient not real ({self.value.imag:.3g})"
        if self.kind == NONNEGATIVITY:
            return head + f"negative coefficient ({self.value.real:.3g})"
        # the gap names the failure when both values print alike at 12 digits
        gap = abs(self.value.real - self.square)
        return head + (
            f"direct/square mismatch ({self.value.real:.12g} vs {self.square:.12g}, "
            f"gap {gap:.3g})"
        )


class ScanResult(NamedTuple):
    """Scan totals: `min_at` is the first (p, l) with the smallest direct
    coefficient and `max_delta_at` the first with the largest gap between
    it and the closed square, both None when nothing was checked, and
    `violations` holds one record per failed check."""

    checked: int = 0
    min_value: float = inf
    min_at: tuple[int, int] | None = None
    max_abs_delta: float = 0.0
    max_delta_at: tuple[int, int] | None = None
    violations: Sequence[Violation] = ()

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.violations


def _bases(points):
    """(p, values) in p order, where values holds the point's five values
    in _POINT_VARS order, each checked to be of unit modulus."""
    for p, vals in sorted(points.items()):
        if len(vals) != len(_POINT_VARS):
            raise CoefficientError(
                f"point at p={p} has {len(vals)} values, not {len(_POINT_VARS)}"
            )
        values = tuple(map(complex, vals))
        for name, v in zip(_POINT_VARS, values):
            if not abs(abs(v) - 1.0) <= UNIT_SLACK:  # a NaN fails too
                raise CoefficientError(f"{name} is not unit modulus: {v!r}")
        yield p, values


# the fewest rows worth a chunk of their own.  On a shared 2-vCPU Xeon a
# fork, reply and reap cost about 2.7 ms in a warm process, the time of
# some 220 rows.  A fresh process pays more: cut in two, the acceptance
# scan takes about 2,450 more minor faults and 4-10 ms more system time,
# since the fork leaves this process's pages copy-on-write through its
# teardown (gc.freeze() does not help), so a worker buys wall time at CPU cost
MIN_CHUNK_ROWS = 1000


def _chunk_count(primes: int, lmax: int) -> int:
    """How many chunks a scan of `primes` primes at `lmax` powers is cut
    into: one per CPU this process may run on, and no more than one per
    MIN_CHUNK_ROWS rows or one per prime.  One where the platform cannot
    fork or name its CPUs, or where another thread runs, since a fork
    copies only the calling thread and any lock another one holds."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")  # no threads unless it is loaded
    if threading is not None and threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, primes, primes * lmax // MIN_CHUNK_ROWS))


def _tally(rows, tol: float) -> ScanResult:
    """The result of the rows a scan loop yields (_compile), the same as
    every row would give: each check is made on every row it is handed,
    an extreme moves only to a strictly better value, so the first (p, l)
    keeps a tie, and each failed check keeps one Violation, its first row
    and its count of failing rows.  `checked` is the count `rows` returns,
    the number of rows its loops evaluated."""
    min_value, min_at, max_abs_delta, max_delta_at = inf, None, 0.0, None
    first: dict[str, tuple] = {}  # kind -> its first failing row
    counts: dict[str, int] = {}
    while True:
        try:
            p, ell, direct, sos = next(rows)
        except StopIteration as stop:
            checked = stop.value
            break
        delta = abs(direct.real - sos)
        if min_at is None or direct.real < min_value:
            min_value, min_at = direct.real, (p, ell)
        if max_delta_at is None or delta > max_abs_delta:
            max_abs_delta, max_delta_at = delta, (p, ell)
        for kind, failed in (
            (REALNESS, abs(direct.imag) > tol),
            (NONNEGATIVITY, direct.real < -tol),
            (SQUARE_IDENTITY, delta > tol),
        ):
            if failed:
                first.setdefault(kind, (p, ell, direct, sos))
                counts[kind] = counts.get(kind, 0) + 1
    violations = tuple(Violation(k, *row, counts[k]) for k, row in first.items())
    return ScanResult(
        checked, min_value, min_at, max_abs_delta, max_delta_at, violations
    )


def _fork(loop, chunk, children: dict[int, BinaryIO]):
    """A generator over the rows loop(chunk) yields, returning its count.
    A forked child runs the loop and writes each row, then the count, to a
    pipe by `marshal`; the generator reads them in turn and reaps the child
    once it has the count.  children maps the child's pid to the read end
    of its pipe until the child is reaped.  Where fork fails, the chunk is
    scanned here instead, when its rows are read.

    The child leaves only by os._exit, so it never flushes the stdio it
    inherited, runs no atexit handler and never returns into its caller.
    It holds no result: a full pipe makes it wait until the rows are read."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return loop(chunk)
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                rows = loop(chunk)
                while True:
                    try:
                        marshal.dump(next(rows), out)
                    except StopIteration as stop:
                        marshal.dump(stop.value, out)
                        break
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    children[pid] = reader = open(r, "rb")
    where = f"the scan worker for p = {chunk[0][0]}..{chunk[-1][0]}"

    def reply():
        with reader:
            try:
                while not isinstance(row := marshal.load(reader), int):
                    yield row
            except (EOFError, ValueError):
                row = None
            status = os.waitpid(pid, 0)[1]
            del children[pid]
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise RuntimeError(f"{where} exited with status {code}")
        if row is None:
            raise RuntimeError(f"{where} sent a short reply")
        return row

    return reply()


def scan_positivity(
    points: dict[int, tuple[complex, complex, complex, complex, complex]],
    lmax: int,
    tol: float = TOL,
) -> ScanResult:
    """Check non-negativity and the square identity for each prepared prime
    point and each prime-power exponent up to lmax, in (p, l) order.

    points maps p to (alpha1, beta1, alpha2, beta2, chi(p)), each checked
    for unit modulus before any row is evaluated.  The primes are cut into
    contiguous chunks, _chunk_count of them; a forked child runs the
    compiled loop on each chunk after the first while this process runs it
    on the first.  The loop evaluates every row but yields only those that
    can fail a check or move an extreme given the rows before them in its
    chunk (_compile), a superset of those that can given every earlier
    row.  _tally reads the rows of every chunk in p order, so every
    verdict, count, first failing row and first (p, l) of an extreme is
    that of one scan over every row.  One chunk forks nothing.  A child
    that fails or replies short raises RuntimeError, and every child is
    killed and reaped before this returns or raises.
    """
    fn, coefs = _compile(coeff_polys())
    bases = list(_bases(points))
    n, k = len(bases), _chunk_count(len(bases), lmax)
    chunks = [bases[i * n // k : (i + 1) * n // k] for i in range(k)]

    def loop(chunk):
        return fn(chunk, lmax, tol, *coefs)

    def rows(replies):
        checked = yield from loop(chunks[0])
        for reply in replies:
            checked += yield from reply
        return checked

    children: dict[int, BinaryIO] = {}  # pid -> read end, until it is reaped
    try:
        replies = [_fork(loop, chunk, children) for chunk in chunks[1:]]
        return _tally(rows(replies), tol)
    finally:
        if children:  # only a failed scan leaves one, so only it loads signal
            from signal import SIGKILL

            for pid, reader in children.items():
                reader.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
