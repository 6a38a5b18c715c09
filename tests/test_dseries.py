"""Auxiliary degree-324 product: assembly, square identity, scanning."""

import cmath
import marshal
import math
import os
import random
import threading
import time

import pytest

from lfcheck import dseries, scan
from lfcheck.dseries import a_D_value, build_D, verify_sos
from lfcheck.scan import (
    NONNEGATIVITY,
    REALNESS,
    SQUARE_IDENTITY,
    ScanResult,
    Violation,
    scan_positivity,
)
from lfcheck.ingest import (
    builtin_form,
    load_eigenvalue_file,
    parse_char_spec,
    prepare_scan_points,
    sieve,
)
from lfcheck.casebook import verify_case
from lfcheck.chargroup import ONE, gen
from lfcheck.repalg import VirtualRep, ad_atom, char_atom, rs_product, sym_atom
from lfcheck.satake import (
    VARS,
    CoefficientError,
    LaurentPoly,
    coeff_poly,
    satake_point,
)
from test_satake import oracle_eval


def oracle_factors():
    """The paper's fifteen factors of D, transcribed by hand, in display
    order as (label, value, multiplicity): a route to D that never reads w."""
    chi = gen("chi")
    A = VirtualRep.of(ad_atom("pi"))
    A2 = VirtualRep.of(ad_atom("pi'"))
    A2chi = VirtualRep.of(ad_atom("pi'", chi))
    A2chibar = VirtualRep.of(ad_atom("pi'", chi.inv()))
    om2bar, om2bar2 = gen("om_pi", -2), gen("om_pi'", -2)
    S4 = VirtualRep.of(sym_atom("pi", 4, om2bar))
    S42 = VirtualRep.of(sym_atom("pi'", 4, om2bar2))
    S4chi = VirtualRep.of(sym_atom("pi", 4, chi * om2bar))
    S4chibar = VirtualRep.of(sym_atom("pi", 4, chi.inv() * om2bar))
    one = VirtualRep.of(char_atom(ONE))
    return [
        ("zeta", one, 6),
        ("A x A'(chi)", rs_product(A, A2chi), 4),
        ("A x A'(chibar)", rs_product(A, A2chibar), 4),
        ("A", A, 7),
        ("A'", A2, 2),
        ("A'(chi)", A2chi, 2),
        ("A'(chibar)", A2chibar, 2),
        ("S4", S4, 5),
        ("S4'", S42, 2),
        ("A x A'", rs_product(A, A2), 3),
        ("A x S4'", rs_product(A, S42), 3),
        ("A' x S4", rs_product(A2, S4), 1),
        ("A' x S4(chi)", rs_product(A2, S4chi), 2),
        ("A' x S4(chibar)", rs_product(A2, S4chibar), 2),
        ("S4 x S4'", rs_product(S4, S42), 1),
    ]


# display-order multiplicities of the fifteen factors
PROFILE = (6, 4, 4, 7, 2, 2, 2, 5, 2, 3, 3, 1, 2, 2, 1)


def sos_value(point):
    """The closed square |2x + xz + z|^2 at one point, with x and z
    evaluated term by term: the per-point reference for the scan."""
    _P, x, z = dseries.coeff_polys()
    xv = oracle_eval(x, point)
    zv = oracle_eval(z, point)
    return abs(2 * xv + xv * zv + zv) ** 2


def reference_rows(points, lmax):
    """(p, l, direct, square) at every scan point, one point at a time:
    the direct value term by term and, checked equal to it, a_D_value."""
    P = dseries.coeff_polys()[0]
    out = []
    for p, (a1, b1, a2, b2, cv) in sorted(points.items()):
        base = satake_point(a1, b1, a2, b2, {"chi": cv})
        for ell in range(1, lmax + 1):
            pt = {k: v**ell for k, v in base.items()}
            direct = oracle_eval(P, pt)
            assert repr(a_D_value(pt)) == repr(direct)
            out.append((p, ell, direct, sos_value(pt)))
    return out


def scanned_rows(monkeypatch, points, lmax, loop_tol=-1.0, chunks=1):
    """Run the scan, cut into `chunks` chunks, and return its result with
    the rows its tally read: those the compiled loop yielded, each chunk's
    after the first through a forked child's pipe.  The loop is given
    loop_tol, whose default, a negative one, makes it yield every row, or
    the scan's own tol when loop_tol is None; the scan's own checks keep
    their default tol."""
    rows = []
    compile_loop, tally = scan._compile, scan._tally

    def spy(polys):
        fn, coefs = compile_loop(polys)

        def loop(bases, lmax, tol, *coefs):
            return fn(bases, lmax, tol if loop_tol is None else loop_tol, *coefs)

        return loop, coefs

    def collect(loop):
        while True:
            try:
                row = next(loop)
            except StopIteration as stop:
                return stop.value
            rows.append(row)
            yield row

    with monkeypatch.context() as m:  # so a second call spies on the real scan
        m.setattr(scan, "_compile", spy)
        m.setattr(scan, "_tally", lambda loop, tol: tally(collect(loop), tol))
        force_chunks(m, chunks)
        return scan_positivity(points, lmax), rows


def force_chunks(monkeypatch, n):
    """Cut every scan into n chunks, whatever the host's CPUs."""
    monkeypatch.setattr(scan, "_chunk_count", lambda primes, lmax: n)


@pytest.fixture(scope="module")
def acceptance_points():
    points, _ = prepare_scan_points(
        builtin_form("delta", 10**4), builtin_form("11a", 10**4),
        parse_char_spec("kronecker:-4"), 10**4,
    )
    return points


@pytest.fixture(scope="module")
def table_points(tmp_path_factory):
    """Points from seeded tables: a_p anywhere up to the exact bound, and on
    it now and then, with a character of 12th roots of unity, so the values
    are complex."""
    tmp_path = tmp_path_factory.mktemp("tables")
    rng = random.Random(12012)
    primes = sieve(3000)
    paths = []
    for k, level in ((12, 1), (2, 11)):
        path = tmp_path / f"w{k}.tsv"
        rows = [f"#weight {k} level {level}"]
        for p in primes:
            b = math.isqrt(4 * p ** (k - 1))
            ap = rng.choice((-b, b)) if rng.random() < 0.05 else rng.randint(-b, b)
            rows.append(f"{p}\t{ap}")
        path.write_text("\n".join(rows) + "\n")
        paths.append(str(path))
    chi = tmp_path / "chi.tsv"
    with open(chi, "w") as fh:
        for p in primes:
            a = 2 * math.pi * rng.randrange(12) / 12
            fh.write(f"{p}\t{math.cos(a)!r}\t{math.sin(a)!r}\n")
    points, skipped = prepare_scan_points(
        load_eigenvalue_file(paths[0]), load_eigenvalue_file(paths[1]),
        parse_char_spec(str(chi)), 3000,
    )
    assert skipped == [11]
    return points


def assert_bit_equal(rows, ref):
    # repr tells -0.0 from 0.0, which == does not
    assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in ref]


def test_factor_roster():
    facs = oracle_factors()
    assert len(facs) == 15
    assert tuple(m for _l, _v, m in facs) == PROFILE
    assert sum(V.degree * m for _l, V, m in facs) == 324
    # D built from w holds exactly the transcribed factors, entry for entry
    total = VirtualRep.build(
        (k, m * mult) for _label, V, mult in facs for k, m in V.entries
    )
    assert build_D() == total


def test_total_degree():
    assert build_D().degree == 324


def test_square_identity_suite():
    checks = verify_sos()
    assert len(checks) == 7
    for v in checks:
        assert v.status == "PASS", v


def _unitary(rng):
    t1, t2 = rng.uniform(0, 2 * cmath.pi), rng.uniform(0, 2 * cmath.pi)
    a1 = cmath.exp(1j * t1)
    a2 = cmath.exp(1j * t2)
    cv = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    return satake_point(a1, a1.conjugate(), a2, a2.conjugate(), {"chi": cv})


def test_three_route_agreement_seeded():
    # direct coefficient, closed square form, and a by-hand trace formula
    # must agree at unitary points
    rng = random.Random(30103)
    for _ in range(40):
        pt = _unitary(rng)
        x = pt["a_pi"] / pt["b_pi"] + 1 + pt["b_pi"] / pt["a_pi"]
        z = pt["chi"] * (pt["a_pi'"] / pt["b_pi'"] + 1 + pt["b_pi'"] / pt["a_pi'"])
        hand = abs(2 * x + x * z + z) ** 2
        direct = a_D_value(pt)
        assert abs(direct.imag) < 1e-9
        assert abs(direct.real - sos_value(pt)) < 1e-9
        assert abs(direct.real - hand) < 1e-9


def test_conjugate_character_symmetry_seeded():
    rng = random.Random(77003)
    for _ in range(20):
        pt = _unitary(rng)
        flipped = {**pt, "chi": pt["chi"].conjugate()}
        assert abs(a_D_value(pt) - a_D_value(flipped)) < 1e-9


def _small_points():
    char = parse_char_spec("kronecker:-4")
    f1 = builtin_form("delta", 60)
    f2 = builtin_form("11a", 60)
    points, skipped = prepare_scan_points(f1, f2, char, 60)
    assert skipped == [2, 11]
    return points


def test_scan_rows_sorted_and_clean(monkeypatch):
    points = _small_points()
    res, rows = scanned_rows(monkeypatch, points, 2)
    assert res.ok
    assert res.checked == len(rows) == 2 * len(points)
    assert [r[:2] for r in rows] == sorted(r[:2] for r in rows)
    assert res.min_value >= -1e-9
    assert res.max_abs_delta <= 1e-9
    # the extremes name the first (p, l) where each is reached
    ref = reference_rows(points, 2)
    values = [r[2].real for r in ref]
    deltas = [abs(r[2].real - r[3]) for r in ref]
    lo = min(range(len(ref)), key=values.__getitem__)
    hi = max(range(len(ref)), key=deltas.__getitem__)
    assert (res.min_value, res.min_at) == (values[lo], ref[lo][:2])
    assert (res.max_abs_delta, res.max_delta_at) == (deltas[hi], ref[hi][:2])
    assert res.min_at != res.max_delta_at  # so a swap of the two would show


def test_kernel_is_bit_equal_on_the_acceptance_scan(monkeypatch, acceptance_points):
    # in one chunk and in two, whose second sends its rows through a pipe
    points = acceptance_points
    ref = reference_rows(points, 4)
    for chunks in (1, 2):
        res, rows = scanned_rows(monkeypatch, points, 4, chunks=chunks)
        assert res.ok and len(rows) == 4908
        assert res.min_at == (3079, 4)
        assert_bit_equal(rows, ref)


def test_loop_yields_few_rows_and_the_same_result(monkeypatch, acceptance_points):
    # the filter runs: the real loop hands the bookkeeping a small share of
    # the acceptance scan's rows, and the result is the one every row gives.
    # Each chunk's loop starts afresh, so two chunks yield 11 of 2,452 rows
    # and 13 of 2,456 where one yields 11 of 4,908.
    points = acceptance_points
    for chunks, yields in ((1, 11), (2, 11 + 13)):
        res, rows = scanned_rows(monkeypatch, points, 4, None, chunks)
        assert res.ok and res.checked == 4908
        assert len(rows) == yields
        every, all_rows = scanned_rows(monkeypatch, points, 4, chunks=chunks)
        assert len(all_rows) == 4908
        assert res == every
        yielded = {r[:2] for r in rows}
        assert_bit_equal(rows, [r for r in all_rows if r[:2] in yielded])


def test_loop_with_negative_tol_yields_every_row():
    points = _small_points()
    fn, coefs = scan._compile(dseries.coeff_polys())
    loop = fn(scan._bases(points), 3, -1e-300, *coefs)
    rows = []
    with pytest.raises(StopIteration) as stop:
        while True:
            rows.append(next(loop))
    assert stop.value.value == len(rows) == 3 * len(points)
    assert [r[:2] for r in rows] == [(p, l) for p in sorted(points) for l in (1, 2, 3)]
    # through the scan, where a negative tol fails every row's realness and
    # square identity, and its nonnegativity where the value is below 1
    res = scan_positivity(points, lmax=3, tol=-1.0)
    below = sum(r[2].real < 1 for r in reference_rows(points, 3))
    assert 0 < below < res.checked == 3 * len(points)
    assert {v.kind: v.count for v in res.violations} == {
        REALNESS: res.checked, NONNEGATIVITY: below, SQUARE_IDENTITY: res.checked
    }


@pytest.mark.parametrize("shift, kind", [(-1000, NONNEGATIVITY), (1j, REALNESS)])
def test_every_failing_row_is_a_violation(monkeypatch, shift, kind):
    # negative controls for the loop's filter and the checks: with P's
    # constant term shifted every row fails `kind`, though few rows move an
    # extreme, so a loop that yielded only new extremes, or skipped the
    # imaginary part, would miss nearly all of them.  A real shift moves the
    # value off its square too, which a scan that gave each row only its
    # first failing check would miss.
    P = dseries.coeff_polys()[0]
    shifted = dict(P.c)
    shifted[(0,) * len(VARS)] += shift
    monkeypatch.setitem(dseries._CACHE, "P", LaurentPoly(shifted))
    points = _small_points()
    res = scan_positivity(points, lmax=4)
    assert res.checked == 4 * len(points)
    want = {kind: res.checked}
    if shift.real:
        want[SQUARE_IDENTITY] = res.checked
    # one record per failed check: its first row and its count of rows
    assert {v.kind: v.count for v in res.violations} == want
    assert {(v.p, v.l) for v in res.violations} == {(min(points), 1)}


def test_kernel_is_bit_equal_on_seeded_tables(monkeypatch, table_points):
    # in one chunk and in two, whose second sends its rows through a pipe
    points = table_points
    ref = reference_rows(points, 8)
    for chunks in (1, 2):
        _res, rows = scanned_rows(monkeypatch, points, 8, chunks=chunks)
        assert len(rows) == 8 * len(points)
        assert any(abs(r[2].imag) > 0 for r in rows)
        assert_bit_equal(rows, ref)


def test_kernel_is_built_once_and_holds_no_coefficient(monkeypatch):
    # the coefficients are arguments of the compiled loop, never part of
    # its source, so one beyond float precision reaches every term as the
    # same float term-by-term evaluation uses
    sources = []

    def counting_compile(src, *args, **kwargs):
        sources.append(src)
        return compile(src, *args, **kwargs)

    monkeypatch.setattr(scan, "compile", counting_compile, raising=False)
    P = dseries.coeff_polys()[0]
    big = {**P.c, next(iter(P.c)): 10**20 + 1}
    monkeypatch.setitem(dseries._CACHE, "P", LaurentPoly(big))
    points = _small_points()
    for n in (1, 2):
        _res, rows = scanned_rows(monkeypatch, points, 2)
        assert_bit_equal(rows, reference_rows(points, 2))
        assert len(sources) == n  # one compile per scan
    for src in sources:
        assert "100000000000000000001" not in src
        assert "1e+20" not in src


def test_power_chain_is_bit_equal_to_complex_power():
    # the loop's u ** e is CPython's own chain of products, whose order
    # matters: repr tells -0.0 from 0.0, which == does not.  Each exponent
    # is checked alone and beside its negative, whose chain it then shares.
    P = dseries.coeff_polys()[0]
    top = max(abs(e) for key in P.c for e in key)
    exps = (set(range(-8, 9)) | {top, -top}) - {0}
    rng = random.Random(27182)
    values = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(200)]
    values += [complex(a, b) for a in (0.0, -0.0) for b in (1.0, -1.0)]
    values += [complex(a, b) for a in (1.0, -1.0) for b in (0.0, -0.0)]
    for group in [exps, *({e} for e in exps)]:
        code = compile("\n".join(scan._power_lines(0, group)), "<chain>", "exec")
        for v in values:
            ns = {"ONE": 1 + 0j, "u0": v}
            exec(code, ns)
            for e in group:
                got = ns[scan._power_name(0, e)]
                assert repr(got) == repr(v**e), (v, e)


def test_scan_refuses_a_point_off_the_unit_circle():
    # each of the five values a point holds is checked, to within 1e-6; a
    # NaN, which compares False with everything, would pass every check
    unit = cmath.exp(0.7j)
    good = (unit, unit.conjugate(), 1j, -1j, -1.0)
    near = 1 + 5e-7
    assert scan_positivity({3: good, 5: (near, 1, 1, 1, 1)}, lmax=1).ok
    names = ("a_pi", "b_pi", "a_pi'", "b_pi'", "chi")
    for i, name in enumerate(names):
        for v in (good[i] * (1 + 2e-6), complex(math.nan, 0), math.inf):
            bad = list(good)
            bad[i] = v
            with pytest.raises(CoefficientError, match=f"^{name} is not unit"):
                scan_positivity({3: good, 7: tuple(bad)}, lmax=1)
    # a point holds exactly five values: a sixth is not dropped, and a
    # missing one is named by its prime rather than by a variable
    for bad in (good + (5,), good[:4]):
        with pytest.raises(CoefficientError, match=f"^point at p=7 has {len(bad)} "):
            scan_positivity({3: good, 7: bad}, lmax=1)


def test_scan_empty_not_ok():
    res = scan_positivity({}, lmax=2)
    assert isinstance(res, ScanResult)
    assert res.checked == 0 and not res.ok


def fake_rows(monkeypatch, row):
    """Replace the compiled loop with one that yields (p, l, *row(p, l))
    for every row and counts them all."""

    def fake_compile(polys):
        def loop(bases, lmax, tol, *coefs):
            n = 0
            for p, _values in bases:
                for ell in range(1, lmax + 1):
                    n += 1
                    yield (p, ell, *row(p, ell))
            return n

        return loop, ()

    monkeypatch.setattr(scan, "_compile", fake_compile)


def test_scan_violations_are_records(monkeypatch):
    # each check on every row: l = 1 fails the gap, l = 2 the sign too and
    # l = 3 all three; each check keeps its first row and counts its rows
    sq = 1.23456789012345
    direct = {1: 2.5 + 0j, 2: -1 + 0j, 3: -1 + 1j, 4: sq + 0j}
    points = {3: (1, 1, 1, 1, 1)}
    fake_rows(monkeypatch, lambda p, ell: (direct[ell], sq))
    res = scan_positivity(points, lmax=4, tol=1e-9)
    assert res.violations == (
        Violation(SQUARE_IDENTITY, 3, 1, 2.5 + 0j, sq, 3),
        Violation(NONNEGATIVITY, 3, 2, -1 + 0j, sq, 2),
        Violation(REALNESS, 3, 3, -1 + 1j, sq, 1),
    )
    assert [str(v) for v in res.violations] == [
        "p=3 l=1: direct/square mismatch (2.5 vs 1.23456789012, gap 1.27)",
        "p=3 l=2: negative coefficient (-1)",
        "p=3 l=3: coefficient not real (1)",
    ]
    assert not res.ok
    # l = 2 and 3 tie on both extremes; the first is named
    assert (res.min_at, res.max_delta_at) == ((3, 2), (3, 2))


def test_chunk_count_follows_cpus_rows_primes_and_threads(monkeypatch):
    # one chunk per CPU, per MIN_CHUNK_ROWS rows and per prime, whichever
    # is fewest; one where fork is missing or another thread runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    rows = scan.MIN_CHUNK_ROWS
    assert scan._chunk_count(2 * rows - 1, 1) == 1
    assert scan._chunk_count(2 * rows, 1) == 2
    assert scan._chunk_count(10**6, 1) == 4
    assert scan._chunk_count(3, 10**4) == 3
    assert scan._chunk_count(0, 4) == 1
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert scan._chunk_count(10**6, 1) == 1
    finally:
        stop.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert scan._chunk_count(10**6, 1) == 4
    monkeypatch.delattr(os, "fork")
    assert scan._chunk_count(10**6, 1) == 1


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls this process makes, one entry each."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


# four primes, cut into p = 3, 5 (this process) and p = 7, 13 (a child)
FOUR = dict.fromkeys((3, 5, 7, 13), (1, 1, 1, 1, 1))


@pytest.mark.parametrize(
    "inputs, lmax, tol",
    [("acceptance", 4, 1e-9), ("acceptance", 4, -1.0), ("table", 8, 1e-9)],
)
def test_split_scan_is_the_one_chunk_scan(
    monkeypatch, request, forks, inputs, lmax, tol
):
    # cut into 1, 2 and 3 chunks, each after the first scanned by a forked
    # child, the scan gives one result, repr for repr: every count, first
    # failing row and first (p, l) of an extreme.  A negative tol fails
    # every row's realness, so the tally counts rows from every chunk.
    points = request.getfixturevalue(f"{inputs}_points")
    results, forked = [], []
    for n in (1, 2, 3):
        force_chunks(monkeypatch, n)
        results.append(scan_positivity(points, lmax, tol))
        forked.append(len(forks))
    assert forked == [0, 1, 3]  # one chunk forks nothing
    assert [repr(r) for r in results[1:]] == [repr(results[0])] * 2
    assert results[0].checked == lmax * len(points)
    assert bool(results[0].violations) == (tol < 0)


def test_split_tie_goes_to_the_earlier_chunk(monkeypatch, forks):
    # every row is the same failing row, so the extremes tie across the
    # chunk boundary: the first (p, l) keeps them and each check's first
    # row, and each check counts the rows of both chunks
    fake_rows(monkeypatch, lambda p, ell: (-1 + 0j, 1.0))
    force_chunks(monkeypatch, 2)
    res = scan_positivity(FOUR, lmax=1)
    assert len(forks) == 1
    assert res == ScanResult(4, -1.0, (3, 1), 2.0, (3, 1), (
        Violation(NONNEGATIVITY, 3, 1, -1 + 0j, 1.0, 4),
        Violation(SQUARE_IDENTITY, 3, 1, -1 + 0j, 1.0, 4),
    ))


class Boom(Exception):
    pass


def test_a_scan_that_raises_kills_and_reaps_its_children(monkeypatch, forks):
    # this process's chunk raises while the child's would sleep a minute:
    # the error propagates at once, and the child is killed and reaped
    def row(p, ell):
        if p == 3:
            raise Boom
        time.sleep(60)
        return 1 + 0j, 1.0

    fake_rows(monkeypatch, row)
    force_chunks(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(Boom):
        scan_positivity(FOUR, lmax=1)
    assert time.monotonic() - start < 30
    assert len(forks) == 1


def test_a_failing_worker_fails_the_scan(monkeypatch):
    # a child that exits non-zero is an error, never a result with fewer rows
    def row(p, ell):
        if p == 13:
            raise Boom
        return 1 + 0j, 1.0

    fake_rows(monkeypatch, row)
    force_chunks(monkeypatch, 2)
    want = r"^the scan worker for p = 7\.\.13 exited with status 1$"
    with pytest.raises(RuntimeError, match=want):
        scan_positivity(FOUR, lmax=1)


SHORT = r"^the scan worker for p = \d+\.\.59 sent a short reply$"


def test_a_short_reply_fails_the_scan(monkeypatch):
    # only the child marshals, so only its count is cut short
    dump = marshal.dump

    def short(value, file):
        if isinstance(value, int):
            return file.write(marshal.dumps(value)[:-1])
        return dump(value, file)

    monkeypatch.setattr(marshal, "dump", short)
    force_chunks(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=SHORT):
        scan_positivity(_small_points(), lmax=1)


def test_a_worker_that_ends_before_its_count_fails_the_scan(monkeypatch):
    # the child sends every row, then exits cleanly without its count: the
    # end of its pipe is no end of its rows
    dump = marshal.dump

    def end_early(value, file):
        if isinstance(value, int):
            file.flush()
            os._exit(0)
        return dump(value, file)

    monkeypatch.setattr(marshal, "dump", end_early)
    force_chunks(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=SHORT):
        scan_positivity(_small_points(), lmax=3, tol=-1.0)


def test_a_stream_longer_than_its_pipe_is_read_whole(monkeypatch, acceptance_points):
    # at a negative tol the loop yields every row, so the child's half of
    # the acceptance scan sends more than a pipe holds, and waits while
    # this process reads; the scan is still the one-chunk scan
    points = acceptance_points
    fn, coefs = scan._compile(dseries.coeff_polys())
    bases = list(scan._bases(points))
    child = fn(bases[len(bases) // 2 :], 4, -1.0, *coefs)
    assert sum(len(marshal.dumps(row)) for row in child) > 65536
    force_chunks(monkeypatch, 1)
    want = repr(scan_positivity(points, 4, -1.0))
    force_chunks(monkeypatch, 2)
    assert repr(scan_positivity(points, 4, -1.0)) == want


def test_a_chunk_that_cannot_fork_is_scanned_here(monkeypatch):
    points = _small_points()
    force_chunks(monkeypatch, 1)
    want = repr(scan_positivity(points, lmax=3, tol=-1.0))
    calls = []

    def no_fork():
        calls.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    force_chunks(monkeypatch, 3)
    assert repr(scan_positivity(points, lmax=3, tol=-1.0)) == want
    assert len(calls) == 2


def test_direct_path_evaluates_the_built_polynomial(monkeypatch):
    # negative control: change one coefficient of build_D's polynomial and the
    # square-identity check must go red, which it could not if the direct
    # value came from the closed square form
    P = dseries.coeff_polys()[0]
    points, _ = prepare_scan_points(
        builtin_form("delta", 30), builtin_form("11a", 30),
        parse_char_spec("kronecker:-4"), 30,
    )
    assert scan_positivity(points, lmax=2).ok
    bad = dict(P.c)
    bad[(0,) * len(VARS)] += 1  # the constant term, so the value stays real
    monkeypatch.setitem(dseries._CACHE, "P", LaurentPoly(bad))
    res = scan_positivity(points, lmax=2)
    assert res.checked > 0 and not res.ok
    assert {v.kind: v.count for v in res.violations} == {SQUARE_IDENTITY: res.checked}


def _chi_poly(e):
    return coeff_poly(VirtualRep.of(char_atom(gen("chi", e))))


def _add_to_P(*extra):
    def mutate(monkeypatch):
        P = dseries.coeff_polys()[0]
        for q in extra:
            P = P + q
        monkeypatch.setitem(dseries._CACHE, "P", P)

    return mutate


def _twist_x(monkeypatch):
    dseries.coeff_polys()
    x = coeff_poly(VirtualRep.of(ad_atom("pi", gen("chi"))))
    monkeypatch.setitem(dseries._CACHE, "x", x)


def _unnormalized_sym4_prime(monkeypatch):
    def mutated(base, m, twist=None):
        return sym_atom(base, m, None if base == "pi'" else twist)

    monkeypatch.setattr(dseries, "sym_atom", mutated)


def _swap_w(monkeypatch):
    # x's and z's coefficients traded: the degree stays 324
    monkeypatch.setattr(dseries, "W", {(1, 0): 1, (1, 1): 1, (0, 1): 2})
    monkeypatch.setattr(dseries, "_CACHE", {})


REAL = "adjoint coefficient is real"
SQUARE_PI, SQUARE_PI2 = "square relation over pi", "square relation over pi'"
COEFFICIENT = "coefficient equals |2x + xz + z|^2"
DEGREE = "degree check at the trivial point"
QUADRATIC = "quadratic character point"
SYMMETRY = "conjugate-character symmetry"

# each mutation of verify sos's inputs and the exact checks it turns red
SOS_MUTATIONS = {
    "x twisted by chi": (_twist_x, {REAL, SQUARE_PI, COEFFICIENT}),
    "Sym^4(pi') without omega'^-2": (_unnormalized_sym4_prime, {SQUARE_PI2}),
    "P + 1": (_add_to_P(LaurentPoly.one()), {COEFFICIENT, DEGREE, QUADRATIC}),
    "P + chi - chi^-1": (
        _add_to_P(_chi_poly(1), -_chi_poly(-1)),
        {COEFFICIENT, SYMMETRY},
    ),
    # both routes to the coefficient read W, so only a fixed value sees it
    "W with x and z swapped": (_swap_w, {QUADRATIC}),
}


def _red(verdicts):
    return {v.name for v in verdicts if v.status != "PASS"}


@pytest.mark.parametrize("name", SOS_MUTATIONS)
def test_sos_mutation_turns_its_checks_red(monkeypatch, name):
    mutate, red = SOS_MUTATIONS[name]
    mutate(monkeypatch)
    assert _red(verify_sos()) == red


def test_every_sos_check_has_a_killing_mutation():
    names = {v.name for v in verify_sos()}
    assert len(names) == 7
    assert set().union(*(red for _m, red in SOS_MUTATIONS.values())) == names


def test_swapped_w_turns_the_auxiliary_identity_red(monkeypatch):
    # the display and the recorded ell were written for the paper's w
    _swap_w(monkeypatch)
    assert build_D().degree == 324
    assert _red(verify_case("4.1").verdicts) == {"identity", "ghl budget"}
