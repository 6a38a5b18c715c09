"""Batch front end.

Subcommands map one-to-one onto the library verifiers:

    verify sos                  square-law identity for the 324-degree product
    verify case <id>            one taxonomy case (--tamper N: soundness probe)
    verify all                  every case
    verify bridge               symmetric-square-of-cube ratio identity
    expand <expr>               normal form + coefficient polynomial
    scan --form1 .. --form2 ..  numeric positivity scan over prime points
    poles <expr> --hyp <file>   pole-order ledger under declared shapes

Exit status: 0 when every verdict is PASS, 1 on any verification failure,
2 on usage errors (any `lfcheck.InputError`, or an unreadable file) and
when the report cannot be written to stdout.
`--json` switches the report to JSON.  Hypothesis files are `key = value`
lines: type_pi and type_pi' (dihedral, tetrahedral, octahedral, or
general), plus the optional boolean twist_equiv.

Every command runs in a fresh interpreter, so this module imports only
`report` and `hypotheses` up front; each subcommand loads the modules it
calls on first use (`_load`).  The names they provide stay attributes of
this module, resolved on first access through `__getattr__`, so callers
can read or replace them here before `main` runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from importlib import import_module

from . import InputError, __version__, read_lines
from .hypotheses import GL2Type, Hypotheses
from .report import Report, Section, Verdict, digest, render_json, render_text

# The names each subcommand takes from the modules it loads.
_LAZY = {
    "casebook": (
        "CASE_IDS",
        "run_all",
        "verify_case",
        "verify_plethysm_bridge",
    ),
    "dseries": (
        "NONNEGATIVITY",
        "REALNESS",
        "SQUARE_IDENTITY",
        "scan_positivity",
        "verify_sos",
    ),
    "exprlang": ("parse_expr",),
    "ingest": (
        "BoundError",
        "builtin_form",
        "load_eigenvalue_file",
        "parse_char_spec",
        "prepare_scan_points",
    ),
    "poles": ("pole_order", "self_dual_abelian_entries"),
    "repalg": ("decompose_under",),
    "satake": ("CoefficientError", "coeff_poly"),
}
_OWNER = {name: mod for mod, names in _LAZY.items() for name in names}


def _load(*modules: str) -> None:
    """Import the named submodules and bind their `_LAZY` names here.  A
    name bound already (say, a wrapper installed from outside) is kept."""
    g = globals()
    for mod in modules:
        m = import_module(f".{mod}", __package__)
        for name in _LAZY[mod]:
            g.setdefault(name, getattr(m, name))


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_OWNER[name])
    return globals()[name]


class UsageError(InputError):
    pass


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lfcheck",
        description="verification engine for the degree-324 positivity product",
    )
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="run a named verifier")
    pv.add_argument("what", choices=("sos", "case", "all", "bridge"))
    pv.add_argument("case_id", nargs="?", default=None)
    pv.add_argument(
        "--tamper",
        type=int,
        default=None,
        metavar="N",
        help="perturb the N-th claimed entry first (detection probe)",
    )

    pe = sub.add_parser("expand", help="normal form of a rep expression")
    pe.add_argument("expr")

    ps = sub.add_parser("scan", help="numeric positivity scan")
    ps.add_argument("--form1", required=True, help="delta, 11a, or a TSV path")
    ps.add_argument("--form2", required=True, help="delta, 11a, or a TSV path")
    ps.add_argument(
        "--char", required=True, help="trivial, kronecker:<d>, or a table path"
    )
    ps.add_argument("--xmax", type=int, required=True)
    ps.add_argument("--lmax", type=int, default=3)
    ps.add_argument("--tol", type=float, default=1e-9)

    pp = sub.add_parser("poles", help="pole-order ledger for an expression")
    pp.add_argument("expr")
    pp.add_argument("--hyp", required=True, help="hypothesis file (key = value)")
    return ap


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read().decode(errors="replace"))


_TYPES = {t.name.lower(): t for t in GL2Type}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_hyp_file(path: str) -> Hypotheses:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = val
    for req in ("type_pi", "type_pi'"):
        if req not in fields:
            raise UsageError(f"{path}: missing required key {req!r}")
    kwargs = {}
    for key, dest in (("type_pi", "type_pi"), ("type_pi'", "type_pi2")):
        val = fields.pop(key).lower()
        if val not in _TYPES:
            raise UsageError(
                f"{path}: {key} must be one of {', '.join(_TYPES)}; got {val!r}"
            )
        kwargs[dest] = _TYPES[val]
    if "twist_equiv" in fields:
        val = fields.pop("twist_equiv").lower()
        if val not in _BOOLS:
            raise UsageError(f"{path}: twist_equiv must be a boolean, got {val!r}")
        kwargs["twist_equiv"] = _BOOLS[val]
    if fields:
        raise UsageError(f"{path}: unknown keys: {', '.join(sorted(fields))}")
    try:
        return Hypotheses(**kwargs)
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None


def _case_section(cr: CaseReport) -> Section:
    return Section(f"case {cr.case_id}: {cr.title}", cr.hypotheses, cr.verdicts)


def _cmd_verify(args) -> Report:
    _load("dseries" if args.what == "sos" else "casebook")
    if args.what == "case":
        if args.case_id is None:
            raise UsageError(
                f"verify case needs a case id (one of {', '.join(CASE_IDS)})"
            )
    elif args.case_id is not None:
        raise UsageError(f"verify {args.what} takes no case id")
    if args.tamper is not None and args.what != "case":
        raise UsageError("--tamper applies only to verify case")

    if args.what == "sos":
        return Report(
            "verify sos",
            digest("verify sos", __version__),
            [
                Verdict(name, "PASS" if ok else "FAIL", detail)
                for name, ok, detail in verify_sos()
            ],
        )
    if args.what == "bridge":
        return Report(
            "verify bridge",
            digest("verify bridge", __version__),
            sections=[_case_section(verify_plethysm_bridge())],
        )
    if args.what == "all":
        return Report(
            "verify all",
            digest("verify all", __version__),
            sections=[_case_section(cr) for cr in run_all()],
        )
    cmd = f"verify case {args.case_id}"
    parts = [cmd, __version__]
    if args.tamper is not None:
        cmd += f" --tamper {args.tamper}"
        parts.append(str(args.tamper))
    return Report(
        cmd,
        digest(*parts),
        sections=[_case_section(verify_case(args.case_id, args.tamper))],
    )


def _cmd_expand(args) -> Report:
    _load("exprlang", "satake")
    V = parse_expr(args.expr)
    form = " (+) ".join(
        f"{k.pretty()}" if m == 1 else f"{m} * {k.pretty()}"
        for k, m in V.entries
    ) or "0"
    try:
        poly = Verdict("coefficient polynomial", "PASS", coeff_poly(V).pretty())
    except CoefficientError as e:
        poly = Verdict("coefficient polynomial", "UNKNOWN", str(e))
    return Report(
        f"expand {args.expr!r}",
        digest("expand", args.expr),
        [
            Verdict("normal form", "PASS", f"{len(V.entries)} kinds: {form}"),
            Verdict("degree", "PASS", str(V.degree)),
            poly,
        ],
    )


def _resolve_form(src: str, xmax: int):
    if src in ("delta", "11a"):
        return builtin_form(src, xmax), src
    return load_eigenvalue_file(src), _file_digest(src)


# largest --xmax and --lmax accepted: the sieve and the built-in tables take
# memory linear in xmax and time near xmax^1.5 (on a shared 2-vCPU Xeon, at
# 10^5 about 0.9 s for built-in Delta and 0.17 s for 11a; at the cap 36 s
# and 5 s), and a scan checks primes(xmax) * lmax points, so without caps
# one numeral could exhaust memory or run for days
SCAN_XMAX = 10**6
SCAN_LMAX = 64


def _check_scan_args(args) -> None:
    # a NaN or infinite tolerance passes every check and a negative one fails
    # every point, so none of them gives a verdict worth reporting
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol:g}")
    if not 1 <= args.lmax <= SCAN_LMAX:
        raise UsageError(
            f"--lmax must be between 1 and {SCAN_LMAX}, got {args.lmax}"
        )
    if not 2 <= args.xmax <= SCAN_XMAX:
        raise UsageError(
            f"--xmax must be between 2 and {SCAN_XMAX}, got {args.xmax}"
        )


def _cmd_scan(args) -> Report:
    _check_scan_args(args)
    cmd = (
        f"scan --form1 {args.form1} --form2 {args.form2} --char {args.char} "
        f"--xmax {args.xmax} --lmax {args.lmax}"
    )
    # seconds per stage, reported by --json alone; a stage's time includes
    # loading the modules it is the first to call
    timings = {}

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timings[stage] = round(now - clock, 6)
        clock = now

    clock = time.perf_counter()
    _load("ingest")
    try:
        form1, d1 = _resolve_form(args.form1, args.xmax)
        lap("form1")
        form2, d2 = _resolve_form(args.form2, args.xmax)
        lap("form2")
    except BoundError as e:
        return Report(
            cmd, digest(cmd), [Verdict("eigenvalue bound", "FAIL", str(e))]
        )
    char = parse_char_spec(args.char)
    lap("char")
    # a table character is hashed by its contents, like a table form
    d3 = args.char if char.table is None else _file_digest(args.char)
    inputs_digest = digest(cmd, d1, d2, d3, str(args.tol))
    points, skipped = prepare_scan_points(form1, form2, char, args.xmax)
    lap("points")
    skipped_txt = ",".join(map(str, skipped)) if skipped else "none"
    if not points:
        # an empty scan would report PASS on every check of no point
        raise UsageError(
            f"--xmax {args.xmax} leaves no unramified prime to scan "
            f"(ramified skipped: {skipped_txt})"
        )
    _load("dseries")
    res = scan_positivity(points, args.lmax, args.tol)
    lap("scan")

    verdicts = [
        Verdict(
            "points",
            "PASS" if res.checked == len(points) * args.lmax else "FAIL",
            f"{res.checked} prime-power points over {len(points)} primes "
            f"(ramified skipped: {skipped_txt})",
        )
    ]
    for kind, clean in (
        (NONNEGATIVITY, f"min coefficient {res.min_value:.6g}"),
        (REALNESS, f"imaginary parts within {args.tol:g} everywhere"),
        (SQUARE_IDENTITY, f"max |direct - square| = {res.max_abs_delta:.3g}"),
    ):
        hit = next((v for v in res.violations if v.kind == kind), None)
        status, detail = ("PASS", clean) if hit is None else ("FAIL", str(hit))
        verdicts.append(Verdict(kind, status, detail))
    facts = {"min_at": res.min_at, "max_delta_at": res.max_delta_at}
    return Report(cmd, inputs_digest, verdicts, facts=facts, timings=timings)


def _cmd_poles(args) -> Report:
    _load("exprlang", "repalg", "poles")
    hyp = parse_hyp_file(args.hyp)
    V = parse_expr(args.expr)
    dec = decompose_under(V, hyp)
    iv, reasons = pole_order(dec, hyp)
    dig = digest("poles", args.expr, _file_digest(args.hyp))
    verdicts = [
        Verdict("pole order", "PASS", f"interval {iv} at the edge point"),
        Verdict("factors", "PASS", " | ".join(reasons)),
    ]
    obstructions = self_dual_abelian_entries(dec, hyp)
    if obstructions:
        verdicts.append(
            Verdict("self-dual abelian factors", "PASS", "; ".join(obstructions))
        )
    return Report(f"poles {args.expr!r} --hyp {args.hyp}", dig, verdicts)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.cmd == "verify":
            rep = _cmd_verify(args)
        elif args.cmd == "expand":
            rep = _cmd_expand(args)
        elif args.cmd == "scan":
            rep = _cmd_scan(args)
        else:
            rep = _cmd_poles(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rep = rep._replace(elapsed_s=time.perf_counter() - start)
    try:
        print(render_json(rep) if args.json else render_text(rep), flush=True)
    except OSError as e:  # stdout is closed or failing, say a pipe with no reader
        # the interpreter flushes stdout again at exit; give that flush a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 2
    return rep.exit_status


if __name__ == "__main__":
    sys.exit(main())
