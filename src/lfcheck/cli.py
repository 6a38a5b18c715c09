"""Batch front end.

Subcommands map one-to-one onto the library verifiers:

    verify sos                  square-law identity for the 324-degree product
    verify case <id>            one taxonomy case (--tamper N: soundness probe)
    verify all                  every case
    verify bridge               symmetric-square-of-cube ratio identity
    expand <expr>               normal form + coefficient polynomial
    scan --form1 .. --form2 ..  numeric positivity scan over prime points
    poles <expr> --hyp <file>   pole-order ledger under declared shapes

Exit status: 0 when every verdict is PASS (and for -h), 1 on any
verification failure, 2 on usage errors (any `lfcheck.InputError`, a
malformed command line among them, or an unreadable file) and when the
report cannot be written to stdout.  `--json`, before the subcommand,
switches the report to JSON.  `hypfile` reads the hypothesis files.

One table, `_GRAMMAR`, both parses the command line and prints the -h
usage; no command imports argparse.  Options follow their subcommand, as
`--flag value` or `--flag=value`, and a unique prefix names a flag.

Every command runs in a fresh interpreter, so this module imports only
`report` up front; each subcommand loads the modules it calls on first
use (`_load`) and binds here the names the package's one table,
`lfcheck.EXPORTS`, lists for them.  Those names stay attributes of this
module, resolved on first access through `__getattr__`, so callers can
read or replace them here before `main` runs.
"""

from __future__ import annotations

import math
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace

from . import EXPORTS, OWNER, TOL, InputError, __version__
from .report import Report, Section, Verdict, check, digest, render_json, render_text


def _load(*modules: str) -> None:
    """Import the named submodules and bind here the names `EXPORTS` lists
    for them.  A name bound already (say, a wrapper installed from
    outside) is kept."""
    g = globals()
    for mod in modules:
        m = import_module(f".{mod}", __package__)
        for name in EXPORTS[mod]:
            g.setdefault(name, getattr(m, name))


def __getattr__(name: str):
    if name not in OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(OWNER[name])
    return globals()[name]


class UsageError(InputError):
    pass


# The command line: for "" (what precedes the subcommand) and for each
# subcommand, the usage that `_bind` parses and the rest of its -h text.  A
# word in [..] may be left out; an option with =META takes a value, which
# must be a number if _NUMBERS names its META, and the others are flags.
_GRAMMAR = {
    "": ("[--json] COMMAND ...", """\
verification engine for the degree-324 positivity product

  COMMAND  verify  run a named verifier
           expand  normal form of a rep expression
           scan    numeric positivity scan
           poles   pole-order ledger for an expression
  --json   emit the report as JSON"""),
    "verify": ("WHAT [CASE_ID] [--tamper=N]", """\
run a named verifier

  WHAT        sos, case, all or bridge
  CASE_ID     the case to verify, for verify case
  --tamper N  perturb the N-th claimed entry first (detection probe)"""),
    "expand": ("EXPR", """\
normal form of a rep expression

  EXPR  a rep expression, such as Ad(pi) (x) Ad(pi') tw chi"""),
    "scan": ("--form1=FORM --form2=FORM --char=CHAR --xmax=N [--lmax=L] [--tol=T]",
             """\
numeric positivity scan

  --form1 FORM  delta, 11a, or a TSV path
  --form2 FORM  delta, 11a, or a TSV path
  --char CHAR   trivial, kronecker:<d>, or a table path
  --xmax N      scan the primes up to N
  --lmax L      at their powers p^1 .. p^L (default {lmax})
  --tol T       tolerance of every check (default {tol})"""),
    "poles": ("EXPR --hyp=FILE", """\
pole-order ledger for an expression

  EXPR        a rep expression
  --hyp FILE  hypothesis file (key = value)"""),
}
_DEFAULTS = {"lmax": 3, "tol": TOL}
_INT, _FLOAT = (int, "an integer"), (float, "a number")
_NUMBERS = {"N": _INT, "L": _INT, "T": _FLOAT}


def _is_flag(token: str) -> bool:
    """Whether a token names an option: it starts with -- or is -h, so a
    negative number is a value."""
    return token[:2] == "--" or token == "-h"


def _flag(text: str, flags: dict) -> str:
    """The flag text names, in full or by a unique prefix; -h names --help."""
    if text == "-h":
        return "--help"
    hits = [f for f in (*flags, "--help") if f.startswith(text)] if text != "--" else []
    if len(hits) != 1:
        raise UsageError(
            f"ambiguous option {text} ({' or '.join(hits)})" if hits
            else f"unknown option {text}"
        )
    return hits[0]


def _bind(args: SimpleNamespace, level: str, tokens: list[str]) -> list[str]:
    """Set the fields of one grammar level on args from tokens.  The top
    level stops at the subcommand and returns the tokens after it; -h puts
    its level's help text in args.help and stops."""
    where = f"lfcheck {level}".rstrip()
    usage, text = _GRAMMAR[level]
    flags, names, required = {}, [], []
    for word in usage.split():
        name, _, meta = word.strip("[]").partition("=")
        if name == "...":
            break
        dest = name.lstrip("-").lower()
        setattr(args, dest, _DEFAULTS.get(dest))
        if name[0] == "-":
            flags[name] = meta
        else:
            names.append(dest)
        if word[0] != "[":
            required.append(name)
    i = 0
    while i < len(tokens):
        token, i = tokens[i], i + 1
        if not _is_flag(token):
            if not names:
                raise UsageError(f"unexpected argument {token!r}")
            setattr(args, names.pop(0), token)
            if not level:
                return tokens[i:]
            continue
        name, eq, value = token.partition("=")
        name = _flag(name, flags)
        if name == "--help":
            args.help = f"usage: {where} [-h] {usage}\n\n{text.format(**_DEFAULTS)}"
            return []
        meta = flags[name]
        if not meta:
            if eq:
                raise UsageError(f"{name} takes no value")
            setattr(args, name[2:], True)
            continue
        if not eq:
            if i == len(tokens) or _is_flag(tokens[i]):
                raise UsageError(f"{name} needs a value")
            value, i = tokens[i], i + 1
        kind, noun = _NUMBERS.get(meta, (str, ""))
        try:
            setattr(args, name[2:], kind(value))
        except ValueError:
            shown = f"{value[:30]!r}{'...' if len(value) > 30 else ''}"
            raise UsageError(f"{name} must be {noun}, got {shown}") from None
    missing = [n for n in required if getattr(args, n.lstrip("-").lower()) is None]
    if missing:
        raise UsageError(f"{where}: missing {', '.join(missing)}")
    return []


class _Parser:
    """The command-line parser `main` asks `_parser` for."""

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        """The fields of argv (sys.argv[1:] by default) by `_GRAMMAR`; for
        -h, `help` holds the usage text.  A grammar error raises
        UsageError."""
        args = SimpleNamespace(help=None)
        rest = _bind(args, "", list(sys.argv[1:] if argv is None else argv))
        if args.help is None:
            if args.command not in _GRAMMAR or not args.command:
                raise UsageError(f"unknown command {args.command!r}")
            _bind(args, args.command, rest)
        return args


def _parser() -> _Parser:
    return _Parser()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read().decode(errors="replace"))


def _case_section(cr) -> Section:
    """A `casebook.CaseReport` as one report section."""
    return Section(f"case {cr.case_id}: {cr.title}", cr.hypotheses, cr.verdicts)


def _cmd_verify(args) -> Report:
    if args.what not in ("sos", "case", "all", "bridge"):
        raise UsageError(f"verify takes sos, case, all or bridge, not {args.what!r}")
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

    cmd = f"verify {args.what}"
    if args.case_id is not None:
        cmd += f" {args.case_id}"
    parts = [cmd, __version__]
    if args.tamper is not None:
        cmd += f" --tamper {args.tamper}"
        parts.append(str(args.tamper))
    inputs = digest(*parts)
    if args.what == "sos":
        return Report(cmd, inputs, verify_sos())
    if args.what == "bridge":
        crs = [verify_plethysm_bridge()]
    elif args.what == "all":
        crs = run_all()
    else:
        crs = [verify_case(args.case_id, args.tamper)]
    return Report(cmd, inputs, sections=[_case_section(cr) for cr in crs])


def _cmd_expand(args) -> Report:
    _load("exprlang", "satake")
    V = parse_expr(args.expr)
    form = " (+) ".join(
        f"{k.pretty()}" if m == 1 else f"{m} * {k.pretty()}"
        for k, m in V.entries
    )
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
    if src in BUILTINS:
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
    if args.tol != TOL:  # a FAIL must name the tolerance to reproduce
        cmd += f" --tol {args.tol!r}"
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
    _load("scan")
    res = scan_positivity(points, args.lmax, args.tol)
    lap("scan")

    verdicts = [
        check(
            "points",
            res.checked == len(points) * args.lmax,
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
        fail = hit and f"{hit} ({hit.count} of {res.checked} points)"
        verdicts.append(check(kind, hit is None, clean, fail))
    facts = {"min_at": res.min_at, "max_delta_at": res.max_delta_at}
    return Report(cmd, inputs_digest, verdicts, facts=facts, timings=timings)


def _cmd_poles(args) -> Report:
    _load("exprlang", "hypfile", "decompose", "poles")
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


def _emit(text: str, status: int) -> int:
    """Print text and return status, or 2 when stdout cannot take it."""
    try:
        print(text, flush=True)
    except OSError as e:  # stdout is closed or failing, say a pipe with no reader
        # the interpreter flushes stdout again at exit; give that flush a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 2
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.help is not None:
            return _emit(args.help, 0)
        start = time.perf_counter()
        if args.command == "verify":
            rep = _cmd_verify(args)
        elif args.command == "expand":
            rep = _cmd_expand(args)
        elif args.command == "scan":
            rep = _cmd_scan(args)
        else:
            rep = _cmd_poles(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rep = rep._replace(elapsed_s=time.perf_counter() - start)
    return _emit(render_json(rep) if args.json else render_text(rep), rep.exit_status)


if __name__ == "__main__":
    sys.exit(main())
