"""Output checker for the lfcheck benchmark.

`check` compares one command's exit status, stdout and stderr with the
outcome gen.py worked out for it and returns a list of problems (empty
when the output is right).  The rules are keyed by `Command.kind`.
"""

from __future__ import annotations

import re

from gen import Command

VERDICT = re.compile(r"^\s*\[(PASS|FAIL|UNKNOWN)\] ([^:]+?)(?:: (.*))?$")
RESULT = re.compile(r"^result: (PASS|FAIL|UNKNOWN) \((\d+) checks?\)$")
SECTION = re.compile(r"^== case (\S+): ")
POLE_ORDER = re.compile(r"^interval \[(\d+), (\d+)\] at the edge point$")

KNOWN_RED_CASE = "4.4.3"  # the display slip lfcheck reports by design
ALL_CHECKS = 69


def verdicts(out: str) -> list[tuple[str, str, str, str]]:
    """(section, status, name, detail) for every verdict line."""
    section = ""
    found = []
    for line in out.splitlines():
        m = SECTION.match(line)
        if m:
            section = m.group(1)
            continue
        m = VERDICT.match(line)
        if m:
            found.append((section, m.group(1), m.group(2), m.group(3) or ""))
    return found


def normalized(out: str) -> str:
    """Report text without the timing line, for traced-vs-untraced checks."""
    return "\n".join(ln for ln in out.splitlines() if not ln.startswith("elapsed:"))


def _result(out: str) -> tuple[str, int] | None:
    for line in out.splitlines():
        m = RESULT.match(line)
        if m:
            return m.group(1), int(m.group(2))
    return None


def _poly_value_at_one(pretty: str) -> int:
    """Sum of coefficients of a rendered Laurent polynomial."""
    total = 0
    for term in pretty.split(" + "):
        head = term.split("*", 1)[0]
        total += int(head) if re.fullmatch(r"-?\d+", head) else 1
    return total


def _only_fail(vs, fails: set[tuple[str, str]]) -> list[str]:
    got = {(sec, name) for sec, status, name, _d in vs if status != "PASS"}
    return [] if got == fails else [f"non-PASS verdicts {sorted(got)}, expected {sorted(fails)}"]


def _detail(vs, name: str) -> str | None:
    for _sec, _status, n, detail in vs:
        if n == name:
            return detail
    return None


def check(cmd: Command, code: int, out: str, err: str) -> list[str]:
    e = cmd.expect
    kind = cmd.kind
    want_code = {"scan_bound": 1, "all": 1, "tamper": 1, "usage": 2}.get(kind, 0)
    if kind == "case" and e["case"] == KNOWN_RED_CASE:
        want_code = 1
    problems = []
    if code != want_code:
        problems.append(f"exit {code}, expected {want_code}")
    if kind == "usage":
        if out:
            problems.append("usage error wrote a report to stdout")
        if not err.startswith(e["stderr"]):
            problems.append(f"stderr {err[:120]!r} does not start with {e['stderr']!r}")
        return problems

    vs = verdicts(out)
    res = _result(out)
    if res is None:
        return problems + ["no result line"]
    n = res[1]
    if n != len(vs):
        problems.append(f"result counts {n} checks, report has {len(vs)}")

    if kind == "scan":
        skipped = ",".join(map(str, e["skipped"])) or "none"
        want = (
            f"{e['points']} prime-power points over {e['primes']} primes "
            f"(ramified skipped: {skipped})"
        )
        if _detail(vs, "points") != want:
            problems.append(f"points: {_detail(vs, 'points')!r}, expected {want!r}")
        names = [name for _s, _st, name, _d in vs]
        if names != ["points", "nonnegativity", "realness", "square identity"]:
            problems.append(f"scan verdicts {names}")
        problems += _only_fail(vs, set())
    elif kind == "scan_bound":
        want = f"{e['where']}: a_p={e['ap']} violates"
        detail = _detail(vs, "eigenvalue bound") or ""
        if not detail.startswith(want):
            problems.append(f"eigenvalue bound: {detail!r}, expected {want!r}...")
        problems += _only_fail(vs, {("", "eigenvalue bound")})
    elif kind == "sos":
        if n != 7:
            problems.append(f"{n} checks, expected 7")
        if _detail(vs, "degree check at the trivial point") != "value 324":
            problems.append("degree at the trivial point is not 324")
        problems += _only_fail(vs, set())
    elif kind == "all":
        if n != ALL_CHECKS:
            problems.append(f"{n} checks, expected {ALL_CHECKS}")
        problems += _only_fail(vs, {(KNOWN_RED_CASE, "identity")})
    elif kind == "case":
        cid = e["case"]
        if {sec for sec, *_rest in vs} != {cid}:
            problems.append(f"report is not for case {cid}")
        red = {(cid, "identity")} if cid == KNOWN_RED_CASE else set()
        problems += _only_fail(vs, red)
    elif kind == "bridge":
        if n != 3:
            problems.append(f"{n} checks, expected 3")
        problems += _only_fail(vs, set())
    elif kind == "expand":
        if _detail(vs, "degree") != str(e["degree"]):
            problems.append(f"degree {_detail(vs, 'degree')}, expected {e['degree']}")
        poly = _detail(vs, "coefficient polynomial")
        if poly is None or _poly_value_at_one(poly) != e["degree"]:
            problems.append("coefficient polynomial at the trivial point != degree")
        problems += _only_fail(vs, set())
    elif kind == "poles":
        m = POLE_ORDER.match(_detail(vs, "pole order") or "")
        if not m or int(m.group(1)) > int(m.group(2)):
            problems.append(f"pole order {_detail(vs, 'pole order')!r}")
        problems += _only_fail(vs, set())
    elif kind == "tamper":
        fails = {name for _s, status, name, _d in vs if status == "FAIL"}
        if not {"degree", "identity"} <= fails:
            problems.append(f"tampered display not caught: FAIL on {sorted(fails)}")
    else:
        problems.append(f"no checker rule for {kind!r}")
    return problems
