"""Structured verification reports.

One schema for every front-end command: the command string, a digest of
the inputs, a flat or sectioned list of verdicts, and the elapsed time.
Verdicts are deterministic for fixed inputs; timing is informational and
excluded from golden comparisons.  A failing verdict always carries a
reproducer in its detail text (the offending factor, residual, point, or
file line).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

try:  # a built-in module spares loading OpenSSL on every command
    from _sha256 import sha256
except ImportError:
    try:  # its name from Python 3.12 on
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256


class Verdict(NamedTuple):
    name: str
    status: str  # PASS | FAIL | UNKNOWN
    detail: str = ""


def check(name: str, ok: bool, detail: str, fail_detail: str | None = None) -> Verdict:
    """The verdict on one condition, the only place a condition becomes a
    status: PASS with detail when ok holds, else FAIL with fail_detail (or
    detail when none is given)."""
    if ok:
        return Verdict(name, "PASS", detail)
    return Verdict(name, "FAIL", detail if fail_detail is None else fail_detail)


class Section(NamedTuple):
    heading: str
    subheading: str = ""
    verdicts: Sequence[Verdict] = ()


class Report(NamedTuple):
    """`facts` holds named values and `timings` seconds per stage; only the
    JSON form reports either."""

    command: str
    inputs_digest: str
    verdicts: Sequence[Verdict] = ()
    sections: Sequence[Section] = ()
    elapsed_s: float = 0.0
    facts: dict | None = None
    timings: dict | None = None

    def all_verdicts(self) -> list[Verdict]:
        out = list(self.verdicts)
        for sec in self.sections:
            out.extend(sec.verdicts)
        return out

    @property
    def result(self) -> str:
        vs = self.all_verdicts()
        if any(v.status == "FAIL" for v in vs):
            return "FAIL"
        if any(v.status == "UNKNOWN" for v in vs):
            return "UNKNOWN"
        return "PASS"

    @property
    def exit_status(self) -> int:
        return 0 if self.result == "PASS" else 1


def digest(*parts: str) -> str:
    h = sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _verdict_lines(verdicts: list[Verdict], indent: str = "") -> list[str]:
    out = []
    for v in verdicts:
        line = f"{indent}[{v.status}] {v.name}"
        if v.detail:
            line += f": {v.detail}"
        out.append(line)
    return out


def render_text(rep: Report) -> str:
    lines = [f"command: {rep.command}", f"inputs: sha256:{rep.inputs_digest}"]
    lines += _verdict_lines(rep.verdicts)
    for sec in rep.sections:
        head = f"== {sec.heading}"
        if sec.subheading:
            head += f" ({sec.subheading})"
        lines.append(head)
        lines += _verdict_lines(sec.verdicts, indent="  ")
    n = len(rep.all_verdicts())
    lines.append(f"elapsed: {rep.elapsed_s:.3f}s")
    lines.append(f"result: {rep.result} ({n} check{'s' if n != 1 else ''})")
    return "\n".join(lines)


def render_json(rep: Report) -> str:
    import json  # only --json pays for loading it

    def vd(v: Verdict) -> dict:
        return {"check": v.name, "status": v.status, "details": v.detail}

    doc = {
        "command": rep.command,
        "inputs_digest": rep.inputs_digest,
        "verdicts": [vd(v) for v in rep.verdicts],
        "sections": [
            {
                "heading": s.heading,
                "subheading": s.subheading,
                "verdicts": [vd(v) for v in s.verdicts],
            }
            for s in rep.sections
        ],
        "elapsed_s": round(rep.elapsed_s, 6),
        "result": rep.result,
    }
    if rep.facts:
        doc["facts"] = rep.facts
    if rep.timings:
        doc["timings"] = rep.timings
    return json.dumps(doc, indent=2, sort_keys=True)
