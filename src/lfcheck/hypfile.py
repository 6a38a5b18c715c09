"""Hypothesis files, the `key = value` lines that `poles --hyp` reads:
type_pi and type_pi' (dihedral, tetrahedral, octahedral, or general),
plus the optional boolean twist_equiv; `#` starts a comment.  Only the
`poles` subcommand loads this module.
"""

from __future__ import annotations

from . import InputError, read_lines
from .hypotheses import GL2Type, Hypotheses


class HypFileError(InputError):
    pass


_TYPES = {t.value: t for t in GL2Type}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_hyp_file(path: str) -> Hypotheses:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HypFileError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise HypFileError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = val
    for req in ("type_pi", "type_pi'"):
        if req not in fields:
            raise HypFileError(f"{path}: missing required key {req!r}")
    kwargs = {}
    for key, dest in (("type_pi", "type_pi"), ("type_pi'", "type_pi2")):
        val = fields.pop(key).lower()
        if val not in _TYPES:
            raise HypFileError(
                f"{path}: {key} must be one of {', '.join(_TYPES)}; got {val!r}"
            )
        kwargs[dest] = _TYPES[val]
    if "twist_equiv" in fields:
        val = fields.pop("twist_equiv").lower()
        if val not in _BOOLS:
            raise HypFileError(f"{path}: twist_equiv must be a boolean, got {val!r}")
        kwargs["twist_equiv"] = _BOOLS[val]
    if fields:
        raise HypFileError(f"{path}: unknown keys: {', '.join(sorted(fields))}")
    try:
        return Hypotheses(**kwargs)
    except ValueError as e:
        raise HypFileError(f"{path}: {e}") from None
