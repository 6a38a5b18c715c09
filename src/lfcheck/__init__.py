"""Verification tools for the positivity backbone of symmetric-square
Rankin-Selberg zero-repulsion arguments: exact character bookkeeping, a
formal isobaric/Rankin-Selberg calculus, pole-order ledgers under declared
shape hypotheses, and numeric cross-checks against classical eigenforms.

The names below are re-exported from their modules on first access, so
`import lfcheck` loads none of its submodules."""

from importlib import import_module

__version__ = "0.1.0"

# the tolerance of every numeric check, and the slack within which a value
# read from a table or handed to the scan must have modulus one
TOL = 1e-9
UNIT_SLACK = 1e-6


class InputError(ValueError):
    """Malformed or out-of-range input; the command line exits 2 on it."""


def _split_lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, without their ends, split where
    text mode splits (at \\n, \\r\\n or \\r).  Bytes that are not UTF-8
    raise an InputError naming the file and the line they are on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len(_split_lines(data[: e.start].decode("utf-8")))
        raise InputError(f"{path}:{line}: not UTF-8 text") from None
    return _split_lines(text)


_EXPORTS = {
    "chargroup": ("FormalCharacter",),
    "repalg": (
        "GL2Type",
        "RepAtom",
        "RSPair",
        "VirtualRep",
        "ad_atom",
        "cg_expand",
        "char_atom",
        "opaque_atom",
        "plethysm_sym2",
        "rs_product",
        "sym_atom",
    ),
    "decompose": ("Hypotheses", "Tri", "atom_equal", "decompose_under"),
    "casebook": (
        "CASE_IDS",
        "classify",
        "run_all",
        "verify_case",
        "verify_plethysm_bridge",
    ),
    "dseries": ("build_D", "verify_sos"),
    "scan": ("scan_positivity",),
    "exprlang": ("parse_expr",),
    "poles": ("PoleInterval", "isobaric_pair_pole", "pole_order"),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "InputError", "TOL", "UNIT_SLACK", "__version__"]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
