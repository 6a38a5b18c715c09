"""Verification tools for the positivity backbone of symmetric-square
Rankin-Selberg zero-repulsion arguments: exact character bookkeeping, a
formal isobaric/Rankin-Selberg calculus, pole-order ledgers under declared
shape hypotheses, and numeric cross-checks against classical eigenforms.

The names below are re-exported from their modules on first access, so
`import lfcheck` loads none of its submodules."""

from importlib import import_module

__version__ = "0.1.0"


class InputError(ValueError):
    """Malformed or out-of-range input; the command line exits 2 on it."""


class Record:
    """Base of the mutable result records: each subclass lists its fields
    in `__slots__` and sets them in `__init__`."""

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


_EXPORTS = {
    "chargroup": ("CharacterGroup", "FormalCharacter", "standard_group"),
    "hypotheses": ("GL2Type", "Hypotheses", "Tri", "classify"),
    "repalg": (
        "RepAtom",
        "RSPair",
        "VirtualRep",
        "ad_atom",
        "atom_equal",
        "cg_expand",
        "char_atom",
        "decompose_under",
        "opaque_atom",
        "plethysm_sym2",
        "rs_product",
        "sym_atom",
    ),
    "casebook": ("CASE_IDS", "run_all", "verify_case", "verify_plethysm_bridge"),
    "dseries": ("build_D", "scan_positivity", "verify_sos"),
    "exprlang": ("parse_expr",),
    "poles": ("PoleInterval", "isobaric_pair_pole", "pole_order"),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "InputError", "__version__"]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
