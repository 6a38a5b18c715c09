"""Verification tools for the positivity backbone of symmetric-square
Rankin-Selberg zero-repulsion arguments: exact character bookkeeping, a
formal isobaric/Rankin-Selberg calculus, pole-order ledgers under declared
shape hypotheses, and numeric cross-checks against classical eigenforms."""

from .chargroup import CharacterGroup, FormalCharacter, standard_group
from .hypotheses import GL2Type, Hypotheses, Tri, classify
from .repalg import (
    RepAtom,
    RSPair,
    VirtualRep,
    ad_atom,
    atom_equal,
    cg_expand,
    char_atom,
    decompose_under,
    opaque_atom,
    plethysm_sym2,
    rs_product,
    sym_atom,
)
from .casebook import (
    CASE_IDS,
    run_all,
    verify_case,
    verify_plethysm_bridge,
)
from .dseries import build_D, scan_positivity, verify_sos
from .exprlang import parse_expr
from .poles import PoleInterval, isobaric_pair_pole, pole_order

__version__ = "0.1.0"

__all__ = [
    "CharacterGroup",
    "FormalCharacter",
    "standard_group",
    "GL2Type",
    "Hypotheses",
    "Tri",
    "classify",
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
    "CASE_IDS",
    "run_all",
    "verify_case",
    "verify_plethysm_bridge",
    "build_D",
    "scan_positivity",
    "verify_sos",
    "parse_expr",
    "PoleInterval",
    "isobaric_pair_pole",
    "pole_order",
    "__version__",
]
