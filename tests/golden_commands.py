"""The golden CLI transcripts: their commands and the normalization that
strips timing lines and names the fixtures directory FIXTURES.

Free of pytest, so tests/goldens/regen.py runs on any interpreter; a new
golden is one entry in GOLDEN_COMMANDS.
"""

import os

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
HYP = os.path.join(FIXTURES, "octa_octa.hyp")

GOLDEN_COMMANDS = {
    "verify_sos": ["verify", "sos"],
    "case_4_1": ["verify", "case", "4.1"],
    "case_4_4_3": ["verify", "case", "4.4.3"],
    "case_4_2_tamper_5": ["verify", "case", "4.2", "--tamper", "5"],
    "verify_all": ["verify", "all"],
    "bridge": ["verify", "bridge"],
    "expand": ["expand", "Ad(pi) (x) Ad(pi) tw chi"],
    # the order of entries: characters, opaque, Sym^m and Ad atoms, then pairs
    "expand_order": [
        "expand",
        "Sym^3(pi') tw mu (+) nu_pi (+) chi^2 (+) Ad(pi) (x) Ad(pi') tw chi"
        " (+) pi (x) pi' tw chi^-1 (+) omega^2 (+) Sym^2(pi) tw mu'",
    ],
    "scan_small": [
        "scan", "--form1", "delta", "--form2", "11a",
        "--char", "kronecker:-4", "--xmax", "60", "--lmax", "2",
    ],
    # one built-in on both sides: the second ingest reads the first's series
    "scan_delta_delta": [
        "scan", "--form1", "delta", "--form2", "delta",
        "--char", "trivial", "--xmax", "60", "--lmax", "2",
    ],
    # relative paths, since the inputs digest hashes the command string:
    # every golden runs from the fixtures directory
    "scan_tables_small": [
        "scan", "--form1", "form_w12_l1.tsv", "--form2", "form_w2_l11.tsv",
        "--char", "char_mu12.tsv", "--xmax", "60", "--lmax", "8",
    ],
    "poles": ["poles", "Sym^4(pi) tw omega^-2 (x) Ad(pi')", "--hyp", HYP],
    # twists reduced by the adjoint's cubic group and by nu_pi''s eta'
    "poles_tetra": [
        "poles",
        "Ad(pi) tw mu (x) Sym^4(pi') tw chi*omega'^-2 (+) Ad(pi) tw mu^2*chi"
        " (+) nu_pi' tw eta'*chi",
        "--hyp", os.path.join(FIXTURES, "tetra_octa.hyp"),
    ],
}


def normalize(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("elapsed:")]
    return ("\n".join(lines)).replace(FIXTURES, "FIXTURES") + "\n"
