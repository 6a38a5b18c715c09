"""Regenerate the golden CLI transcripts.

Run from the repository root:

    python3 tests/goldens/regen.py

The commands and the normalization (timing lines stripped, the fixtures
directory replaced by the placeholder FIXTURES) come from tests/test_cli.py,
so a new golden is one entry in its GOLDEN_COMMANDS.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)

sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "src"))
sys.path.insert(0, TESTS)

from lfcheck.cli import main  # noqa: E402
from test_cli import GOLDEN_COMMANDS, normalize  # noqa: E402


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


if __name__ == "__main__":
    for name, argv in GOLDEN_COMMANDS.items():
        code, out = run(argv)
        path = os.path.join(HERE, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(f"# exit {code}\n")
            fh.write(normalize(out))
        print(f"wrote {name}.txt (exit {code})")
