"""The line counts of ``tools/src_loc.py``: code-only lines leave out blank
lines, comment lines and docstrings, and count every line of a multi-line
statement."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import src_loc  # noqa: E402

SOURCE = "\n".join([
    '"""Module docstring,',
    'over two lines."""',
    "",
    "import math  # a trailing comment leaves the line code",
    "",
    "# a comment line",
    "",
    "",
    "def f(x):",
    '    """Function docstring."""',
    "    total = (x",
    "             + 1)",
    "    return math.sqrt(total)",
    "",
])


def test_counts_raw_and_code_only_lines():
    # Code: the import, the def, both lines of the assignment and the return.
    assert src_loc.count(SOURCE) == (13, 5)
