"""Golden outputs of the three CLI commands in every output format.

Each case runs one command on a small seeded input in ``tests/golden/`` and
compares its stdout with the file recorded there. JSON and TSV are compared
field by field: decisions, counts, booleans and strings exactly, floats to
1e-12 relative. Human output is compared as exact text.

Re-record, only when outputs are meant to change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import math
from pathlib import Path

import pytest

from covrank.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

# rank_input.csv: 200 x 10 with a header row, planted rank 2 plus unit noise,
# written with repr; its three statistics (0.015, 0.0017, 0.78) all depend on
# the quadrature.
COMMANDS = {
    "rank": ["rank", "rank_input.csv"],
    "simulate": ["simulate", "simulate_config.json"],
    "nullcheck": ["nullcheck", "nullcheck_config.json", "--include-statistics"],
}
FORMATS = ("human", "json", "tsv")


def run(command: str, fmt: str) -> str:
    name, path, *flags = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([name, str(GOLDEN / path), *flags, "--format", fmt], stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def golden_file(command: str, fmt: str) -> Path:
    return GOLDEN / f"{command}.{fmt}"


def same_float(got: float, want: float) -> bool:
    return got == want or math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def assert_json_matches(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{where}[{i}]")
    elif type(want) is float and type(got) is float:
        assert same_float(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def float_cell(cell: str):
    """The cell's float value, or None for an integer or a non-numeric cell."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def assert_tsv_matches(got: str, want: str):
    got_rows = [line.split("\t") for line in got.split("\n")]
    want_rows = [line.split("\t") for line in want.split("\n")]
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    for lineno, (g_row, w_row) in enumerate(zip(got_rows, want_rows), start=1):
        for g, w in zip(g_row, w_row):
            g_val, w_val = float_cell(g), float_cell(w)
            if g == w or (g_val is not None and w_val is not None and same_float(g_val, w_val)):
                continue
            pytest.fail(f"line {lineno}: {g!r} != {w!r}")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(command, fmt):
    got = run(command, fmt)
    want = golden_file(command, fmt).read_text(encoding="utf-8")
    if fmt == "json":
        assert_json_matches(json.loads(got), json.loads(want))
    elif fmt == "tsv":
        assert_tsv_matches(got, want)
    else:
        assert got == want


if __name__ == "__main__":
    for command in COMMANDS:
        for fmt in FORMATS:
            golden_file(command, fmt).write_text(run(command, fmt), encoding="utf-8")
