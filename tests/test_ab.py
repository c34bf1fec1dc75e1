"""The claim verdict of ``tools/ab.py``: a gain needs at least nine tenths of the
pairs won, ties counting for neither, and a median better than the base's by
more than the base's q3 - q1."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab  # noqa: E402

# Quartiles 10.225, 10.45 and 10.675: a spread of 0.45.
BASE = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


@pytest.mark.parametrize("change, verdict", [
    ([b - 1.0 for b in BASE], "gain"),
    ([b - 1.0 for b in BASE[:9]] + [11.5], "gain"),
    ([b - 1.0 for b in BASE[:8]] + [11.5, 11.5], "unresolved"),
    ([b - 1.0 for b in BASE[:8]] + BASE[8:], "unresolved"),
    ([b - 0.4 for b in BASE], "unresolved"),
    ([b - 0.5 for b in BASE], "gain"),
    ([b + 1.0 for b in BASE], "unresolved"),
], ids=["10-of-10", "9-of-10", "8-of-10", "8-of-10-and-2-ties", "median-within-spread",
        "median-beyond-spread", "worse"])
def test_a_lower_is_better_claim(change, verdict):
    assert ab.claim(BASE, change, lower=True) == verdict
    # Mirrored, the same runs judge a metric where higher is better.
    assert ab.claim([-b for b in BASE], [-c for c in change], lower=False) == verdict


def test_each_row_carries_both_verdicts(capsys):
    runs = {"base": [{"wall_s": b, "failed": 0.0} for b in BASE],
            "change": [{"wall_s": b - 1.0, "failed": 0.0} for b in BASE]}
    ab.report(runs, {"wall_s": ("lower", 0.25)})
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split()[0] == "wall_s" and rows[1].split()[-2:] == ["within", "gain"]
    assert rows[2].split()[0] == "failed" and rows[2].split()[-2:] == ["within", "unresolved"]


def test_host_scale_row_shows_both_sides_quartiles_and_no_verdict(capsys):
    # A scaled row can disagree with its raw row when the host probe moved
    # between the sides; the host_scale row shows that without judging it.
    runs = {"base": [{"wall_s": b, "failed": 0.0, "host_scale": 1.0 + b / 100.0} for b in BASE],
            "change": [{"wall_s": b, "failed": 0.0, "host_scale": 1.2} for b in BASE]}
    ab.report(runs, {"wall_s": ("lower", 0.25)})
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:]] == ["wall_s", "failed", "host_scale"]
    fields = rows[-1].split()[1:]
    assert [float(x) for x in fields] == pytest.approx([1.10225, 1.1045, 1.10675, 1.2, 1.2, 1.2],
                                                      rel=1e-3)
