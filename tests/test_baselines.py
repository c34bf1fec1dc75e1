"""The classical factor-number selectors of ``report/baselines.py`` on hand-made spectra.

Each expected k is worked out by hand from the selector's formula; see the
comments. These pin the selectors only: no result of theirs gates anything.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from covrank import ValidationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from report.baselines import er, ic_p2  # noqa: E402


def selected(eigenvalues, n):
    """Both selectors' k, with every warning and floating-point error raised."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return er(eigenvalues), ic_p2(eigenvalues, n)


def test_clear_gap():
    # Ratios 1.25, 1.33, 60, 1. IC_p2's penalty is 108/800 log 8 = 0.281 per
    # factor, and the criterion runs 1.119, 0.875, 0.354, -1.930, -1.873.
    assert selected([10.0, 8.0, 6.0, 0.1, 0.1, 0.1, 0.1, 0.1], 100) == (3, 3)


@pytest.mark.parametrize("eigenvalues, expected", [
    # Every ratio is 2 (exact in binary): the first k wins. IC_p2's penalty
    # is 106/600 log 6 = 0.317 per factor, and the criterion runs 0.965,
    # 0.572, 0.163, -0.283.
    ([8.0, 4.0, 2.0, 1.0, 0.5, 0.25], (1, 3)),
    # A flat spectrum: every ratio is 1; the criterion runs 0, 0.134, 0.228, 0.256.
    ([1.0] * 6, (1, 0)),
    # Two tied factors: ratios 1, 50, 1; the criterion runs 0.550, 0.211,
    # -2.075, -2.046.
    ([5.0, 5.0, 0.1, 0.1, 0.1, 0.1], (2, 2)),
], ids=["equal-ratios", "flat", "tied-factors"])
def test_ties(eigenvalues, expected):
    assert selected(eigenvalues, 100) == expected


@pytest.mark.parametrize("eigenvalues, expected", [
    # Ratios 1.5, 2/0 = +inf, 0/0 = +inf; V(2) = V(3) = 0.
    ([3.0, 2.0, 0.0, 0.0, 0.0, 0.0], (2, 2)),
    ([5.0, 0.0, 0.0, 0.0], (1, 1)),
    ([0.0, 0.0, 0.0, 0.0], (1, 0)),
], ids=["rank-2", "rank-1", "all-zero"])
def test_an_exact_zero_tail_gives_a_defined_k(eigenvalues, expected):
    assert selected(eigenvalues, 100) == expected


@pytest.mark.parametrize("eigenvalues", [[1.0], [[2.0, 1.0]], [1.0, 2.0], [2.0, -1.0],
                                         [np.inf, 1.0], [np.nan, 1.0]],
                         ids=["one", "2-d", "ascending", "negative", "inf", "nan"])
def test_bad_spectra_are_refused(eigenvalues):
    with pytest.raises(ValidationError):
        er(eigenvalues)
    with pytest.raises(ValidationError):
        ic_p2(eigenvalues, 10)


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
def test_bad_sample_sizes_are_refused(n):
    with pytest.raises(ValidationError, match="n must be a positive integer"):
        ic_p2([2.0, 1.0], n)
