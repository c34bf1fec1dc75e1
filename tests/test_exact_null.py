"""Exact-null oracles for the step statistic (Choi, Taylor & Tibshirani, 2017).

For Y = B + Z with Z an n x n matrix of N(0, 1) entries and known scale 1,
the step-1 statistic on the singular values of Y is exactly Unif(0, 1) when
B = 0, and the step-k statistic is close to it when B has rank k - 1 with
its signal far above the noise. At n = p the spec integrand is that
conditional density, so these cases check the calibration of the statistic
itself, not only its quadrature. At p = 2 with d2 = 0 the step-1 statistic
is the regularized upper incomplete gamma Q(3/2, d1^2 / 2).
"""

import mpmath
import numpy as np
import pytest

from covrank import csv_statistic, ks_distance, ks_pvalue_approx

REPS = 2000


def singular_values(n: int, signal: int, seed: int) -> np.ndarray:
    """Descending singular values of REPS draws of B + Z, where B is n x n with
    ``signal`` diagonal entries equal to 30 and zeros elsewhere."""
    y = np.random.default_rng(seed).standard_normal((REPS, n, n))
    y[:, range(signal), range(signal)] += 30.0
    return np.linalg.svd(y, compute_uv=False)


@pytest.mark.parametrize("n, signal, seed", [(5, 0, 505), (10, 0, 1010), (10, 1, 2101),
                                             (10, 2, 2102)],
                         ids=["n5-step1", "n10-step1", "n10-step2", "n10-step3"])
def test_statistic_is_uniform_under_the_exact_null(n, signal, seed):
    stats = csv_statistic(singular_values(n, signal, seed), signal + 1, scale2=1.0).statistic
    assert ks_pvalue_approx(ks_distance(stats), REPS) >= 0.001


@pytest.mark.parametrize("d1", np.linspace(0.3, 9.0, 30).tolist())
def test_two_values_with_a_zero_give_the_incomplete_gamma(d1):
    expected = float(mpmath.gammainc(1.5, d1 * d1 / 2, mpmath.inf, regularized=True))
    assert csv_statistic([d1, 0.0], 1, scale2=1.0) == pytest.approx(expected, rel=1e-13, abs=0.0)
