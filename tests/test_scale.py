"""Scale sweep over the whole float64 range.

The statistic is scale invariant, so ``c * lam`` and ``c * x`` must give the
unscaled statistics and decisions for every c = 10^e, e = -300..300, unless
float64 under- or overflow makes that impossible; then the call must raise a
``CovrankError`` rather than return a different answer. Criterion 5 checks
invariance at moderate scales only; this sweep covers the extremes.
"""

import numpy as np
import pytest

from covrank import CovrankError, csv_statistic, rank_from_data

from oracles import ran_statistics

ALPHA = 0.05
EXPONENTS = range(-300, 301)

SPECTRA = {
    "three_factors": [9.0, 4.0, 2.0, 0.06, 0.05, 0.04, 0.03],
    "zero_tail": [5.0, 3.0, 0.0, 0.0],  # the tie rule decides step 3 at every scale
}


def rank_two_data() -> np.ndarray:
    rng = np.random.default_rng(2017)
    loadings = np.array([[3.0, 1.0, -1.0, 0.5, 2.0, 0.0],
                         [0.0, 2.0, 1.0, -1.5, 0.5, 1.0]])
    return rng.standard_normal((200, 2)) @ loadings + 0.1 * rng.standard_normal((200, 6))


@pytest.mark.parametrize("name", SPECTRA)
def test_spectrum_scale_sweep_keeps_statistics_or_raises(name):
    lam = np.array(SPECTRA[name])
    base = [csv_statistic(lam, k) for k in range(1, lam.size)]
    raised = []
    for e in EXPONENTS:
        for k, ref in enumerate(base, start=1):
            try:
                got = csv_statistic(10.0 ** e * lam, k)
            except CovrankError:
                raised.append(e)
                continue
            assert (got <= ALPHA) == (ref <= ALPHA), (e, k)
            assert abs(got - ref) <= 1e-9, (e, k, got, ref)
    assert not [e for e in raised if abs(e) <= 50]


def test_data_scale_sweep_keeps_decisions_or_raises():
    x = rank_two_data()
    base = rank_from_data(x, ALPHA)
    assert base.rank_estimate == 2
    raised = []
    for e in EXPONENTS:
        try:
            got = rank_from_data(10.0 ** e * x, ALPHA)
        except CovrankError:
            raised.append(e)
            continue
        assert got.rank_estimate == base.rank_estimate, e
        got_stats, base_stats = ran_statistics(got), ran_statistics(base)
        assert (got_stats <= ALPHA).tolist() == (base_stats <= ALPHA).tolist(), e
        for k, (a, b) in enumerate(zip(got_stats.tolist(), base_stats.tolist()), start=1):
            assert abs(a - b) <= 1e-9, (e, k)
    assert not [e for e in raised if abs(e) <= 50]
