"""Sequential nested rank testing.

Steps k = 1, 2, ... each test "rank <= k-1" against "rank >= k" at level
alpha, rejecting when the step statistic falls at or below alpha. Testing
proceeds while nulls keep being rejected; the number of rejections before
the first acceptance is the rank estimate. Because step p is never tested,
a run that rejects all p - 1 nulls can only certify rank >= p - 1, which is
reported as rank_estimate p - 1 with ``boundary_reached`` set.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, _check_alpha
from .spectrum import sample_covariance, symmetric_eigen
from .statistic import QuadratureSettings, _check_eigenvalues, csv_statistic

__all__ = ["SequenceStatistics", "run_sequence", "rank_from_data"]


class SequenceStatistics(NamedTuple):
    """Results of :func:`run_sequence` on a stack of spectra, one row per
    spectrum; on one spectrum, the same fields without the row axis.

    Column k - 1 of ``statistic``, ``scale2`` and ``degenerate`` holds step k;
    past a row's last step they hold NaN and False. Step k rejected where its
    statistic is at or below alpha. ``degenerate`` marks steps whose statistic
    a tie fixed without quadrature, as reported by :func:`csv_statistic`:
    lam_k == lam_{k+1} (which includes an exactly low-rank trailing spectrum,
    whose plug-in scale is 0) gives 1 and accepts; lam_{k-1} == lam_k with
    k >= 2 gives 0 and rejects.
    """

    statistic: np.ndarray
    scale2: np.ndarray
    degenerate: np.ndarray
    rank_estimate: np.ndarray
    boundary_reached: np.ndarray


def run_sequence(eigenvalues, alpha: float, settings: QuadratureSettings = QuadratureSettings()
                 ) -> SequenceStatistics:
    """Run the nested tests over k = 1..p-1 on a descending spectrum.

    Stops at the first step whose statistic exceeds alpha; every earlier
    step is a rejection. The plug-in scale is recomputed at each step from
    the trailing eigenvalues lam_k..lam_p.

    A 2-d stack of spectra (one per row) gives one row of results per
    spectrum. Each step is evaluated in one :func:`csv_statistic` call for
    the rows still rejecting, and every row's values are the ones it would
    get alone. When row r fails at step k, the rows from r on stop there,
    step k is run again on the rows below r, and the sequence goes on with
    them. The failure is raised once every step has run; each later one lies
    in a lower row, so a NumericalError names the lowest failing row in
    ``index``.
    """
    lam = _check_eigenvalues(eigenvalues)
    alpha = _check_alpha(alpha)

    spectra = np.atleast_2d(lam)
    rows, p = spectra.shape
    stats = np.full((rows, p - 1), np.nan)
    scale2 = np.full((rows, p - 1), np.nan)
    degenerate = np.zeros((rows, p - 1), dtype=bool)
    active = np.arange(rows)
    failure = None
    k = 1
    while k < p and active.size:
        try:
            step = csv_statistic(spectra[active], k, settings=settings)
        except NumericalError as exc:
            # A lower row may still fail, at this step or a later one.
            row = int(active[exc.index or 0])
            failure = exc.at(row, f"step k={k}: ")
            active = active[active < row]
            continue
        stats[active, k - 1] = step.statistic
        scale2[active, k - 1] = step.scale2
        degenerate[active, k - 1] = step.degenerate
        active = active[step.statistic <= alpha]
        k += 1
    if failure is not None:
        raise failure

    # Every step before the first acceptance rejected; NaN is no rejection.
    rejected = stats <= alpha
    result = SequenceStatistics(statistic=stats, scale2=scale2, degenerate=degenerate,
                                rank_estimate=rejected.sum(axis=1),
                                boundary_reached=rejected[:, -1])
    return result if lam.ndim == 2 else SequenceStatistics(*(field[0] for field in result))


def rank_from_data(data, alpha: float, center: bool = False,
                   settings: QuadratureSettings = QuadratureSettings()) -> SequenceStatistics:
    """Estimate the covariance rank directly from an n x p data matrix.

    Composition of :func:`sample_covariance`, :func:`symmetric_eigen`, and
    :func:`run_sequence`. Warns when n <= p, where the asymptotic guarantees
    behind the test do not apply.
    """
    cov = sample_covariance(data, center=center)
    n, p = np.shape(data)
    if n <= p:
        warnings.warn(f"n={n} observations for p={p} covariates; "
                      "the test's guarantees assume n > p", stacklevel=2)
    spec = symmetric_eigen(cov)
    return run_sequence(spec.eigenvalues, alpha, settings=settings)
