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
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .spectrum import sample_covariance, symmetric_eigen
from .statistic import QuadratureSettings, _check_eigenvalues, csv_statistic

__all__ = ["StepOutcome", "SequentialResult", "run_sequence", "rank_from_data"]


@dataclass(frozen=True)
class StepOutcome:
    """Result of one test step.

    ``degenerate`` marks steps whose statistic a tie fixed without
    quadrature, as reported by :func:`csv_statistic`: lam_k == lam_{k+1}
    (which includes an exactly low-rank trailing spectrum, whose plug-in
    scale is 0) gives 1 and accepts; lam_{k-1} == lam_k with k >= 2 gives 0
    and rejects.
    """

    k: int
    statistic: float
    rejected: bool
    scale2_used: float
    degenerate: bool


@dataclass(frozen=True)
class SequentialResult:
    alpha: float
    steps: tuple[StepOutcome, ...] = field(repr=False)
    rank_estimate: int
    boundary_reached: bool


def _check_alpha(alpha) -> float:
    """The test level as a float; ValidationError unless it lies in (0, 1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def run_sequence(eigenvalues, alpha: float, settings: QuadratureSettings = QuadratureSettings()
                 ) -> SequentialResult | tuple[SequentialResult, ...]:
    """Run the nested tests over k = 1..p-1 on a descending spectrum.

    Stops at the first step whose statistic exceeds alpha; every earlier
    step is a rejection. The plug-in scale is recomputed at each step from
    the trailing eigenvalues lam_k..lam_p.

    A 2-d stack of spectra (one per row) gives a tuple with one result per
    row. Each step is evaluated in one :func:`csv_statistic` call for the
    rows still rejecting, and every row's result is the one it would get
    alone. When row r fails, the rows below r are run first and their
    failure, if any, is raised instead, so a NumericalError names the lowest
    failing row in ``index``.
    """
    lam = _check_eigenvalues(eigenvalues)
    alpha = _check_alpha(alpha)

    spectra = np.atleast_2d(lam)
    rows, p = spectra.shape
    stats = np.empty((rows, p - 1))
    scale2 = np.empty((rows, p - 1))
    degenerate = np.empty((rows, p - 1), dtype=bool)
    n_steps = np.zeros(rows, dtype=np.int64)
    active = np.arange(rows)
    k = 1
    while k < p and active.size:
        try:
            step = csv_statistic(spectra[active], k, settings=settings)
        except NumericalError as exc:
            # A lower row may still fail at a later step: its own sequence
            # raises that lower failure, if there is one.
            row = int(active[exc.index or 0])
            if row:
                run_sequence(spectra[:row], alpha, settings)
            raise exc.at(row, f"step k={k}: ") from exc
        stats[active, k - 1] = step.statistic
        scale2[active, k - 1] = step.scale2
        degenerate[active, k - 1] = step.degenerate
        n_steps[active] = k
        active = active[step.statistic <= alpha]
        k += 1

    results = []
    for i in range(rows):
        m = int(n_steps[i])
        steps = tuple(
            StepOutcome(k=j + 1, statistic=s, rejected=s <= alpha, scale2_used=s2, degenerate=d)
            for j, (s, s2, d) in enumerate(zip(stats[i, :m].tolist(), scale2[i, :m].tolist(),
                                               degenerate[i, :m].tolist()))
        )
        rank_estimate = sum(1 for s in steps if s.rejected)
        boundary = m == p - 1 and steps[-1].rejected
        results.append(SequentialResult(alpha=alpha, steps=steps, rank_estimate=rank_estimate,
                                        boundary_reached=boundary))
    return results[0] if lam.ndim == 1 else tuple(results)


def rank_from_data(data, alpha: float, center: bool = False,
                   settings: QuadratureSettings = QuadratureSettings()) -> SequentialResult:
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
