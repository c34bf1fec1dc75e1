"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the defining
formulas: a brute-force covariance accumulation and a fixed-grid composite
midpoint rule for the spectral integrals. No code is shared with the
adaptive quadrature or covariance paths under test. Stacked sequence results
are checked against the 1-d results of their rows, field by field.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 14  # grid nodes per pass

def covariance_by_loops(x: np.ndarray, center: bool = False) -> np.ndarray:
    """(1/n) sum_i x_i x_i^T accumulated with explicit scalar loops."""
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    if center:
        means = [sum(x[m, i] for m in range(n)) / n for i in range(p)]
        x = x - np.asarray(means)[None, :]
    c = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for m in range(n):
                acc += x[m, i] * x[m, j]
            c[i, j] = acc / n
    return c


def _log_integrand_grid(u: np.ndarray, lam2_others: np.ndarray, scale2: float) -> np.ndarray:
    """log f on the grid: the product of the gap factors, then one abs and one
    log per node. Rounding to nearest gives |a * b| the same bits whatever the
    signs, so the product of the signed gaps has the magnitude of the product
    of their absolute values. The product stays in range for the few small
    eigenvalues the tests use."""
    u2 = u * u
    prod = np.ones_like(u)
    gap = np.empty_like(u)
    for l2 in lam2_others:
        np.subtract(u2, l2, out=gap)
        prod *= gap
    with np.errstate(divide="ignore"):
        return np.log(np.abs(prod, out=prod)) - u2 / (2.0 * scale2)


def midpoint_log_integral(lo: float, hi: float, eigenvalues, k: int, scale2: float,
                          nodes: int = 1_000_000, tail_sigmas: float = 12.0) -> float:
    """Log of the integral by a composite midpoint rule on a uniform grid.

    Infinite upper limits are truncated the same way the package documents
    (largest eigenvalue plus ``tail_sigmas`` Gaussian scales) so that the
    two sides integrate the same interval; the integration rule itself is
    entirely independent.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    lo = float(lo)
    hi = float(hi)
    if math.isinf(hi):
        hi = max(lo, float(np.max(lam))) + tail_sigmas * math.sqrt(scale2)
    if hi <= lo:
        return float("-inf")
    lam2_others = np.delete(lam, k - 1) ** 2
    h = (hi - lo) / nodes

    # The grid is evaluated in cache-sized chunks; every node's value is the
    # same as in one pass over all nodes.
    logf = np.empty(nodes)
    for start in range(0, nodes, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, nodes), dtype=np.float64)
        logf[start:start + i.size] = _log_integrand_grid(lo + (i + 0.5) * h, lam2_others, scale2)
    shift = float(np.max(logf))
    if not math.isfinite(shift):
        return float("-inf")
    total = float(np.sum(np.exp(logf - shift)))
    return shift + math.log(total) + math.log(h)


def midpoint_csv_statistic(eigenvalues, k: int, scale2: float,
                           nodes: int = 1_000_000, tail_sigmas: float = 12.0) -> float:
    """Statistic by the midpoint rule: mass on [lam_k, lam_{k-1}] over
    mass on [lam_{k+1}, lam_{k-1}], lam_0 = +inf."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    upper = float(lam[k - 2]) if k >= 2 else math.inf
    log_num = midpoint_log_integral(float(lam[k - 1]), upper, lam, k, scale2,
                                    nodes=nodes, tail_sigmas=tail_sigmas)
    log_den = midpoint_log_integral(float(lam[k]), upper, lam, k, scale2,
                                    nodes=nodes, tail_sigmas=tail_sigmas)
    if log_den == float("-inf"):
        return 1.0
    return min(1.0, max(0.0, math.exp(log_num - log_den)))


def assert_rows_run_alone(stack, alone) -> None:
    """Assert that row i of each field ``run_sequence`` gives for a stack is, to
    the bit and with the same dtype, that field of the 1-d result ``alone[i]``:
    each step's statistic, scale2 and degenerate flag, NaN and False past the
    row's last step, the rank estimate and the boundary flag."""
    for name in stack._fields:
        got, want = getattr(stack, name), np.stack([getattr(r, name) for r in alone])
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes()), name


def ran_statistics(result) -> np.ndarray:
    """Statistics of the steps that a 1-d ``run_sequence`` result ran, step 1 first:
    they come before the NaN that marks the steps past its last."""
    return result.statistic[~np.isnan(result.statistic)]
