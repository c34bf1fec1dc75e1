"""Classical factor-number selectors, as baselines beside covrank's sequential test.

Both read a descending spectrum lam_1 >= ... >= lam_p >= 0 of a sample
covariance, such as ``symmetric_eigen(sample_covariance(x)).eigenvalues``
from covrank's public API, and search k up to k_max = floor(p/2):

- :func:`er`, the eigenvalue ratio of Ahn & Horenstein (Econometrica 81(3),
  2013): the k in 1..k_max that maximises lam_k / lam_{k+1};
- :func:`ic_p2`, the IC_p2 criterion of Bai & Ng (Econometrica 70(1), 2002):
  the k in 0..k_max that minimises log V(k) + k (n+p)/(np) log min(n, p),
  with V(k) = (1/p) sum_{j>k} lam_j.

A zero denominator makes a ratio +inf, V(k) = 0 makes log V(k) -inf, and the
first extremum wins, so a spectrum with an exact-zero tail gives a defined k
and no floating-point warning. The selectors are measurements to set beside
covrank's estimate; nothing in the package uses them.
"""

import numpy as np

from covrank import ValidationError

__all__ = ["er", "ic_p2"]


def _descending(eigenvalues) -> np.ndarray:
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size < 2:
        raise ValidationError(f"need a 1-d spectrum of at least 2 eigenvalues, "
                              f"got shape {lam.shape}")
    if not np.all(np.isfinite(lam)) or lam[-1] < 0.0 or np.any(np.diff(lam) > 0.0):
        raise ValidationError("eigenvalues must be finite, non-negative and descending")
    return lam


def er(eigenvalues) -> int:
    """Ahn & Horenstein's eigenvalue-ratio estimate of the number of factors."""
    lam = _descending(eigenvalues)
    k_max = lam.size // 2
    top, below = lam[:k_max], lam[1:k_max + 1]
    ratios = np.divide(top, below, out=np.full(k_max, np.inf), where=below > 0.0)
    return int(np.argmax(ratios)) + 1


def ic_p2(eigenvalues, n: int) -> int:
    """Bai & Ng's IC_p2 estimate of the number of factors from ``n`` observations."""
    lam = _descending(eigenvalues)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    p = lam.size
    k = np.arange(p // 2 + 1)
    v = np.array([lam[j:].sum() for j in k]) / p
    log_v = np.log(v, out=np.full(k.size, -np.inf), where=v > 0.0)
    return int(np.argmin(log_v + k * (n + p) / (n * p) * np.log(min(n, p))))
