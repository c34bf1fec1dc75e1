"""Sample covariance construction and symmetric eigendecomposition.

The estimation pipeline starts here: an n x p observation matrix is turned
into the p x p second-moment matrix ``(1/n) * sum_i x_i x_i^T`` (divisor n,
no Bessel correction), whose eigenvalues, sorted in descending order, feed
the sequential rank test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, _bool, _real_array

__all__ = ["Spectrum", "sample_covariance", "symmetric_eigen"]

_TINY = np.finfo(np.float64).tiny  # smallest normal float64
_CLAMP = 1e-12  # eigenvalues within _CLAMP * max|m_i| of zero are snapped to 0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, or of a stack of them, sorted in descending order.

    Attributes
    ----------
    eigenvalues : np.ndarray
        Length-p vector, ``eigenvalues[0] >= ... >= eigenvalues[p-1]``; for a
        stack, one such row per matrix, shape (rows, p).
    eigenvectors : np.ndarray or None
        Orthonormal p x p matrix whose columns match the eigenvalue order (for a
        stack, one per matrix, shape (rows, p, p)), or None when vectors were not
        requested.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def sample_covariance(data, center: bool = False) -> np.ndarray:
    """Second-moment matrix ``(1/n) * sum_i x_i x_i^T`` of the rows of ``data``.

    Parameters
    ----------
    data : array_like, shape (n, p)
        Observation matrix, one row per observation.
    center : bool
        Subtract the column sample mean first. The simulation designs assume
        mean-zero variables, so the harness uses ``center=False``; on field
        data centering is the safe choice.

    Returns
    -------
    np.ndarray, shape (p, p)
        Exactly symmetric matrix (the two triangles are averaged so that
        ``C[i, j] == C[j, i]`` bit for bit). Divisor is n, not n - 1.

    Raises
    ------
    ValidationError
        ``data`` is not an n x p matrix of real numbers with n, p >= 2, or
        has a NaN or Inf entry; ``center`` is not a bool.
    NumericalError
        ``x^T x`` overflowed float64, or underflowed (its largest diagonal
        entry is below the smallest normal float) while the data are not
        zero; ``index`` is 0.
    """
    arr = _real_array("data", data)
    center = _bool("center", center)
    if arr.ndim != 2 or min(arr.shape) < 2:
        raise ValidationError(f"data must be an n x p matrix with n, p >= 2, got shape {arr.shape}")
    n = arr.shape[0]
    with np.errstate(all="ignore"):
        x = arr - arr.mean(axis=0) if center else arr
        t = x.T @ x
    # t_jj sums the squares of column j, centered or not, so a NaN or Inf
    # entry makes it non-finite; since |t_ij| <= sqrt(t_ii t_jj), the diagonal
    # also shows an overflow, and a largest diagonal entry below the smallest
    # normal float shows underflow. Only then are the entries checked, to tell
    # invalid data from a float-range failure.
    peak = t.diagonal().max()
    if not _TINY <= peak < math.inf and x.any():
        if not np.isfinite(arr).all():
            raise ValidationError("non-finite values in data")
        raise NumericalError("float64 under- or overflow in x^T x; rescale the data", index=0)
    # dgemm output is symmetric only up to rounding; averaging the triangles
    # makes symmetry exact. Dividing by n first keeps a diagonal entry near the
    # float64 maximum from overflowing in the sum.
    t /= n
    return (t + t.T) * 0.5


def symmetric_eigen(m, want_vectors: bool = False) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, or of a stack of them, descending order.

    Eigenvalues with ``|lam| <= 1e-12 * max|m_i|``, for each matrix ``m_i``
    of a stack, are snapped to exact zero. Exact zeros matter downstream:
    trailing eigenvalues of covariance matrices built from exactly low-rank
    data must come out as 0.0, not 1e-16 noise, so that the tie rule of the
    test statistic (lam_k == lam_{k+1} == 0) fires deterministically.

    A stack is validated once and decomposed in one LAPACK-backed call, which
    still factors each matrix on its own, so every row is bit-identical to a
    call on that matrix alone.

    Parameters
    ----------
    m : array_like, shape (p, p) or (rows, p, p)
        Symmetric matrix, or stack of them, with finite entries. Symmetry must
        hold exactly as stored (build inputs via :func:`sample_covariance` or
        symmetrize explicitly).
    want_vectors : bool
        Also return the orthonormal eigenvector matrices.

    Raises
    ------
    ValidationError
        Non-real, non-square, non-symmetric, or non-finite input (any matrix
        of a stack); ``want_vectors`` is not a bool.
    NumericalError
        The underlying solver failed to converge.
    """
    a = _real_array("m", m)
    want_vectors = _bool("want_vectors", want_vectors)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"matrix must be square or a stack of square matrices, "
                              f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValidationError("matrix is not exactly symmetric")

    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals = np.linalg.eigvalsh(a)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigendecomposition failed to converge for p={a.shape[-1]}: {exc}"
        ) from exc

    vals = vals[..., ::-1].copy()
    if vecs is not None:
        vecs = np.ascontiguousarray(vecs[..., ::-1])

    tol = _CLAMP * np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    vals[np.abs(vals) <= np.expand_dims(tol, -1)] = 0.0
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)
