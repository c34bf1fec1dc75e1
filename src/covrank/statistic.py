"""Conditional singular-value test statistic, evaluated in the log domain.

The statistic for step k compares the mass of

    f(u) = exp(-u^2 / (2 s2)) * prod_{j != k} |u^2 - lam_j^2|

on N = [lam_k, lam_{k-1}] with the mass on the wider interval
[lam_{k+1}, lam_{k-1}] = M + N, where M = [lam_{k+1}, lam_k] and lam_0 is
taken as +infinity. Both masses share the numerator integral:
statistic = exp(log N - logaddexp(log N, log M)). Values near 0 indicate
that lam_k is large relative to the trailing spectrum.

Everything is computed in the log domain: f is a product of up to p - 1
polynomial gap factors times a Gaussian whose scale s2 can be many orders of
magnitude below lam_1^2, so the linear-domain product overflows or
underflows double precision long before p gets interesting. Integrals are
therefore accumulated as log-magnitudes (floats, with ``-inf`` encoding an
exact zero) via max-shifted exponential sums.

Block evaluation. :func:`plug_in_scale`, :func:`log_integral` and
:func:`csv_statistic` take either one spectrum (a 1-d vector) or a stack of
spectra (a 2-d array, one spectrum per row); a single spectrum is a block of
one on the same engine. The adaptive quadrature refines all integrals of a
block in one loop: each round splits the worst panel of every integral that
has not converged yet, evaluates the Gauss-Legendre nodes of all new panels
in one array expression, and takes their coarse and fine sums in one
reduction. The per-call cost of numpy is thus paid once per round for the
whole block rather than once per panel.

Each integral keeps its own panels, its own split budget and its own
stopping rule, and every reduction over one integral's values runs over a
width and in an order that the integral's own state fixes (panel totals are
left-to-right accumulations, which trailing padding leaves unchanged). A
row's results are therefore bit-for-bit the same whether it is evaluated
alone or in a block of any size, beside any other rows.

Exact zeros. An eigenvalue clamped to exactly 0 contributes the gap factor
|u - 0| (u + 0) = u^2, so the z zeros among the others enter as one power
term z log(u^2) per node, added after the sum over the other gap factors.
Every block takes that term, and a row without zeros adds +0.0. A block does
not evaluate the trailing columns that are 0 in every row, and a zero it
still holds for one row adds log 1 = 0 there. Rows with at most one zero get
the same bits as a sum of every gap factor; rows with two or more move by
rounding only, since one product z log(u^2) replaces z additions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, _integer, _real, _real_array

__all__ = [
    "QuadratureSettings",
    "StepStatistics",
    "plug_in_scale",
    "log_integral",
    "csv_statistic",
]

_NEG_INF = float("-inf")
_TINY = np.finfo(np.float64).tiny  # smallest normal float64
_SQRT_TINY = math.sqrt(_TINY)  # a gap factor between two numbers below this is subnormal or 0
_LOWEST = np.finfo(np.float64).min  # most negative finite float64
_MAX_TOP = math.sqrt(np.finfo(np.float64).max / 2.0)  # 2 u^2 overflows from here on

# Gauss-Legendre rules used as the (coarse, fine) pair of the adaptive
# scheme. Nodes are interior, so panel endpoints (where the integrand may
# vanish and its log blow down to -inf) are never evaluated.
_COARSE_X, _COARSE_W = np.polynomial.legendre.leggauss(10)
_FINE_X, _FINE_W = np.polynomial.legendre.leggauss(20)
_NODES = np.concatenate([_COARSE_X, _FINE_X])
_LOG_WEIGHTS = np.log(np.concatenate([_COARSE_W, _FINE_W]))
_RULE_STARTS = [0, _COARSE_X.size]  # np.add.reduceat offsets of the coarse and fine sums

# Gap factors evaluated by one array expression at most (256 KB per float64
# temporary); more panels are evaluated in chunks of rows. Larger caps gain
# little speed and raise the peak resident set.
_MAX_FACTORS = 1 << 15


@dataclass(frozen=True)
class QuadratureSettings:
    """Tuning knobs for the adaptive log-domain quadrature.

    rel_tol:
        Target relative error of each integral (on the linear scale).
    max_subdivisions:
        Budget of panel splits per integral before giving up.
    tail_sigmas:
        Where to truncate an infinite upper limit, in units of the Gaussian
        scale sqrt(s2) beyond the largest eigenvalue. At the default of 12
        the discarded tail is exp(-72)-scale relative to the peak.
    """

    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_sigmas: float = 12.0

    def __post_init__(self):
        for name in ("rel_tol", "tail_sigmas"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValidationError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        object.__setattr__(self, "max_subdivisions",
                           _integer("max_subdivisions", self.max_subdivisions, 8))
        if not (6.0 <= self.tail_sigmas < math.inf):
            raise ValidationError(f"tail_sigmas must be finite and >= 6, got {self.tail_sigmas}")


class StepStatistics(NamedTuple):
    """Step-k results of :func:`csv_statistic` on a stack of spectra, one entry per row.

    ``degenerate`` is True where one of the two tie rules fixed the
    statistic without quadrature.
    """

    statistic: np.ndarray
    scale2: np.ndarray
    degenerate: np.ndarray


def _check_eigenvalues(eigenvalues) -> np.ndarray:
    """Validated spectra: a 1-d vector, or a 2-d stack with one spectrum per row."""
    lam = _real_array("eigenvalues", eigenvalues)
    if lam.ndim not in (1, 2) or lam.shape[-1] < 2 or lam.shape[0] < 1:
        raise ValidationError(
            "eigenvalues must be a vector of length >= 2 or a non-empty 2-d stack of such rows"
        )
    if not np.all(np.isfinite(lam)):
        raise ValidationError("eigenvalues contain non-finite entries")
    if np.any(lam < 0.0):
        raise ValidationError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam, axis=-1) > 0.0):
        raise ValidationError("eigenvalues must be sorted in descending order")
    return lam


def _check_settings(settings) -> None:
    if not isinstance(settings, QuadratureSettings):
        raise ValidationError(f"settings must be a QuadratureSettings, got {settings!r}")


def _check_step(k: int, p: int) -> int:
    k = _integer("k", k)
    if not 1 <= k <= p - 1:
        raise ValidationError(f"step k must satisfy 1 <= k <= p-1 = {p - 1}, got {k}")
    return k


def _range_error(s2: np.ndarray, spectra: np.ndarray, row: int) -> NumericalError:
    return NumericalError(f"float64 under- or overflow at scale2={s2[row]:g}, "
                          f"lam_1={spectra[row, 0]:g}; rescale the data", index=row)


def _per_row(value, rows: int, name: str) -> np.ndarray:
    """A scalar or one value per spectrum, as a length-``rows`` float array."""
    value = _real_array(name, value)
    try:
        return np.broadcast_to(value, (rows,))
    except ValueError:
        raise ValidationError(f"{name} must be a real scalar or one value per spectrum") from None


def _check_scale(scale2, rows: int) -> np.ndarray:
    s2 = _per_row(scale2, rows, "scale2")
    if not np.all((s2 > 0.0) & np.isfinite(s2)):
        raise ValidationError(f"scale2 must be a positive finite real, got {scale2}")
    return s2


def plug_in_scale(eigenvalues, k: int) -> float | np.ndarray:
    """Trailing-eigenvalue noise-scale estimator ``sum_{j>=k} lam_j^2 / (p (p-k+1))``.

    Exactly 0 for an exactly low-rank trailing spectrum; 0, subnormal or
    ``inf`` where the squares under- or overflow float64, without a warning.
    :func:`csv_statistic` settles the first case by its tie rule and raises
    a NumericalError on the others. The step k runs over 1..p-1, as in
    every other step-taking function. Returns a float for one spectrum and
    an array with one scale per row for a 2-d stack.
    """
    lam = _check_eigenvalues(eigenvalues)
    p = lam.shape[-1]
    k = _check_step(k, p)
    tail = lam[..., k - 1 :]
    with np.errstate(over="ignore", under="ignore"):
        s2 = (tail * tail).sum(axis=-1) / (p * (p - k + 1))
    return float(s2) if lam.ndim == 1 else s2


def _log_f(u: np.ndarray, lam_others: np.ndarray, inv_two_s2, zeros=0,
           work: np.ndarray | None = None) -> np.ndarray:
    """log f at abscissas ``u``; -inf where a gap factor is zero.

    ``lam_others`` holds eigenvalues other than lam_k along its first axis,
    each ``lam_others[j]`` broadcasting against ``u``; so do ``inv_two_s2``
    and ``zeros``. Each gap factor is formed as |u - lam_j| * (u + lam_j):
    the difference is exact for u near lam_j, so near-tied eigenvalues keep
    full relative precision, which u^2 - lam_j^2 loses to cancellation. With
    the gap axis first, every elementwise pass and the sum over j run along
    the long contiguous axis of ``u``. The two factors are formed in
    ``work`` when it holds twice their number of floats.

    ``zeros`` counts the exact zeros among the other eigenvalues. Their gap
    factors are all u^2, so they enter once, as ``zeros * log(u^2)`` added
    after the sum over j, and a zero that ``lam_others`` still holds adds
    log 1 = 0 there in place of its own factor. A row without zeros adds
    +0.0, which leaves its bits as they are.
    """
    shape = np.broadcast_shapes(lam_others.shape, u.shape)
    size = math.prod(shape)
    if work is None or work.size < 2 * size:
        work = np.empty(2 * size)
    gaps = np.subtract(u, lam_others, out=work[:size].reshape(shape))
    np.abs(gaps, out=gaps)
    gaps *= np.add(u, lam_others, out=work[size:2 * size].reshape(shape))
    # A zero gap factor gives -inf, and so does a Gaussian term that overflows
    # (an explicit scale2 near the smallest normal float).
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.log(gaps, out=gaps)
        held = lam_others == 0.0
        if held.any():
            np.copyto(gaps, 0.0, where=held)
        uu = u * u
        power = zeros * np.log(uu)
        # Rows without zeros add +0.0: 0 * log(u^2) is NaN where u^2 underflows.
        np.copyto(power, 0.0, where=zeros == 0.0)
        return gaps.sum(axis=0) + power - uu * inv_two_s2


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, accumulated left to right.

    The sequential order makes each row's value independent of the array
    width: trailing ``-inf`` padding adds exact zeros.
    """
    m = x.max(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.add.accumulate(np.exp(x - m[..., None]), axis=-1)[..., -1]
        return np.where(m == _NEG_INF, _NEG_INF, m + np.log(s))


def _panels(a: np.ndarray, b: np.ndarray, lam_others: np.ndarray, zeros: np.ndarray,
            inv_two_s2: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fine-rule log value and log error estimate of every panel [a, b].

    ``a`` and ``b`` are (rows, panels), ``lam_others`` is (rows, gap
    factors), and ``zeros`` (the exact zeros of each row, see
    :func:`_integrate`) and ``inv_two_s2`` are (rows,). The error estimate is
    log |fine - coarse|. Rows are evaluated in chunks of at most
    ``_MAX_FACTORS`` factors, with ``work`` as the scratch space of
    :func:`_log_f`.
    """
    # The power term's u^2 and z log(u^2) count as two more factors.
    factors = lam_others.shape[1] + 2
    chunk = max(1, _MAX_FACTORS // (a.shape[1] * _NODES.size * factors))
    if a.shape[0] > chunk:
        parts = [_panels(a[i:i + chunk], b[i:i + chunk], lam_others[i:i + chunk],
                         zeros[i:i + chunk], inv_two_s2[i:i + chunk], work)
                 for i in range(0, a.shape[0], chunk)]
        return tuple(np.concatenate(x) for x in zip(*parts))
    half = 0.5 * (b - a)
    u = (0.5 * (a + b))[..., None] + half[..., None] * _NODES
    g = _log_f(u, lam_others.T[:, :, None, None], inv_two_s2[:, None, None],
               zeros[:, None, None], work) + _LOG_WEIGHTS
    m = g.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        sums = np.add.reduceat(np.exp(g - m), _RULE_STARTS, axis=-1)
        logs = np.where(m == _NEG_INF, _NEG_INF, m + np.log(sums)) + np.log(half)[..., None]
        coarse, fine = logs[..., 0], logs[..., 1]
        hi, lo = np.maximum(fine, coarse), np.minimum(fine, coarse)
        err = np.where(hi == lo, _NEG_INF, hi + np.log1p(-np.exp(lo - hi)))
    return fine, err


def _integrate(a: np.ndarray, b: np.ndarray, count: np.ndarray, lam_others: np.ndarray,
               inv_two_s2: np.ndarray, settings: QuadratureSettings
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive quadrature of a block of integrals, one per row.

    Row i starts from the panels ``[a[i, j], b[i, j]]`` for ``j < count[i]``
    (``a`` and ``b`` may be overlapping views; they are copied before any
    write). Every round computes each open integral's total and error,
    closes those within ``rel_tol``, out of split budget or with no panel
    left to split, and splits the worst panel of each of the rest at its
    midpoint. Returns the log totals, the log error estimates and a flag for
    integrals that closed without reaching ``rel_tol``.
    """
    n, cap = a.shape
    a, b, count = a.copy(), b.copy(), count.copy()
    # Spectra are descending and nonnegative, so a row's exact zeros are
    # trailing. The columns that are 0 in every row (none in an empty block)
    # are left to the power term of _log_f.
    zeros = np.count_nonzero(lam_others == 0.0, axis=1)
    lam_others = lam_others[:, :lam_others.shape[1] - zeros.min(initial=lam_others.shape[1])]
    zeros = zeros.astype(np.float64)
    # Scratch for the gap factors, shared by every round: allocated afresh per
    # round, the allocator handed it back to the OS and page-faulted it in
    # again each time, which made p = 10 blocks about a third slower.
    work = np.empty(2 * _MAX_FACTORS)
    val, err = (np.array(x) for x in _panels(a, b, lam_others, zeros, inv_two_s2, work))
    unused = np.arange(cap) >= count[:, None]
    val[unused] = _NEG_INF
    err[unused] = _NEG_INF
    splits = np.zeros(n, dtype=np.int64)
    log_total = np.full(n, _NEG_INF)
    log_err = np.full(n, _NEG_INF)
    failed = np.zeros(n, dtype=bool)
    log_rel_tol = math.log(settings.rel_tol)

    live = np.arange(n)
    while live.size:
        total, error = _logsumexp(val[live]), _logsumexp(err[live])
        log_total[live], log_err[live] = total, error
        # Closed within rel_tol; a NaN total stays open. The test takes the
        # difference, since once |total| passes about 1e17 adding log(rel_tol)
        # to it changes nothing and any error would pass. The floor on the
        # total closes an exact zero (both -inf) instead of making a NaN.
        still_open = ~(error - np.maximum(total, _LOWEST) <= log_rel_tol)
        # An open row with no error estimate left has every panel at
        # floating-point resolution (its total is NaN): nothing can close it.
        spent = still_open & ((splits[live] >= settings.max_subdivisions) | (error == _NEG_INF))
        failed[live[spent]] = True
        live = live[still_open & ~spent]
        if not live.size:
            break

        worst = np.argmax(err[live], axis=1)
        lo, hi = a[live, worst], b[live, worst]
        mid = 0.5 * (lo + hi)
        splittable = (lo < mid) & (mid < hi)
        # Width at floating-point resolution: nothing left to refine.
        err[live[~splittable], worst[~splittable]] = _NEG_INF
        split, worst, lo, mid, hi = (x[splittable] for x in (live, worst, lo, mid, hi))
        if not split.size:
            continue
        if count[split].max() == cap:
            a, b, val, err = (np.concatenate([x, np.full_like(x, fill)], axis=1)
                              for x, fill in ((a, 0.0), (b, 0.0), (val, _NEG_INF), (err, _NEG_INF)))
            cap *= 2
        new_val, new_err = _panels(np.stack([lo, mid], axis=1), np.stack([mid, hi], axis=1),
                                   lam_others[split], zeros[split], inv_two_s2[split], work)
        # The left half replaces the split panel; the right half is appended.
        end = count[split]
        b[split, worst] = mid
        val[split, worst], err[split, worst] = new_val[:, 0], new_err[:, 0]
        a[split, end], b[split, end] = mid, hi
        val[split, end], err[split, end] = new_val[:, 1], new_err[:, 1]
        count[split] += 1
        splits[split] += 1
    return log_total, log_err, failed


def log_integral(lo, hi, eigenvalues, k: int, scale2,
                 settings: QuadratureSettings = QuadratureSettings()) -> float | np.ndarray:
    """Log of the integral of the step-k integrand over [lo, hi].

    ``hi`` may be ``inf``; the upper limit is then truncated at
    ``max(lo, lam_max) + tail_sigmas * sqrt(s2)``, beyond which the Gaussian
    factor makes the remaining tail negligible. Eigenvalues lying strictly
    inside the interval become subdivision breakpoints, since the integrand
    has |.| kinks and zeros there. Panels are then refined adaptively,
    splitting whichever panel carries the largest error estimate, until the
    total estimated error drops below ``rel_tol`` times the integral.

    Returns the log-magnitude as a float; ``-inf`` encodes a zero integral:
    that of an empty interval (a == b once an infinite ``hi`` is truncated),
    or of one a few ulps wide whose nodes all round onto eigenvalues at its
    panels' edges. With a 2-d stack of spectra, ``lo``, ``hi`` and ``scale2``
    are scalars or one value per row, and the result is an array with one
    log-magnitude per row; each row is integrated exactly as it would be
    alone.

    Raises
    ------
    NumericalError
        Split budget exhausted, or nothing left to split, before reaching
        rel_tol. The error carries
        ``best_estimate`` (the log value) and ``achieved_rel_tol`` of the
        lowest failing row, and that row's position in ``index``. A row
        outside float64's range is a float64 under- or overflow error
        instead, with no estimate: ``scale2`` below the smallest normal
        float, ``hi`` or ``max(lo, lam_max) + tail_sigmas * sqrt(s2)`` at
        or above sqrt(max / 2) where gap factors overflow, a non-empty
        interval whose ``hi`` and smallest eigenvalue both lie below
        sqrt(tiny) (about 1.49e-154), where that eigenvalue's gap factor is
        subnormal or 0 at every node, or an integral that comes out exactly
        zero while the integrand is 0 at the middle of a panel, off its
        edges. All rows are checked in the same pass, and ``index`` names
        the lowest failing row of either kind.
    """
    lam = _check_eigenvalues(eigenvalues)
    spectra = np.atleast_2d(lam)
    rows, p = spectra.shape
    k = _check_step(k, p)
    _check_settings(settings)
    s2 = _check_scale(scale2, rows)
    lo, hi = _per_row(lo, rows, "lo"), _per_row(hi, rows, "hi")
    if not np.all((0.0 <= lo) & (lo <= hi) & (lo < math.inf)):
        raise ValidationError(f"integration limits must satisfy 0 <= lo <= hi and lo < inf, "
                              f"got [{lo}, {hi}]")
    # Rows from the lowest one outside float64's range on are not integrated,
    # so the error names the lowest failing row. Outside the range are a
    # Gaussian scale below the smallest normal float, and a truncated upper
    # limit top + tail_sigmas * sqrt(s2) or a finite hi at or above _MAX_TOP,
    # where gap factors (at most 2 u^2) would overflow. An interval below
    # _SQRT_TINY is one too when the smallest eigenvalue is below it as well.
    top = np.maximum(lo, spectra[:, 0])
    bad = np.flatnonzero(~((s2 >= _TINY) & (np.sqrt(s2) < (_MAX_TOP - top) / settings.tail_sigmas))
                         | ((hi >= _MAX_TOP) & (hi < math.inf))
                         | ((lo < hi) & (hi < _SQRT_TINY) & (spectra[:, -1] < _SQRT_TINY)))
    stop = int(bad[0]) if bad.size else rows
    a, b, scale = lo[:stop], hi[:stop], s2[:stop]
    b = np.where(np.isinf(b), top[:stop] + settings.tail_sigmas * np.sqrt(scale), b)

    # Panels run from a through the eigenvalues strictly inside (a, b) to b.
    # Zero-width panels (tied eigenvalues, or a == b) integrate to 0.
    others = np.delete(spectra[:stop], k - 1, axis=1)
    inside = (others > a[:, None]) & (others < b[:, None])
    count = inside.sum(axis=1) + 1
    width = int(count.max(initial=1))
    cuts = np.sort(np.where(inside, others, b[:, None]), axis=1)[:, :width - 1]
    edges = np.concatenate([a[:, None], cuts, b[:, None]], axis=1)

    log_total, log_err, failed = _integrate(edges[:, :-1], edges[:, 1:], count, others,
                                            0.5 / scale, settings)

    # The integrand is positive off the eigenvalues, so a zero integral is
    # float64 under- or overflow where the integrand is 0 at the middle of a
    # panel, off its edges. Such a row joins the budget failures, and the
    # lowest failing row of either kind is raised. Any other zero stands: a
    # panel a few ulps wide may be split until every node rounds onto an
    # eigenvalue at an edge.
    lost = np.flatnonzero(log_total == _NEG_INF)
    if lost.size:
        lower, upper = edges[lost, :-1], edges[lost, 1:]
        mid = 0.5 * (lower + upper)
        log_f = _log_f(mid, others[lost].T[:, :, None], 0.5 / scale[lost, None],
                       np.count_nonzero(others[lost] == 0.0, axis=1)[:, None])
        lost = lost[np.any((lower < mid) & (mid < upper) & (log_f == _NEG_INF), axis=1)]
    i = int(np.concatenate([np.flatnonzero(failed), lost, [stop]]).min())
    if i < stop and failed[i]:
        with np.errstate(over="ignore"):
            achieved = float(np.exp(log_err[i] - log_total[i]))
        raise NumericalError(
            f"quadrature on [{a[i]}, {b[i]}] did not converge within {settings.max_subdivisions} "
            f"subdivisions: relative error {achieved:.3e} (target {settings.rel_tol:.3e})",
            best_estimate=float(log_total[i]),
            achieved_rel_tol=achieved,
            index=i,
        )
    if i < rows:
        raise _range_error(s2, spectra, i)
    return float(log_total[0]) if lam.ndim == 1 else log_total


def csv_statistic(eigenvalues, k: int, scale2=None,
                  settings: QuadratureSettings = QuadratureSettings()) -> float | StepStatistics:
    """Step-k conditional singular-value statistic, a value in [0, 1].

    Ratio of the integrand mass on [lam_k, lam_{k-1}] to the mass on
    [lam_{k+1}, lam_{k-1}], with lam_0 = +inf. Small values are evidence
    that lam_k is too large to be part of the trailing noise spectrum.

    Parameters
    ----------
    eigenvalues : array_like
        Descending, nonnegative spectrum of length p >= 2, or a 2-d stack
        of such spectra, one per row.
    k : int
        Step index, 1 <= k <= p - 1.
    scale2 : float or array_like, optional
        Explicit Gaussian scale (one per row for a stack). Default (None)
        uses the plug-in estimator :func:`plug_in_scale`. An explicit value
        must be > 0.
    settings : QuadratureSettings, optional

    Returns
    -------
    float for a single spectrum; :class:`StepStatistics` for a stack, with
    the statistic, the scale used and the degenerate flag of every row.

    Degenerate rules
    ----------------
    - ``lam_k == lam_{k+1}``: numerator and denominator intervals coincide;
      returns exactly 1.0 (accept). This covers an exactly low-rank trailing
      spectrum, whose plug-in scale is 0.
    - ``lam_{k-1} == lam_k`` with k >= 2: empty numerator interval; returns
      exactly 0.0.

    Raises
    ------
    NumericalError
        A quadrature ran out of split budget, or a row without a tie met
        float64 under- or overflow: a plug-in scale of 0, subnormal or inf,
        any range error of :func:`log_integral`, or an N + M mass that comes
        out exactly zero (lam_k one float from each neighbour). Every row's N
        and M are integrated in one :func:`log_integral` call. ``index`` is
        the lowest failing row, except that a zero N + M mass is looked for
        only when that call raises nothing.
    """
    lam = _check_eigenvalues(eigenvalues)
    spectra = np.atleast_2d(lam)
    rows, p = spectra.shape
    k = _check_step(k, p)
    _check_settings(settings)
    s2 = plug_in_scale(spectra, k) if scale2 is None else _check_scale(scale2, rows)

    upper = spectra[:, k - 2] if k >= 2 else np.full(rows, math.inf)
    lam_k, lam_next = spectra[:, k - 1], spectra[:, k]
    accept = lam_k == lam_next
    reject = ~accept & (upper == lam_k)
    degenerate = accept | reject
    stat = np.where(reject, 0.0, 1.0)

    # Off the ties, a plug-in scale of 0 or inf is float64 under- or overflow,
    # which log_integral would refuse as an invalid scale2. Rows from the
    # lowest such one on are not integrated, so the error names the lowest
    # failing row.
    bad = np.flatnonzero(~degenerate & ((s2 == 0.0) | (s2 == math.inf)))
    stop = int(bad[0]) if bad.size else rows
    q = np.flatnonzero(~degenerate[:stop])
    if q.size:
        # N and M of one row sit next to each other, so the lowest failing
        # integral belongs to the lowest failing row.
        try:
            logs = log_integral(np.column_stack([lam_k[q], lam_next[q]]).ravel(),
                                np.column_stack([upper[q], lam_k[q]]).ravel(),
                                np.repeat(spectra[q], 2, axis=0), k, np.repeat(s2[q], 2),
                                settings)
        except NumericalError as exc:
            raise exc.at(int(q[exc.index // 2])) from exc
        log_n = logs[0::2]
        log_d = np.logaddexp(log_n, logs[1::2])
        with np.errstate(invalid="ignore"):
            stat[q] = np.exp(log_n - log_d)
        # N and M may both be zero at float resolution (lam_k one float from
        # each neighbour): 0 / 0 is no statistic.
        empty = q[log_d == _NEG_INF]
        stop = int(empty[0]) if empty.size else stop
    if stop < rows:
        raise _range_error(s2, spectra, stop)

    if lam.ndim == 1:
        return float(stat[0])
    return StepStatistics(statistic=stat, scale2=s2, degenerate=degenerate)
