"""Simulation data generation: low-rank factor designs with heavy tails.

Datasets are built as X_i = A z_i with A a p x k loading matrix whose
columns are orthogonal with squared norms equal to the configured factor
scales, and z_i i.i.d. multivariate-t factors rescaled to unit covariance.
The population covariance is then A A^T, with nonzero eigenvalues exactly
equal to the factor scales. A "local null" mode adds an independent
Gaussian disturbance in the orthogonal complement of col(A) sized so that
every trailing population eigenvalue equals tau / sqrt(n).

All randomness flows from a single 64-bit master seed through documented
SeedSequence paths, so any replication can be regenerated independently of
scheduling: the loading matrix uses (seed, 1), the factors of replication r
use (seed, 2, r), and the disturbance uses (seed, 3, r).

A Monte Carlo loop that generates many datasets of one shape passes
``generate_dataset`` a workspace (``out``) of two n x p buffers and gets the
dataset back as a view of the first, so a replication allocates no n x p
array. A dataset is then valid only until the next call with the same
workspace. The realized draws and the bytes of the dataset are the same with
and without a workspace.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, ValidationError, _check_alpha, _integer, _real, _real_array,
                     _warn_n_not_above_p)

__all__ = ["SimulationConfig", "make_loadings", "sample_factors_t", "generate_dataset"]

_STREAM_LOADINGS = 1
_STREAM_FACTORS = 2
_STREAM_NOISE = 3

_MAX_SEED = 2**64 - 1


def _check_seed(seed) -> int:
    """The master seed as an int; ValidationError unless it is a 64-bit unsigned integer."""
    seed = _integer("seed", seed)
    if not 0 <= seed <= _MAX_SEED:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _check_t_df(t_df) -> float:
    """The factors' degrees of freedom as a float; ValidationError unless it is
    a real number above 2, where the factor covariance is finite."""
    t_df = _real("t_df", t_df)
    if not (math.isfinite(t_df) and t_df > 2.0):
        raise ValidationError(f"t_df must exceed 2 (finite factor covariance), got {t_df}")
    return t_df


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``: a SeedSequence, or else a master seed
    (see ``_check_seed``)."""
    return np.random.default_rng(
        seed if isinstance(seed, np.random.SeedSequence) else _check_seed(seed))


def _seed_seq(master: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master), *map(int, path)))


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one Monte Carlo setting.

    factor_scales defaults to (k, k-1, ..., 1) * gap_c0, which satisfies the
    strict-decrease and minimum-gap requirements by construction. true_rank
    may be 0, in which case the dataset is pure local-null disturbance (or
    identically zero when local_null_tau is 0).
    """

    p: int
    true_rank: int
    n: int
    reps: int
    alpha: float = 0.05
    t_df: float = 5.0
    gap_c0: float = 1.0
    factor_scales: tuple[float, ...] | None = None
    local_null_tau: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("p", 2), ("true_rank", 0), ("n", 2), ("reps", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        for name, check in (("seed", _check_seed), ("alpha", _check_alpha), ("t_df", _check_t_df)):
            object.__setattr__(self, name, check(getattr(self, name)))
        for name in ("gap_c0", "local_null_tau"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.true_rank > self.p:
            raise ValidationError(f"true_rank must be in [0, p={self.p}], got {self.true_rank}")
        if self.t_df <= 4.0:
            warnings.warn(
                f"t_df={self.t_df} <= 4: factor fourth moments are infinite, outside "
                "the regularity conditions; proceeding anyway",
                stacklevel=2,
            )
        _warn_n_not_above_p(self.n, self.p)
        if not (math.isfinite(self.gap_c0) and self.gap_c0 > 0.0):
            raise ValidationError(f"gap_c0 must be positive, got {self.gap_c0}")

        if self.factor_scales is None:
            scales = tuple(
                float((self.true_rank - i) * self.gap_c0) for i in range(self.true_rank)
            )
        elif isinstance(self.factor_scales, str) or not np.iterable(self.factor_scales):
            raise ValidationError(f"factor_scales must be a sequence of real numbers, "
                                  f"got {self.factor_scales!r}")
        else:
            scales = tuple(_real("each factor_scales entry", s) for s in self.factor_scales)
        object.__setattr__(self, "factor_scales", scales)
        if len(self.factor_scales) != self.true_rank:
            raise ValidationError(
                f"factor_scales must have length true_rank={self.true_rank}, "
                f"got {len(self.factor_scales)}"
            )
        for s in self.factor_scales:
            if not (math.isfinite(s) and s > 0.0):
                raise ValidationError(f"factor scales must be positive, got {s}")
        for a, b in zip(self.factor_scales, self.factor_scales[1:]):
            if not a - b >= self.gap_c0:
                raise ValidationError(
                    f"consecutive factor scales must differ by at least gap_c0={self.gap_c0}, "
                    f"got gap {a - b}"
                )

        if not (math.isfinite(self.local_null_tau) and self.local_null_tau >= 0.0):
            raise ValidationError(f"local_null_tau must be >= 0, got {self.local_null_tau}")
        if self.local_null_tau > 0.0:
            if self.true_rank == self.p:
                raise ValidationError(
                    "local_null_tau > 0 requires true_rank < p (no trailing directions left)"
                )
            trailing = self.local_null_tau / math.sqrt(self.n)
            if self.true_rank >= 1 and trailing >= self.factor_scales[-1]:
                raise ValidationError(
                    f"local-null eigenvalue tau/sqrt(n)={trailing} must stay below the "
                    f"smallest leading eigenvalue {self.factor_scales[-1]}"
                )


def _check_config(cfg) -> None:
    if not isinstance(cfg, SimulationConfig):
        raise ValidationError(f"cfg must be a SimulationConfig, got {cfg!r}")


def make_loadings(p: int, k: int, factor_scales, seed) -> np.ndarray:
    """Random p x k loading matrix with orthogonal columns of given squared norms.

    Draws a Gaussian matrix, orthonormalizes it by QR (signs fixed so the
    result is unique), and scales column j by sqrt(factor_scales[j]). The
    Gram matrix A^T A is therefore diag(factor_scales) and A A^T has the
    scales as its nonzero eigenvalues. Requires p >= 1 and 0 <= k <= p;
    k = 0 gives a p x 0 matrix. Deterministic given the seed, a SeedSequence
    or a 64-bit unsigned integer. A rank-deficient draw, an event of
    probability zero, raises NumericalError.
    """
    p, k = _integer("p", p, 1), _integer("k", k, 0)
    if k > p:
        raise ValidationError(f"need k <= p, got k={k}, p={p}")
    scales = _real_array("factor_scales", factor_scales)
    if scales.shape != (k,):
        raise ValidationError(f"factor_scales must have length k={k}")
    rng = _rng(seed)
    # Ties are allowed here (isotropic designs); the strict eigen-gap
    # requirement is enforced at the SimulationConfig level where it matters.
    if np.any(scales <= 0.0) or np.any(np.diff(scales) > 0.0):
        raise ValidationError("factor_scales must be positive and nonincreasing")

    q, r = np.linalg.qr(rng.standard_normal((p, k)))
    d = np.diagonal(r)
    if not np.min(np.abs(d), initial=math.inf) > 1e-10 * math.sqrt(p):
        raise NumericalError(f"drew a rank-deficient {p}x{k} Gaussian frame")
    q = q * np.sign(d)[None, :]
    return q * np.sqrt(scales)[None, :]


def sample_factors_t(k: int, n: int, t_df: float, seed) -> np.ndarray:
    """n i.i.d. k-variate t factors, rescaled so their covariance is exactly I.

    Each row is G / sqrt(W / df) with G standard Gaussian and W an
    independent chi-square(df) shared across the row's components, then
    multiplied by sqrt((df - 2) / df) to undo the t-distribution's variance
    inflation. Requires k >= 1, n >= 1 and t_df > 2, the same t_df rule as
    SimulationConfig's. Deterministic given the seed, a SeedSequence or a
    64-bit unsigned integer.
    """
    t_df = _check_t_df(t_df)
    k, n = _integer("k", k, 1), _integer("n", n, 1)
    rng = _rng(seed)
    g = rng.standard_normal((n, k))
    w = rng.chisquare(t_df, size=n)
    np.divide(t_df - 2.0, w, out=w)
    np.sqrt(w, out=w)
    g *= w[:, None]
    return g


@functools.lru_cache(maxsize=8)
def _design(cfg: SimulationConfig):
    """Loading matrix and, in local-null mode, the basis of its orthogonal complement.

    Both depend on the config and not on the replication, so they are built
    once per config per process instead of once per replication. The cached
    arrays are shared by every caller and therefore read-only.
    """
    k = cfg.true_rank
    a = make_loadings(cfg.p, k, cfg.factor_scales, _seed_seq(cfg.seed, _STREAM_LOADINGS))
    a.flags.writeable = False
    basis = None
    if cfg.local_null_tau > 0.0:
        basis = np.linalg.qr(a, mode="complete")[0][:, k:]
        basis.flags.writeable = False
    return a, basis


def generate_dataset(cfg: SimulationConfig, replication: int = 0, *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """One n x p dataset for the given configuration and replication index.

    The loading matrix is drawn once per master seed (it plays the role of
    a fixed design across replications); factors and the local-null
    disturbance get fresh streams per replication. With local_null_tau = 0
    the data lie exactly in the k-dimensional column space of A.

    ``out`` is an optional workspace: a C-contiguous float64 array of shape
    (2, n, p), or (1, n, p) when local_null_tau = 0. The dataset is written
    into ``out[0]`` and that view is returned; ``out[1]`` is scratch for the
    projected disturbance. Every entry of the workspace is overwritten, so
    one workspace serves any number of calls, but each call overwrites the
    dataset the previous one returned. Without ``out`` the returned array
    owns its memory and no scratch outlives the call. Both ways give the same
    bytes.
    """
    _check_config(cfg)
    replication = _integer("replication", replication, 0)
    k, p, n = cfg.true_rank, cfg.p, cfg.n
    a, basis = _design(cfg)
    halves = 1 if basis is None else 2
    if out is None:
        x = np.empty((n, p))
        scratch = None if basis is None else np.empty((n, p))
    else:
        if (not isinstance(out, np.ndarray) or out.dtype != np.float64
                or out.ndim != 3 or out.shape[0] < halves or out.shape[1:] != (n, p)
                or not out.flags.c_contiguous or not out.flags.writeable):
            raise ValidationError(
                f"out must be a writeable C-contiguous float64 array of shape "
                f"({halves}, {n}, {p}), got {getattr(out, 'shape', type(out).__name__)}"
            )
        x, scratch = out[0], (None if basis is None else out[1])

    if basis is not None:
        # The disturbance is drawn into x's memory; the projection moves it to
        # the scratch half before the signal overwrites x.
        e = x.reshape(-1)[: n * (p - k)].reshape(n, p - k)
        rng = np.random.default_rng(_seed_seq(cfg.seed, _STREAM_NOISE, replication))
        rng.standard_normal(out=e)
        np.matmul(e, basis.T, out=scratch)
        scratch *= math.sqrt(cfg.local_null_tau / math.sqrt(n))

    # At rank 0 the factors are an empty n x 0 array and the signal is exactly 0.
    z = (sample_factors_t(k, n, cfg.t_df, _seed_seq(cfg.seed, _STREAM_FACTORS, replication))
         if k > 0 else np.empty((n, 0)))
    np.matmul(z, a.T, out=x)
    if scratch is not None:
        x += scratch
    return x
