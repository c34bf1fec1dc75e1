"""Monte Carlo harness: rejection tables and null-uniformity diagnostics.

``run_rejection_table`` replays the sequential test over many independent
replications of a simulation configuration and tallies, per step, how many
replications reached the step and how many rejected its null. Counts chain:
a replication reaches step k+1 exactly when it rejected at step k.

``collect_null_statistics`` instead evaluates the statistic at one fixed
step on every replication, with no sequential gating, to probe the claim
that the statistic is asymptotically Unif(0,1) under the null. That claim
is checked with the Kolmogorov-Smirnov distance to the uniform CDF.

Replications are mutually independent with per-replication seed streams, so
they may be executed by any number of workers in any order; aggregation is
a commutative count sum and the results are identical regardless of
scheduling. Each job takes a contiguous block of replications, reduces each
dataset to its covariance before generating the next, decomposes the
covariances in stacks, and evaluates the block's spectra together; a
replication's statistics do not depend on the block it lands in. A job
builds all of its datasets in one workspace, so no replication allocates an
n x p array.

Pool workers run numpy's BLAS single-threaded (when it is OpenBLAS), so N
workers keep N cores busy. The parent sets its own BLAS thread count to one
while the pool is open, so each forked worker inherits that count and never
starts a BLAS thread; the in-process path leaves the BLAS threads as it finds
them. The warnings a worker raises are returned with its block's result or
error and raised again in the parent, in block order, so any number of
workers shows the same warnings.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dgp import SimulationConfig, _check_config, _design, generate_dataset
from .errors import NumericalError, ValidationError, _integer, _real, _real_array
from .sequential import run_sequence
from .spectrum import sample_covariance, symmetric_eigen
from .statistic import QuadratureSettings, _check_settings, _check_step, csv_statistic

__all__ = [
    "RejectionTable",
    "NullSample",
    "run_rejection_table",
    "collect_null_statistics",
    "ks_distance",
    "ks_pvalue_approx",
]


@dataclass(frozen=True)
class RejectionTable:
    """Per-step reach and rejection counts over all replications.

    Index i of the count tuples corresponds to step k = i + 1 (steps run
    1..p-1). ``rate_percent(k)`` is None for steps never reached.
    """

    config: SimulationConfig
    reached: tuple[int, ...]
    rejected: tuple[int, ...]

    def rate_percent(self, k: int) -> float | None:
        k = _check_step(k, self.n_steps + 1)
        if self.reached[k - 1] == 0:
            return None
        return 100.0 * self.rejected[k - 1] / self.reached[k - 1]

    @property
    def n_steps(self) -> int:
        return len(self.reached)


@dataclass(frozen=True)
class NullSample:
    """Statistic values collected at one fixed step across replications."""

    statistics: np.ndarray
    k: int
    config: SimulationConfig


# Replications per job at most: a job holds one spectrum per replication
# and the quadrature state of one block.
_BLOCK_REPS = 256

# Covariance entries per eigendecomposition call at most (at least one matrix):
# a whole block at small p in one call, one matrix per call from p = 256 on.
_MAX_EIGEN_FLOATS = 2**16


def _table_block(cfg: SimulationConfig, spectra: np.ndarray,
                 settings: QuadratureSettings) -> np.ndarray:
    """Per-step reach (row 0) and rejection (row 1) counts of one block of replications."""
    counts = np.zeros((2, cfg.p - 1), dtype=np.int64)
    for result in run_sequence(spectra, cfg.alpha, settings=settings):
        # Every step before the first acceptance rejected, so the rejections
        # are the first rank_estimate steps.
        counts[0, :len(result.steps)] += 1
        counts[1, :result.rank_estimate] += 1
    return counts


def _null_block(cfg: SimulationConfig, spectra: np.ndarray, k: int,
                settings: QuadratureSettings) -> np.ndarray:
    return csv_statistic(spectra, k, settings=settings).statistic


def _run_block(job):
    """Reduce replications start..stop-1 to spectra, one dataset at a time, then
    evaluate them together; a numeric failure is re-raised with its replication.

    Every dataset of the block is built in one workspace (see
    ``generate_dataset``), allocated here and freed with the block. The
    covariances are decomposed in stacks of at most ``_MAX_EIGEN_FLOATS``
    entries, one ``symmetric_eigen`` call per stack. When replication r
    fails, the replications before it are evaluated first and their failure,
    if any, is raised instead, so the error names the lowest failing one.
    """
    task, cfg, start, stop, args = job
    workspace = np.empty((2 if cfg.local_null_tau > 0.0 else 1, cfg.n, cfg.p))
    chunk = max(1, _MAX_EIGEN_FLOATS // (cfg.p * cfg.p))
    covariances = np.empty((min(chunk, stop - start), cfg.p, cfg.p))
    spectra = np.empty((stop - start, cfg.p))
    try:
        for lo in range(0, stop - start, chunk):
            rows = min(chunk, stop - start - lo)
            for i in range(rows):
                data = generate_dataset(cfg, start + lo + i, out=workspace)
                try:
                    covariances[i] = sample_covariance(data, center=False)
                except NumericalError as exc:
                    if lo + i:
                        spectra[lo:lo + i] = symmetric_eigen(covariances[:i]).eigenvalues
                        task(cfg, spectra[:lo + i], *args)
                    raise exc.at(lo + i) from exc
            spectra[lo:lo + rows] = symmetric_eigen(covariances[:rows]).eigenvalues
        return task(cfg, spectra, *args)
    except NumericalError as exc:
        # A design or eigendecomposition failure names no replication.
        if exc.index is None:
            raise
        raise exc.at(start + exc.index) from exc


# Thread-count getters and setters of the OpenBLAS builds numpy ships or links:
# numpy's bundled scipy-openblas (64-bit integers, prefixed and suffixed
# symbols), then a plain system OpenBLAS.
_OPENBLAS_THREADS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads"))


def _numpy_blas():
    """ctypes handle of numpy's linalg extension, through which the symbols of
    the BLAS numpy links resolve (dlsym also searches a library's dependencies).

    ``ctypes`` is imported here so that importing the package does not pay for it.
    """
    import ctypes

    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread in this process inside the block, and
    restore its thread count on leaving it.

    A process forked inside inherits the count of one, and fork has already shut
    down the child's copy of the BLAS thread pool, so the child never starts a
    BLAS thread. Setting the count inside the child instead rebuilds the pool
    there, and its helper thread busy-waits for about 0.1 s of CPU before it
    sleeps. Does nothing when numpy's BLAS is not OpenBLAS or already runs on
    one thread.
    """
    import ctypes

    lib, threads = _numpy_blas(), 1
    for get, put in _OPENBLAS_THREADS:
        if hasattr(lib, get) and hasattr(lib, put):
            get_threads, set_threads = getattr(lib, get), getattr(lib, put)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            threads = get_threads()
            break
    if threads == 1:
        yield
        return
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


# In a pool worker, the event its _fork_map sets once it stops reading results.
_cancelled = None


def _start_worker(cancelled) -> None:
    global _cancelled
    _cancelled = cancelled


def _in_worker(call):
    """``fn(job)`` in a pool worker: its result, or the error it raised, and the
    warnings raised before, which the worker cannot show itself; nothing once
    its pool is cancelled."""
    fn, job = call
    if _cancelled is not None and _cancelled.is_set():
        return None, []
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = fn(job)
        except Exception as exc:
            outcome = exc
    return outcome, [w.message for w in caught]


def _fork_map(fn, jobs: list, workers: int):
    """Results of ``fn`` on each job, in job order, from up to ``workers`` processes.

    One worker maps in-process. More run a fork pool with at most one process
    per job, opened under :func:`_one_blas_thread`. A job's warnings are raised
    again here, in job order, so any number of workers shows the same ones.
    Results are read in order, so the lowest failing job's error is raised.
    Once reading stops, the workers finish the jobs they run and skip the
    queued ones: a worker killed while it writes its result would leave the
    pool's result pipe locked or cut, and the pool would hang on closing.
    """
    if workers == 1 or not jobs:
        yield from map(fn, jobs)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    cancelled = context.Event()
    with _one_blas_thread(), context.Pool(min(workers, len(jobs)), initializer=_start_worker,
                                          initargs=(cancelled,)) as pool:
        try:
            for outcome, caught in pool.imap(_in_worker, [(fn, job) for job in jobs]):
                for message in caught:
                    warnings.warn(message)
                if isinstance(outcome, Exception):
                    raise outcome
                yield outcome
        finally:
            cancelled.set()
            pool.close()
            pool.join()


def _map_blocks(task, cfg: SimulationConfig, args: tuple, workers: int, what: str):
    """Results of ``task`` on consecutive blocks of replications, in order.

    Results do not depend on the blocks, so the block size only balances the
    workers. Each block reports its lowest failing replication, so the error
    names the lowest failing replication for any number of workers.
    """
    workers = _integer("workers", workers, 1)
    size = _BLOCK_REPS if workers == 1 else min(_BLOCK_REPS, -(-cfg.reps // (4 * workers)))
    jobs = [(task, cfg, start, min(start + size, cfg.reps), args)
            for start in range(0, cfg.reps, max(1, size))]
    if workers > 1 and jobs:
        # Forked workers inherit the cached design and numpy.random, which
        # each of them would otherwise build and import under copy-on-write.
        _design(cfg)
    try:
        yield from _fork_map(_run_block, jobs, workers)
    except NumericalError as exc:
        # A failure that belongs to no replication keeps its own message.
        if exc.index is None:
            raise
        raise exc.at(exc.index, f"replication {exc.index} failed, aborting {what}: ") from exc


def run_rejection_table(cfg: SimulationConfig,
                        settings: QuadratureSettings = QuadratureSettings(),
                        workers: int = 1) -> RejectionTable:
    """Tally reach/rejection counts per step over ``cfg.reps`` replications.

    A replication that fails numerically aborts the whole table (with its
    index attached) rather than being skipped, since silent skips would
    bias the rates. The index is that of the lowest failing replication.
    """
    _check_config(cfg)
    _check_settings(settings)
    counts = sum(_map_blocks(_table_block, cfg, (settings,), workers, "table"),
                 np.zeros((2, cfg.p - 1), dtype=np.int64))
    return RejectionTable(config=cfg, reached=tuple(counts[0].tolist()),
                          rejected=tuple(counts[1].tolist()))


def collect_null_statistics(cfg: SimulationConfig, k: int,
                            settings: QuadratureSettings = QuadratureSettings(),
                            workers: int = 1) -> NullSample:
    """Evaluate the step-k statistic on every replication, no gating.

    Requires ``cfg.true_rank == k - 1`` (so step k is the first true null)
    and ``cfg.local_null_tau > 0``: with tau = 0 the trailing sample
    eigenvalues are exactly zero, the plug-in scale degenerates, and the
    statistic is identically 1 rather than Unif(0,1). A numeric failure
    names the lowest failing replication.
    """
    _check_config(cfg)
    k = _check_step(k, cfg.p)
    if cfg.true_rank != k - 1:
        raise ValidationError(
            f"null collection at step k={k} needs true_rank == k-1, got {cfg.true_rank}"
        )
    if cfg.local_null_tau <= 0.0:
        raise ValidationError(
            "local_null_tau must be positive: with an exactly low-rank population the "
            "plug-in scale is zero and the statistic degenerates to the constant 1"
        )
    _check_settings(settings)
    blocks = list(_map_blocks(_null_block, cfg, (k, settings), workers, "null sample"))
    stats = np.concatenate(blocks) if blocks else np.empty(0)
    return NullSample(statistics=stats, k=k, config=cfg)


def ks_distance(sample) -> float:
    """Sup-norm distance between the empirical CDF and the Unif(0,1) CDF.

    Accepts a :class:`NullSample` or any array of values in [0, 1].
    """
    values = _real_array("sample", sample.statistics if isinstance(sample, NullSample) else sample)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError(f"sample must be a non-empty 1-d array, got shape {values.shape}")
    if np.any(values < 0.0) or np.any(values > 1.0) or not np.all(np.isfinite(values)):
        raise ValidationError("sample values must lie in [0, 1]")
    x = np.sort(values)
    m = x.shape[0]
    grid = np.arange(1, m + 1) / m
    d_plus = float(np.max(grid - x))
    d_minus = float(np.max(x - (grid - 1.0 / m)))
    return max(d_plus, d_minus, 0.0)


def ks_pvalue_approx(distance: float, m: int) -> float:
    """Asymptotic Kolmogorov p-value for an m-sample KS distance.

    Uses the limiting alternating series Q(x) = 2 sum_j (-1)^(j-1)
    exp(-2 j^2 x^2) at x = sqrt(m) * distance. Approximate by nature; it is
    reported for orientation, not as an exact test.
    """
    m, distance = _integer("m", m, 1), _real("distance", distance)
    if not 0.0 <= distance <= 1.0:
        raise ValidationError(f"KS distance must lie in [0, 1], got {distance}")
    x = math.sqrt(m) * distance
    if x < 0.18:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * (j * x) ** 2) * (1 if j % 2 else -1)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, 2.0 * total))
