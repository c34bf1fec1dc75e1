"""Monte Carlo harness: rejection tables and null-uniformity diagnostics.

``run_rejection_table`` replays the sequential test over many independent
replications of a simulation configuration and tallies, per step, how many
replications reached the step and how many rejected its null. Counts chain:
a replication reaches step k+1 exactly when it rejected at step k. The
stopping rule is ``run_sequence``'s alone: a block's table counts, per step
column of its stacked statistics, the entries that are set (reached) and
those at or below alpha (rejected).

``collect_null_statistics`` instead evaluates the statistic at one fixed
step on every replication, with no sequential gating, to probe the claim
that the statistic is asymptotically Unif(0,1) under the null. That claim
is checked with the Kolmogorov-Smirnov distance to the uniform CDF.

Replications are mutually independent with per-replication seed streams, so
they may be executed by any number of workers in any order; aggregation is
a commutative count sum and the results are identical regardless of
scheduling. Each job is the (start, stop) bounds of a contiguous block of
replications: it reduces each dataset to its covariance before generating
the next, decomposes the covariances in stacks, and hands the block's
spectra to one task, a function of the spectra alone that the public
function closes over its own options; a replication's statistics do not
depend on the block it lands in. A job builds all of its datasets in one
workspace, so no replication allocates an n x p array.

One function, ``_fork_map``, decides whether work forks: it runs one whole
map per call, in-process when the workers or the jobs number one, else in at
most one forked worker per job. Worker w inherits the function and the jobs,
runs jobs w, w + W, w + 2W, ... of the W workers, and sends each outcome back
as one pickle through a pipe of its own; every worker has been killed and
reaped before the call returns. At every worker count, the replications are
cut into blocks of at most ``_BLOCK_REPS`` whose sizes differ by at most one,
a whole number of them per worker, so every worker runs the same number of
replications to within one. Pool workers run numpy's BLAS single-threaded
(when it is OpenBLAS), so N workers keep N cores busy. The parent sets its own BLAS
thread count to one until the last result is read, so each forked worker
inherits that count and never starts a BLAS thread; the in-process path
leaves the BLAS threads as it finds them. The warnings a worker raises are
sent with its block's result or error and raised again in the parent, in
block order, so any number of workers shows the same warnings.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
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


# Replications per job at most: a job holds one spectrum per replication
# and the quadrature state of one block.
_BLOCK_REPS = 256

# Covariance entries per eigendecomposition call at most (at least one matrix):
# a whole block at small p in one call, one matrix per call from p = 256 on.
_MAX_EIGEN_FLOATS = 2**16


def _run_block(cfg: SimulationConfig, task, what: str, start: int, stop: int):
    """``task`` on the spectra of replications start..stop-1, each reduced to its
    spectrum one dataset at a time; a numeric failure is re-raised as the
    failure of its replication, which aborts ``what``.

    Every dataset of the block is built in one workspace (see
    ``generate_dataset``), allocated here and freed with the block. The
    covariances are decomposed in stacks of at most ``_MAX_EIGEN_FLOATS``
    entries, one ``symmetric_eigen`` call per stack. When replication r
    fails, the replications before it are evaluated first and their failure,
    if any, is raised instead, so the error names the lowest failing one.
    This is the one place that gives a failure its replication.
    """
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
                        task(spectra[:lo + i])
                    raise exc.at(lo + i) from exc
            spectra[lo:lo + rows] = symmetric_eigen(covariances[:rows]).eigenvalues
        return task(spectra)
    except NumericalError as exc:
        # A design or eigendecomposition failure names no replication.
        if exc.index is None:
            raise
        r = start + exc.index
        raise exc.at(r, f"replication {r} failed, aborting {what}: ") from exc


# Thread-count getters and setters of the OpenBLAS builds numpy ships or links:
# numpy 2's bundled scipy-openblas (64-bit integers, prefixed and suffixed
# symbols), the OpenBLAS of numpy 1.x wheels (64-bit integers, suffixed
# symbols), then a plain system OpenBLAS.
_OPENBLAS_THREADS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
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


_PR_SET_PDEATHSIG = 1  # prctl option: the signal a process gets when its parent dies


def _work(fn, jobs: list, parent: int, pipes: list, out: int):
    """The life of a worker forked by :func:`_fork_map` from process ``parent``;
    never returns.

    The worker first asks for SIGKILL when the thread that forked it exits,
    where ``prctl`` exists; that thread waits in ``_fork_map`` until every
    worker is reaped. A parent that died before that request is caught by the
    parent id. The worker closes the parent's ends of the pipes, then writes the
    outcome of ``fn`` on each job to the pipe end ``out``, in order: one
    pickle of the result, or of the error raised, and of the warnings raised
    before, which the worker cannot show itself; a pickle marks its own end,
    so none is framed. A result that cannot be pickled is sent as its
    pickling error. It stops after the first error, and exits by
    ``os._exit``, so no exit handler runs and no inherited output buffer is
    flushed twice.
    """
    import ctypes
    import signal

    try:
        libc = ctypes.CDLL(None)
        if hasattr(libc, "prctl"):
            libc.prctl.argtypes, libc.prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        for pipe in pipes:
            pipe.close()
        with open(out, "wb") as sink:
            for job in jobs:
                with warnings.catch_warnings(record=True) as caught:
                    try:
                        outcome = fn(job)
                    except Exception as exc:
                        outcome = exc
                messages = [w.message for w in caught]
                try:
                    data = pickle.dumps((outcome, messages))
                except Exception as exc:
                    outcome, data = exc, pickle.dumps((exc, messages))
                sink.write(data)
                sink.flush()
                if isinstance(outcome, Exception):
                    return
    finally:
        os._exit(0)


def _receive(pipe, job: int):
    """The (outcome, warnings) of job ``job``, read from its worker's pipe as
    one pickle; a pipe that ends before the pickle does is a ChildProcessError."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"a worker process died: its pipe ended before "
                                f"the result of job {job}") from None


def _fork_map(fn, jobs: list, workers: int) -> list:
    """Results of ``fn`` on each job, in job order, from up to ``workers`` processes.

    This is the one place that decides whether work forks: the process count
    W is lowered to the number of jobs, and one process maps in-process. More
    are forked here, under :func:`_one_blas_thread`, which stays open until
    the last result is read; worker w inherits ``fn`` and the jobs, so nothing
    is pickled on the way in, and runs jobs w, w + W, w + 2W, ... (see
    :func:`_work`). Job j's outcome is read from worker j mod W, in job
    order, and its warnings are raised again here, so any number of workers
    shows the same ones, and the first error read, the lowest failing job's,
    is raised. A pipe that ends early is a ChildProcessError. Before the call
    returns or raises, the pipes are closed and every worker is killed and
    reaped; no pipe is shared, so a worker killed while it writes locks no
    other's.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return list(map(fn, jobs))
    import signal

    parent, pids, pipes, results = os.getpid(), [], [], []
    with _one_blas_thread():
        try:
            for w in range(workers):
                read_end, write_end = os.pipe()
                pipes.append(open(read_end, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(fn, jobs[w::workers], parent, pipes, write_end)
                finally:
                    os.close(write_end)
                pids.append(pid)
            for j in range(len(jobs)):
                outcome, caught = _receive(pipes[j % workers], j)
                for message in caught:
                    warnings.warn(message)
                if isinstance(outcome, Exception):
                    raise outcome
                results.append(outcome)
        finally:
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _map_blocks(cfg: SimulationConfig, task, workers: int, what: str) -> list:
    """Results of ``task`` on the spectra of consecutive blocks of replications,
    in order, from one :func:`_fork_map` call, which alone decides whether to
    fork; its jobs are the blocks' (start, stop) bounds, each run by
    :func:`_run_block`.

    W workers take min(reps, W * ceil(reps / (W * _BLOCK_REPS))) blocks, a
    multiple of W unless every block holds one replication, whose sizes differ
    by at most one, larger first; dealt round-robin, they give every worker the
    same number of replications to within one. Results do not depend on the
    blocks. Each block reports its lowest failing replication, so the error
    names the lowest failing replication for any number of workers.
    """
    workers = _integer("workers", workers, 1)
    blocks = min(cfg.reps, workers * -(-cfg.reps // (workers * _BLOCK_REPS)))
    size, extra = divmod(cfg.reps, max(1, blocks))
    bounds = [i * size + min(i, extra) for i in range(blocks + 1)]
    if blocks:
        # Forked workers inherit the cached design and numpy.random, which
        # each of them would otherwise build and import under copy-on-write;
        # in-process, the first replication would build it anyway.
        _design(cfg)
    return _fork_map(lambda block: _run_block(cfg, task, what, *block),
                     list(zip(bounds, bounds[1:])), workers)


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

    def tally(spectra: np.ndarray) -> np.ndarray:
        """Per-step reach (row 0) and rejection (row 1) counts of one block's spectra."""
        stats = run_sequence(spectra, cfg.alpha, settings=settings).statistic
        return np.stack([np.count_nonzero(~np.isnan(stats), axis=0),
                         np.count_nonzero(stats <= cfg.alpha, axis=0)])

    counts = sum(_map_blocks(cfg, tally, workers, "table"),
                 np.zeros((2, cfg.p - 1), dtype=np.int64))
    return RejectionTable(config=cfg, reached=tuple(counts[0].tolist()),
                          rejected=tuple(counts[1].tolist()))


def collect_null_statistics(cfg: SimulationConfig, k: int,
                            settings: QuadratureSettings = QuadratureSettings(),
                            workers: int = 1) -> np.ndarray:
    """The step-k statistic of every replication, no gating, as a float64 array
    in replication order.

    Requires ``cfg.reps >= 1``, ``cfg.true_rank == k - 1`` (so step k is the
    first true null) and ``cfg.local_null_tau > 0``: with tau = 0 the
    trailing sample eigenvalues are exactly zero, the plug-in scale
    degenerates, and the statistic is identically 1 rather than Unif(0,1).
    A numeric failure names the lowest failing replication.
    """
    _check_config(cfg)
    k = _check_step(k, cfg.p)
    if cfg.reps < 1:
        raise ValidationError(f"null collection needs reps >= 1, got {cfg.reps}")
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
    blocks = _map_blocks(cfg, lambda lam: csv_statistic(lam, k, settings=settings).statistic,
                         workers, "null sample")
    return np.concatenate(blocks)


def ks_distance(sample) -> float:
    """Sup-norm distance between the empirical CDF of an array of values in
    [0, 1] and the Unif(0,1) CDF."""
    values = _real_array("sample", sample)
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
