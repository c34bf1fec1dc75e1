import ctypes
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrank import dgp, montecarlo
from covrank import (
    NumericalError,
    QuadratureSettings,
    SimulationConfig,
    ValidationError,
    collect_null_statistics,
    csv_statistic,
    generate_dataset,
    ks_distance,
    ks_pvalue_approx,
    run_rejection_table,
    run_sequence,
    sample_covariance,
    symmetric_eigen,
)

from oracles import ran_statistics


def small_table_config(**overrides):
    base = dict(p=5, true_rank=2, n=80, reps=30, seed=4242)
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.mark.parametrize("cfg", ["cfg", {"p": 4, "true_rank": 1, "n": 20, "reps": 2}, None],
                         ids=["str", "dict", "None"])
@pytest.mark.parametrize("run", [
    lambda cfg: generate_dataset(cfg),
    lambda cfg: run_rejection_table(cfg),
    lambda cfg: collect_null_statistics(cfg, 2),
], ids=["generate_dataset", "run_rejection_table", "collect_null_statistics"])
def test_config_that_is_not_a_simulation_config_is_refused(run, cfg):
    with pytest.raises(ValidationError) as info:
        run(cfg)
    assert str(info.value) == f"cfg must be a SimulationConfig, got {cfg!r}"


class TestRunRejectionTable:
    def test_empty_run(self):
        table = run_rejection_table(small_table_config(reps=0))
        assert table.reached == (0, 0, 0, 0)
        assert table.rejected == (0, 0, 0, 0)
        assert all(table.rate_percent(k) is None for k in range(1, 5))

    def test_chained_counts(self):
        for cfg in (
            small_table_config(),
            small_table_config(p=4, true_rank=1, n=40, reps=25, seed=7),
            small_table_config(p=4, true_rank=0, n=60, reps=25,
                               local_null_tau=0.5, seed=8),
        ):
            table = run_rejection_table(cfg)
            assert table.reached[0] == cfg.reps
            for i in range(table.n_steps - 1):
                assert table.reached[i + 1] == table.rejected[i]
                assert 0 <= table.rejected[i] <= table.reached[i]

    def test_first_true_null_step_never_rejects_under_exact_low_rank(self):
        cfg = small_table_config()  # tau = 0, true rank 2
        table = run_rejection_table(cfg)
        assert table.reached[2] > 0  # step 3 was reached
        assert table.rejected[2] == 0  # and never rejected: tie rule on the zero tail

    def test_rates(self):
        table = run_rejection_table(small_table_config(reps=20))
        r1 = table.rate_percent(1)
        assert r1 is not None and 0.0 <= r1 <= 100.0
        with pytest.raises(ValidationError):
            table.rate_percent(0)
        with pytest.raises(ValidationError):
            table.rate_percent(5)

    def test_worker_count_does_not_change_results(self):
        cfg = small_table_config(reps=16)
        t1 = run_rejection_table(cfg, workers=1)
        t2 = run_rejection_table(cfg, workers=3)
        assert t1.reached == t2.reached
        assert t1.rejected == t2.rejected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_are_those_of_each_replication_run_alone(self, monkeypatch, workers):
        # Replications cycle through a sequence that rejects every step, one
        # that accepts step 1, and one that stops at a degenerate tie.
        cfg = SimulationConfig(p=5, true_rank=1, n=60, reps=12, seed=3)
        monkeypatch.setattr(montecarlo, "generate_dataset", _three_designs)
        results = [run_sequence(symmetric_eigen(sample_covariance(_three_designs(cfg, r),
                                                                  center=False)).eigenvalues,
                                cfg.alpha) for r in range(cfg.reps)]
        assert {(int(r.rank_estimate), bool(r.boundary_reached),
                 bool(r.degenerate[len(ran_statistics(r)) - 1]))
                for r in results} == {(4, True, False), (0, False, False), (1, False, True)}
        reached, rejected = [0] * (cfg.p - 1), [0] * (cfg.p - 1)
        for result in results:
            for k, statistic in enumerate(ran_statistics(result).tolist(), start=1):
                reached[k - 1] += 1
                rejected[k - 1] += statistic <= cfg.alpha
        table = run_rejection_table(cfg, workers=workers)
        assert (table.reached, table.rejected) == (tuple(reached), tuple(rejected))

    def test_rank_estimates_concentrate_at_true_rank(self):
        # Three well-separated factors, n = 500: the estimate should be 3 in
        # the overwhelming majority of replications.
        cfg = SimulationConfig(p=10, true_rank=3, n=500, reps=120, seed=1001)
        table = run_rejection_table(cfg)
        exactly_three = table.rejected[2] - table.rejected[3]
        assert exactly_three / cfg.reps >= 0.90


def _three_designs(cfg, index, out=None):
    """Data of replication ``index``: well-separated scales (every step
    rejects), isotropic noise (step 1 accepts) or one exact factor (step 2
    is a tie on the zero tail), in turn."""
    rng = np.random.default_rng([cfg.seed, index])
    if index % 3 == 2:
        return rng.standard_normal((cfg.n, 1)) * rng.standard_normal(cfg.p)
    noise = rng.standard_normal((cfg.n, cfg.p))
    return noise * 10.0 ** -np.arange(cfg.p) if index % 3 == 0 else noise


class TestCollectNullStatistics:
    def null_config(self, **overrides):
        base = dict(p=4, true_rank=0, n=200, reps=40,
                    local_null_tau=0.5, seed=99)
        base.update(overrides)
        return SimulationConfig(**base)

    def test_values_in_unit_interval(self):
        sample = collect_null_statistics(self.null_config(), 1)
        assert (sample.dtype, sample.shape) == (np.float64, (40,))
        assert np.all(sample >= 0.0)
        assert np.all(sample <= 1.0)

    def test_rejects_zero_tau_with_degeneracy_message(self):
        cfg = SimulationConfig(p=4, true_rank=0, n=200, reps=10, seed=99)
        with pytest.raises(ValidationError, match="degenerate"):
            collect_null_statistics(cfg, 1)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValidationError, match=r"^null collection needs reps >= 1, got 0$"):
            collect_null_statistics(self.null_config(reps=0), 1)

    def test_rejects_mismatched_rank(self):
        with pytest.raises(ValidationError, match="true_rank"):
            collect_null_statistics(self.null_config(), 2)

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ValidationError):
            collect_null_statistics(self.null_config(), 0)
        with pytest.raises(ValidationError):
            collect_null_statistics(self.null_config(), 4)

    def test_step_range_message_is_the_statistics_own(self):
        table = run_rejection_table(small_table_config(reps=2))
        for check in (lambda: collect_null_statistics(self.null_config(), 4),
                      lambda: table.rate_percent(5),
                      lambda: csv_statistic(np.ones(4), 4)):
            with pytest.raises(ValidationError, match=r"^step k must satisfy 1 <= k <= p-1 = \d, got"):
                check()

    def test_worker_count_does_not_change_results(self):
        # 257 replications run as [129, 128] at one worker and at two.
        for reps in (12, 257):
            s1 = collect_null_statistics(self.null_config(reps=reps), 1, workers=1)
            s2 = collect_null_statistics(self.null_config(reps=reps), 1, workers=2)
            assert s1.tobytes() == s2.tobytes()

    def test_no_sequential_gating(self):
        # Statistics are collected at the step even when earlier steps would
        # have accepted: every replication contributes exactly one value.
        cfg = self.null_config(p=5, true_rank=1, n=150,
                               factor_scales=(4.0,), reps=15)
        sample = collect_null_statistics(cfg, 2)
        assert sample.shape == (15,)


class TestNumericFailure:
    # A relative tolerance at the rounding floor with the smallest split
    # budget: some replications run out of splits, at step 1 or at step 2.
    tight = QuadratureSettings(rel_tol=1e-15, max_subdivisions=8)
    cfg = SimulationConfig(p=6, true_rank=1, n=200, reps=40, local_null_tau=1.0,
                           factor_scales=(3.0,), seed=5)

    def first_failure(self, evaluate):
        for r in range(self.cfg.reps):
            lam = symmetric_eigen(sample_covariance(generate_dataset(self.cfg, r),
                                                    center=False)).eigenvalues
            try:
                evaluate(lam)
            except NumericalError:
                return r
        pytest.fail("no replication exhausted the split budget")

    @staticmethod
    def raised(run, workers):
        """The NumericalError that ``run(workers)`` raises, once its message,
        index, best estimate and achieved tolerance are checked to be those
        that one worker raises, and its message to name one replication."""
        seen = []
        for count in (1, workers):
            with pytest.raises(NumericalError) as info:
                run(count)
            error = info.value
            seen.append((str(error), error.index, error.best_estimate, error.achieved_rel_tol))
        assert seen[0] == seen[1]
        assert seen[0][0].count(" failed, aborting ") == 1
        return error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_names_lowest_failing_replication(self, workers):
        expected = self.first_failure(lambda lam: run_sequence(lam, self.cfg.alpha, self.tight))
        error = self.raised(lambda count: run_rejection_table(self.cfg, self.tight, workers=count),
                            workers)
        assert str(error).startswith(f"replication {expected} failed, aborting table: ")
        assert error.index == expected
        assert error.achieved_rel_tol > self.tight.rel_tol

    @pytest.mark.parametrize("workers", [1, 2])
    def test_null_sample_names_lowest_failing_replication(self, workers):
        expected = self.first_failure(lambda lam: csv_statistic(lam, 2, settings=self.tight))
        with pytest.raises(NumericalError, match=f"replication {expected} failed") as info:
            collect_null_statistics(self.cfg, 2, self.tight, workers=workers)
        assert info.value.index == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("overflowing", [0, 4])
    def test_covariance_overflow_names_lowest_failing_replication(self, monkeypatch,
                                                                  workers, overflowing):
        # Replication 1 is the first to exhaust the split budget; the data of
        # one replication are scaled until x^T x overflows. Forked workers
        # inherit the patch.
        expected = self.first_failure(lambda lam: run_sequence(lam, self.cfg.alpha, self.tight))
        assert expected == 1

        def scaled(cfg, index, out=None):
            data = generate_dataset(cfg, index, out=out)
            return data * 1e200 if index == overflowing else data

        monkeypatch.setattr(montecarlo, "generate_dataset", scaled)
        lowest = min(expected, overflowing)
        error = self.raised(lambda count: run_rejection_table(self.cfg, self.tight, workers=count),
                            workers)
        assert str(error).startswith(f"replication {lowest} failed, aborting table: ")
        assert error.index == lowest

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run, what", [
        (lambda cfg, workers: run_rejection_table(cfg, workers=workers), "table"),
        (lambda cfg, workers: collect_null_statistics(cfg, 2, workers=workers), "null sample"),
    ], ids=["table", "null"])
    def test_failure_inside_a_later_block_names_its_replication(self, monkeypatch,
                                                                workers, run, what):
        # Blocks of 5 replications: replication 7 is the third of the block
        # that starts at 5, so its index must carry that start once.
        def scaled(cfg, index, out=None):
            data = generate_dataset(cfg, index, out=out)
            return data * 1e200 if index == 7 else data

        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 5)
        monkeypatch.setattr(montecarlo, "generate_dataset", scaled)
        error = self.raised(lambda count: run(self.cfg, count), workers)
        assert str(error).startswith(f"replication 7 failed, aborting {what}: ")
        assert error.index == 7

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["generate_dataset", "symmetric_eigen"])
    def test_failure_without_a_row_names_no_replication(self, monkeypatch, workers, name):
        # A rank-deficient design frame or a non-converging eigensolver names
        # no replication, in its index or its message, however the work is
        # split. Forked workers inherit the patch.
        def fail(*args, **kwargs):
            raise NumericalError("did not converge")

        monkeypatch.setattr(montecarlo, name, fail)
        with pytest.raises(NumericalError) as info:
            run_rejection_table(self.cfg, workers=workers)
        assert str(info.value) == "did not converge"
        assert info.value.index is None


def _blas_threads():
    """Thread count of numpy's OpenBLAS, as a list of at most one entry."""
    lib = montecarlo._numpy_blas()
    for name, _ in montecarlo._OPENBLAS_THREADS:
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return [getter()]
    return []


def _blas_threads_task(spectra):
    return _blas_threads()


class TestPoolBlasThreads:
    # Blocks of one replication: 4 blocks, 2 for each of the 2 workers.
    cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=4, seed=1)

    def test_workers_run_blas_single_threaded_and_parent_is_unchanged(self, monkeypatch):
        before = _blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 1)
        per_block = montecarlo._map_blocks(self.cfg, _blas_threads_task, 2, "probe")
        assert len(per_block) == 4
        assert all(counts == [1] * len(before) for counts in per_block)
        assert _blas_threads() == before

    def test_workers_start_no_blas_thread(self, monkeypatch):
        # A worker that sets its own BLAS thread count rebuilds the BLAS thread
        # pool that fork shut down, and a 300 x 300 product then runs on it.
        if not _blas_threads() or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs OpenBLAS and /proc")
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 1)
        assert montecarlo._map_blocks(self.cfg, _os_threads_task, 2, "probe") == [1] * 4

    def test_numpy_1_openblas_is_pinned_and_restored(self, monkeypatch):
        # numpy 1.x wheels export only the suffixed 64-bit-integer pair.
        calls = []
        lib = types.SimpleNamespace(openblas_get_num_threads64_=lambda: 4,
                                    openblas_set_num_threads64_=lambda n: calls.append(n))
        monkeypatch.setattr(montecarlo, "_numpy_blas", lambda: lib)
        with montecarlo._one_blas_thread():
            assert calls == [1]
        assert calls == [1, 4]

    def test_one_thread_already_is_left_alone(self, monkeypatch):
        calls = []
        lib = types.SimpleNamespace(openblas_get_num_threads64_=lambda: 1,
                                    openblas_set_num_threads64_=lambda n: calls.append(n))
        monkeypatch.setattr(montecarlo, "_numpy_blas", lambda: lib)
        with montecarlo._one_blas_thread():
            assert calls == []
        assert calls == []

    def test_a_blas_that_is_not_openblas_is_left_alone(self, monkeypatch):
        # MKL's thread-count pair stands in for any BLAS without OpenBLAS symbols.
        calls = []
        lib = types.SimpleNamespace(mkl_get_max_threads=lambda: calls.append("get") or 4,
                                    mkl_set_num_threads=lambda n: calls.append(n))
        monkeypatch.setattr(montecarlo, "_numpy_blas", lambda: lib)
        with montecarlo._one_blas_thread():
            calls.append("body")
        assert calls == ["body"]

    def test_blas_stays_pinned_until_the_last_result_is_read(self, monkeypatch):
        # Restoring the count while workers ran let the parent's BLAS threads
        # spin against them.
        calls = []
        lib = types.SimpleNamespace(
            openblas_get_num_threads64_=lambda: 4,
            openblas_set_num_threads64_=lambda n: calls.append((n, time.monotonic())))
        monkeypatch.setattr(montecarlo, "_numpy_blas", lambda: lib)
        ends = montecarlo._fork_map(_sleep_then_time, [0.05, 0.3, 0.1, 0.05], 2)
        assert [n for n, _ in calls] == [1, 4]
        assert calls[0][1] < min(ends) and calls[1][1] > max(ends)


def _sleep_then_time(seconds):
    """The monotonic clock, which all processes share, after sleeping ``seconds``."""
    time.sleep(seconds)
    return time.monotonic()


def _os_threads_task(spectra):
    square = np.ones((300, 300))
    square @ square
    return len(os.listdir("/proc/self/task"))


def _warning_task(spectra, failing_top):
    warnings.warn(f"top eigenvalue {spectra[0, 0]!r}")
    if spectra[0, 0] == failing_top:
        raise NumericalError("probe failure", index=0)
    return spectra


class TestWorkerWarnings:
    # Blocks of one replication: 8 blocks, 4 for each of the 2 workers.
    cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=8, seed=1)

    def run(self, failing_top=None):
        with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_REPS", 1)
            warnings.simplefilter("always")
            try:
                blocks = montecarlo._map_blocks(
                    self.cfg, lambda spectra: _warning_task(spectra, failing_top), 2, "probe")
            except NumericalError as exc:
                blocks = exc
        return blocks, [str(w.message) for w in caught]

    def tops(self):
        spectra = montecarlo._run_block(self.cfg, _spectra_task, "probe", 0, self.cfg.reps)
        return spectra[:, 0]

    def test_warnings_are_raised_again_in_block_order(self):
        blocks, messages = self.run()
        assert len(blocks) == self.cfg.reps
        assert messages == [f"top eigenvalue {top!r}" for top in self.tops()]

    def test_warnings_before_a_failing_block_are_kept(self):
        tops = self.tops()
        error, messages = self.run(tops[5])
        assert isinstance(error, NumericalError) and error.index == 5
        assert messages == [f"top eigenvalue {top!r}" for top in tops[:6]]


def _spectra_task(spectra):
    return spectra


def _slow_task(spectra, failing_top, done):
    if spectra[0, 0] == failing_top:
        raise NumericalError("probe failure", index=0)
    time.sleep(0.3)
    (done / str(spectra[0, 0])).touch()
    return spectra


def _large_unless_first(i):
    if i == 0:
        time.sleep(0.01)
        raise ValueError("first job")
    return np.ones(1 << 18)


def _killed_at_three(i):
    if i == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.01)
    return i


_unpicklable = lambda i: i  # noqa: E731 -- a lambda is not found by its name


def _unpicklable_result(i):
    return _unpicklable if i == 3 else i


# Prints the modules that a 2-worker map imports, from a fresh interpreter.
_POOL_IMPORTS = """
import sys
from covrank.montecarlo import _fork_map

before = set(sys.modules)
assert _fork_map(abs, [-1, 2, -3], 2) == [1, 2, 3]
print(" ".join(sorted(set(sys.modules) - before)))
"""

# Runs two pool workers whose jobs write their process id to DIR/0 and DIR/1
# and then block.
_BLOCKED_POOL = """
import os, sys, time
from covrank.montecarlo import _fork_map

def job(path):
    with open(path + ".tmp", "w") as f:
        f.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(600)

_fork_map(job, [os.path.join(sys.argv[1], str(i)) for i in range(2)], 2)
"""


def _src_env() -> dict:
    """This environment, with the package's source directory first on PYTHONPATH."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/status") as status:
            return "\nState:\tZ" not in status.read()
    except OSError:
        return False


class TestPoolFailure:
    @pytest.mark.parametrize("job, error", [(_killed_at_three, ChildProcessError),
                                            (_unpicklable_result, pickle.PicklingError)],
                             ids=["dead-worker", "unpicklable-result"])
    def test_a_broken_job_is_an_error_and_leaves_no_child(self, forks, job, error):
        # A pool that replaces a dead worker waited forever for the result of
        # the job that killed it. A result that cannot be sent back is its
        # job's error, not a dead worker.
        errors = []

        def run():
            try:
                montecarlo._fork_map(job, list(range(8)), 2)
            except error as exc:
                errors.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive()
        assert len(errors) == 1
        assert len(forks) == 2 and forks.unreaped() == []

    @pytest.mark.parametrize("share", [0, 0.5], ids=["empty", "half-pickle"])
    def test_a_pipe_that_ends_before_its_pickle_names_the_job(self, share):
        # A pickle cut short ends in an UnpicklingError, not an EOFError.
        data = pickle.dumps((np.ones(10), []))
        read_end, write_end = os.pipe()
        os.write(write_end, data[:int(len(data) * share)])
        os.close(write_end)
        with open(read_end, "rb") as pipe, pytest.raises(
                ChildProcessError, match="^a worker process died: its pipe ended before "
                                         "the result of job 3$"):
            montecarlo._receive(pipe, 3)

    def test_a_map_is_a_list_and_leaves_no_child(self, forks):
        results = montecarlo._fork_map(abs, [-3, 1, -2, 5], 2)
        assert results == [3, 1, 2, 5] and type(results) is list
        assert len(forks) == 2 and forks.unreaped() == []
        with pytest.raises(ValueError, match="first job"):
            montecarlo._fork_map(_large_unless_first, list(range(4)), 2)
        assert len(forks) == 4 and forks.unreaped() == []

    def test_the_function_and_jobs_are_inherited_not_pickled(self, forks):
        # A lambda cannot be pickled by its name, so the pool once refused it.
        assert montecarlo._fork_map(_unpicklable, list(range(8)), 2) == list(range(8))
        assert len(forks) == 2 and forks.unreaped() == []

    def test_a_fresh_pooled_map_imports_no_pool_machinery(self):
        # concurrent.futures and multiprocessing cost 33 modules and 1.45 MB.
        done = subprocess.run([sys.executable, "-c", _POOL_IMPORTS], env=_src_env(),
                              capture_output=True, text=True, timeout=60.0, check=True)
        assert set(done.stdout.split()) <= {"signal"}

    def test_a_failure_while_workers_send_large_results_does_not_hang(self, forks):
        # Killing the workers at the first failure left a worker that was
        # sending a 2 MB result holding the pool's result lock, and closing
        # the pool then waited forever: within 20 rounds, every time.
        errors = []

        def rounds():
            for _ in range(20):
                try:
                    montecarlo._fork_map(_large_unless_first, list(range(12)), 2)
                except ValueError as exc:
                    errors.append(str(exc))

        runner = threading.Thread(target=rounds, daemon=True)
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive()
        assert errors == ["first job"] * 20
        assert len(forks) == 40 and forks.unreaped() == []

    def test_a_failing_block_cancels_the_queued_ones(self, tmp_path, monkeypatch, forks):
        # 8 blocks of 2 replications, 4 for each of the 2 workers; the first
        # fails at once and every other one sleeps. Waiting for all of them
        # would finish 7.
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 2)
        cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=16, seed=1)
        first = montecarlo._run_block(cfg, _spectra_task, "probe", 0, 2)[0, 0]
        with pytest.raises(NumericalError, match="replication 0 failed"):
            montecarlo._map_blocks(cfg, lambda spectra: _slow_task(spectra, first, tmp_path), 2,
                                   "probe")
        assert len(list(tmp_path.iterdir())) <= 2
        assert len(forks) == 2 and forks.unreaped() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
    def test_workers_end_when_their_parent_is_killed(self, tmp_path):
        # Workers blocked on the call queue outlived a killed parent, both
        # still alive a second after the kill.
        parent = subprocess.Popen([sys.executable, "-c", _BLOCKED_POOL, str(tmp_path)],
                                  env=_src_env())
        pids = []
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = [int(path.read_text()) for path in tmp_path.glob("[01]")]
            assert len(pids) == 2
            parent.kill()
            parent.wait(10.0)
            deadline = time.monotonic() + 10.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(10.0)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestBlockWorkspace:
    # At p = 130 one eigendecomposition call takes 3 covariances, so the block of
    # 7 replications spans three calls.
    @pytest.mark.parametrize("k, tau, p", [(0, 0.7, 7), (2, 0.0, 7), (2, 0.7, 7), (2, 0.7, 130)],
                             ids=["0-0.7", "2-0.0", "2-0.7", "2-0.7-p130"])
    def test_block_spectra_match_one_replication_at_a_time(self, k, tau, p):
        cfg = SimulationConfig(p=p, true_rank=k, n=151, reps=9, local_null_tau=tau, seed=31)
        block = montecarlo._run_block(cfg, _spectra_task, "probe", 2, 9)
        for row, r in zip(block, range(2, 9)):
            data = generate_dataset(cfg, r)
            expected = symmetric_eigen(sample_covariance(data, center=False)).eigenvalues
            assert row.tobytes() == expected.tobytes()

    def test_replications_allocate_no_data_sized_array(self):
        cfg = SimulationConfig(p=20, true_rank=2, n=20000, reps=8, local_null_tau=1.0, seed=3)
        generate_dataset(cfg, 0)  # build the cached design outside the trace
        tracemalloc.start()
        try:
            montecarlo._run_block(cfg, _spectra_task, "probe", 0, cfg.reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The block's two-array workspace plus small per-replication arrays; one
        # more n x p temporary (any replication allocating its own) would reach 3.
        assert peak < 2.5 * cfg.n * cfg.p * 8


def _eigen_calls(monkeypatch):
    """Stack sizes of the symmetric_eigen calls the Monte Carlo layer makes."""
    sizes = []

    def counting(m, *args, **kwargs):
        sizes.append(len(m))
        return symmetric_eigen(m, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "symmetric_eigen", counting)
    return sizes


class TestEigenChunks:
    @pytest.mark.parametrize("p, reps, sizes", [(10, 200, [200]), (130, 7, [3, 3, 1]),
                                                (256, 2, [1, 1]), (5, 0, [])])
    def test_one_call_per_chunk_of_covariances(self, monkeypatch, p, reps, sizes):
        calls = _eigen_calls(monkeypatch)
        cfg = SimulationConfig(p=p, true_rank=1, n=p + 1, reps=reps, seed=2)
        montecarlo._run_block(cfg, _spectra_task, "probe", 0, reps)
        assert calls == sizes

    def test_table_is_one_call_per_block(self, monkeypatch):
        calls = _eigen_calls(monkeypatch)
        cfg = SimulationConfig(p=10, true_rank=3, n=500, reps=300, seed=1)
        run_rejection_table(cfg)
        assert calls == [150, 150]


def _block_sizes(reps, workers):
    """Replications per block that ``_map_blocks`` hands to ``_fork_map``."""
    blocks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_fork_map", lambda fn, jobs, workers: blocks.extend(
            stop - start for start, stop in jobs) or [])
        cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=reps, seed=1)
        montecarlo._map_blocks(cfg, _spectra_task, workers, "probe")
    return blocks


class TestBlockLayout:
    @pytest.mark.parametrize("reps, workers, sizes", [(60, 2, [30, 30]), (61, 2, [31, 30]),
                                                      (1000, 2, [250] * 4), (300, 1, [150, 150]),
                                                      (257, 1, [129, 128]), (256, 1, [256]),
                                                      (5, 8, [1] * 5), (0, 2, [])],
                             ids=["60-at-2", "61-at-2", "1000-at-2", "300-at-1", "257-at-1",
                                  "256-at-1", "5-at-8", "0-at-2"])
    def test_every_worker_gets_an_equal_share(self, reps, workers, sizes):
        # Dealt round-robin, the blocks give 2 workers 30 and 30, 31 and 30, or
        # 500 and 500 replications; one worker runs as many blocks of at most
        # _BLOCK_REPS as it needs, as even as they can be.
        assert _block_sizes(reps, workers) == sizes

    @settings(max_examples=200, deadline=None)
    @given(reps=st.integers(0, 3000), workers=st.integers(1, 8))
    def test_blocks_are_even_bounded_and_a_multiple_of_the_workers(self, reps, workers):
        sizes = _block_sizes(reps, workers)
        assert sum(sizes) == reps
        assert sizes == sorted(sizes, reverse=True)
        assert not sizes or sizes[0] - sizes[-1] <= 1
        assert max(sizes, default=0) <= montecarlo._BLOCK_REPS
        assert len(sizes) % workers == 0 or set(sizes) == {1}


class TestPoolSize:
    @pytest.mark.parametrize("reps, workers, pool",
                             [(6, 5000, 6), (60, 2, 2), (3, 3, 3), (0, 4, None), (1, 2, None),
                              (257, 2, 2), (300, 3, 3)])
    def test_pool_has_at_most_one_worker_per_block(self, forks, reps, workers, pool):
        cfg = small_table_config(reps=reps)
        table = run_rejection_table(cfg, workers=workers)
        assert len(forks) == (0 if pool is None else pool)
        assert table == run_rejection_table(cfg, workers=1)

    def test_one_replication_null_sample_starts_no_pool(self, forks):
        cfg = SimulationConfig(p=4, true_rank=0, n=50, reps=1, local_null_tau=0.5, seed=9)
        two_workers = collect_null_statistics(cfg, 1, workers=2)
        assert forks == []
        assert two_workers.tobytes() == collect_null_statistics(cfg, 1).tobytes()

    def test_design_is_built_before_the_pool_starts(self, monkeypatch):
        # Forked workers then find the design cached instead of each building it.
        built = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: built.append(dgp._design.cache_info()) or fork())
        dgp._design.cache_clear()
        run_rejection_table(small_table_config(reps=6), workers=2)
        assert built[0].currsize == 1
        assert dgp._design.cache_info().misses == built[0].misses


class TestKsDistance:
    def test_point_mass(self):
        assert ks_distance(np.full(100, 0.5)) == pytest.approx(0.5)

    def test_equispaced_grid(self):
        m = 999
        grid = np.arange(1, m + 1) / (m + 1)
        assert ks_distance(grid) <= 1 / (m + 1) + 1 / m + 1e-12

    def test_seeded_uniform_sample(self):
        rng = np.random.default_rng(123456)
        assert ks_distance(rng.uniform(0.0, 1.0, 1000)) <= 0.06

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_distance(np.array([]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ks_distance(np.array([0.5, 1.2]))
        with pytest.raises(ValidationError):
            ks_distance(np.array([0.5, np.nan]))

    def test_two_dimensional_sample_rejected(self):
        with pytest.raises(ValidationError, match="sample must be a non-empty 1-d array"):
            ks_distance([[0.1, 0.2], [0.3, 0.9]])

    def test_extremes(self):
        # A point mass at either end is as far from uniform as possible: the
        # empirical CDF disagrees with the identity by 1 at one endpoint.
        assert ks_distance(np.zeros(10)) == pytest.approx(1.0)
        assert ks_distance(np.ones(10)) == pytest.approx(1.0)


class TestKsPvalue:
    def test_bounds_and_monotonicity(self):
        values = [ks_pvalue_approx(d, 1000) for d in (0.01, 0.03, 0.06, 0.2)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_tiny_distance_is_no_evidence(self):
        assert ks_pvalue_approx(0.001, 100) == 1.0

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValidationError):
            ks_pvalue_approx(0.1, 0)

    @pytest.mark.parametrize("distance", [np.nan, -0.5, 1.5, np.inf])
    def test_rejects_a_distance_outside_the_unit_interval(self, distance):
        with pytest.raises(ValidationError, match="KS distance must lie in"):
            ks_pvalue_approx(distance, 10)

    def test_unit_interval_endpoints(self):
        assert ks_pvalue_approx(0.0, 10) == 1.0
        assert ks_pvalue_approx(1.0, 10) == pytest.approx(0.0, abs=1e-8)

    def test_calibration_on_uniform_draws(self):
        rng = np.random.default_rng(2023)
        d = ks_distance(rng.uniform(0.0, 1.0, 2000))
        assert ks_pvalue_approx(d, 2000) > 0.01
