import ctypes
import multiprocessing.context
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from covrank import dgp, montecarlo
from covrank import (
    NullSample,
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

    def test_rank_estimates_concentrate_at_true_rank(self):
        # Three well-separated factors, n = 500: the estimate should be 3 in
        # the overwhelming majority of replications.
        cfg = SimulationConfig(p=10, true_rank=3, n=500, reps=120, seed=1001)
        table = run_rejection_table(cfg)
        exactly_three = table.rejected[2] - table.rejected[3]
        assert exactly_three / cfg.reps >= 0.90


class TestCollectNullStatistics:
    def null_config(self, **overrides):
        base = dict(p=4, true_rank=0, n=200, reps=40,
                    local_null_tau=0.5, seed=99)
        base.update(overrides)
        return SimulationConfig(**base)

    def test_values_in_unit_interval(self):
        sample = collect_null_statistics(self.null_config(), 1)
        assert sample.statistics.shape == (40,)
        assert np.all(sample.statistics >= 0.0)
        assert np.all(sample.statistics <= 1.0)

    def test_rejects_zero_tau_with_degeneracy_message(self):
        cfg = SimulationConfig(p=4, true_rank=0, n=200, reps=10, seed=99)
        with pytest.raises(ValidationError, match="degenerate"):
            collect_null_statistics(cfg, 1)

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
        s1 = collect_null_statistics(self.null_config(reps=12), 1, workers=1)
        s2 = collect_null_statistics(self.null_config(reps=12), 1, workers=2)
        assert np.array_equal(s1.statistics, s2.statistics)

    def test_no_sequential_gating(self):
        # Statistics are collected at the step even when earlier steps would
        # have accepted: every replication contributes exactly one value.
        cfg = self.null_config(p=5, true_rank=1, n=150,
                               factor_scales=(4.0,), reps=15)
        sample = collect_null_statistics(cfg, 2)
        assert sample.k == 2
        assert sample.statistics.shape == (15,)


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_names_lowest_failing_replication(self, workers):
        expected = self.first_failure(lambda lam: run_sequence(lam, self.cfg.alpha, self.tight))
        with pytest.raises(NumericalError, match=f"replication {expected} failed") as info:
            run_rejection_table(self.cfg, self.tight, workers=workers)
        assert info.value.index == expected
        assert info.value.achieved_rel_tol > self.tight.rel_tol

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
        with pytest.raises(NumericalError, match=f"replication {lowest} failed") as info:
            run_rejection_table(self.cfg, self.tight, workers=workers)
        assert info.value.index == lowest

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run", [
        lambda cfg, workers: run_rejection_table(cfg, workers=workers),
        lambda cfg, workers: collect_null_statistics(cfg, 2, workers=workers),
    ], ids=["table", "null"])
    def test_failure_inside_a_later_block_names_its_replication(self, monkeypatch,
                                                                workers, run):
        # With 2 workers the blocks hold 5 replications, so replication 7 is
        # the third of the block that starts at 5: its index must carry that
        # start once.
        def scaled(cfg, index, out=None):
            data = generate_dataset(cfg, index, out=out)
            return data * 1e200 if index == 7 else data

        monkeypatch.setattr(montecarlo, "generate_dataset", scaled)
        with pytest.raises(NumericalError, match="replication 7 failed") as info:
            run(self.cfg, workers)
        assert info.value.index == 7

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


def _blas_threads_task(cfg, spectra):
    return _blas_threads()


class TestPoolBlasThreads:
    def test_workers_run_blas_single_threaded_and_parent_is_unchanged(self):
        before = _blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=4, seed=1)
        per_block = list(montecarlo._map_blocks(_blas_threads_task, cfg, (), 2, "probe"))
        assert len(per_block) == 4
        assert all(counts == [1] * len(before) for counts in per_block)
        assert _blas_threads() == before

    def test_workers_start_no_blas_thread(self):
        # A worker that sets its own BLAS thread count rebuilds the BLAS thread
        # pool that fork shut down, and a 300 x 300 product then runs on it.
        if not _blas_threads() or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs OpenBLAS and /proc")
        cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=4, seed=1)
        assert list(montecarlo._map_blocks(_os_threads_task, cfg, (), 2, "probe")) == [1] * 4


def _os_threads_task(cfg, spectra):
    square = np.ones((300, 300))
    square @ square
    return len(os.listdir("/proc/self/task"))


def _warning_task(cfg, spectra, failing_top):
    warnings.warn(f"top eigenvalue {spectra[0, 0]!r}")
    if spectra[0, 0] == failing_top:
        raise NumericalError("probe failure", index=0)
    return spectra


class TestWorkerWarnings:
    cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=8, seed=1)

    def run(self, failing_top=None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                blocks = list(montecarlo._map_blocks(_warning_task, self.cfg, (failing_top,), 2,
                                                     "probe"))
            except NumericalError as exc:
                blocks = exc
        return blocks, [str(w.message) for w in caught]

    def tops(self):
        spectra = montecarlo._run_block((_spectra_task, self.cfg, 0, self.cfg.reps, ()))
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


def _spectra_task(cfg, spectra):
    return spectra


def _slow_task(cfg, spectra, failing_top, done):
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


class TestPoolFailure:
    def test_a_failure_while_workers_send_large_results_does_not_hang(self):
        # Killing the workers at the first failure left a worker that was
        # sending a 2 MB result holding the pool's result lock, and closing
        # the pool then waited forever: within 20 rounds, every time.
        errors = []

        def rounds():
            for _ in range(20):
                try:
                    list(montecarlo._fork_map(_large_unless_first, list(range(12)), 2))
                except ValueError as exc:
                    errors.append(str(exc))

        runner = threading.Thread(target=rounds, daemon=True)
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive()
        assert errors == ["first job"] * 20
        assert multiprocessing.active_children() == []

    def test_a_failing_block_cancels_the_queued_ones(self, tmp_path):
        # 8 blocks of 2 replications; the first fails at once and every other
        # one sleeps. Waiting for all of them would finish 7.
        cfg = SimulationConfig(p=3, true_rank=1, n=10, reps=16, seed=1)
        first = montecarlo._run_block((_spectra_task, cfg, 0, 2, ()))[0, 0]
        with pytest.raises(NumericalError, match="replication 0 failed"):
            list(montecarlo._map_blocks(_slow_task, cfg, (first, tmp_path), 2, "probe"))
        assert len(list(tmp_path.iterdir())) <= 2
        assert multiprocessing.active_children() == []


class TestBlockWorkspace:
    # At p = 130 one eigendecomposition call takes 3 covariances, so the block of
    # 7 replications spans three calls.
    @pytest.mark.parametrize("k, tau, p", [(0, 0.7, 7), (2, 0.0, 7), (2, 0.7, 7), (2, 0.7, 130)],
                             ids=["0-0.7", "2-0.0", "2-0.7", "2-0.7-p130"])
    def test_block_spectra_match_one_replication_at_a_time(self, k, tau, p):
        cfg = SimulationConfig(p=p, true_rank=k, n=151, reps=9, local_null_tau=tau, seed=31)
        block = montecarlo._run_block((_spectra_task, cfg, 2, 9, ()))
        for row, r in zip(block, range(2, 9)):
            data = generate_dataset(cfg, r)
            expected = symmetric_eigen(sample_covariance(data, center=False)).eigenvalues
            assert row.tobytes() == expected.tobytes()

    def test_replications_allocate_no_data_sized_array(self):
        cfg = SimulationConfig(p=20, true_rank=2, n=20000, reps=8, local_null_tau=1.0, seed=3)
        generate_dataset(cfg, 0)  # build the cached design outside the trace
        tracemalloc.start()
        try:
            montecarlo._run_block((_spectra_task, cfg, 0, cfg.reps, ()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The block's two-array workspace plus small per-replication arrays; one
        # more n x p temporary (any replication allocating its own) would reach 3.
        assert peak < 2.5 * cfg.n * cfg.p * 8


class _RecordingPool:
    """Stands in for the fork context's Pool: records processes, maps in-process."""

    sizes: list = []

    def __init__(self, processes, initializer=None, initargs=()):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, jobs):
        return map(fn, jobs)

    def close(self):
        pass

    def join(self):
        pass


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
        montecarlo._run_block((_spectra_task, cfg, 0, reps, ()))
        assert calls == sizes

    def test_table_is_one_call_per_block(self, monkeypatch):
        calls = _eigen_calls(monkeypatch)
        cfg = SimulationConfig(p=10, true_rank=3, n=500, reps=300, seed=1)
        run_rejection_table(cfg)
        assert calls == [256, 44]


class TestPoolSize:
    @pytest.mark.parametrize("reps, workers, pool",
                             [(6, 5000, 6), (60, 2, 2), (3, 3, 3), (0, 4, None)])
    def test_pool_has_at_most_one_worker_per_block(self, monkeypatch, reps, workers, pool):
        # _map_blocks imports multiprocessing when it needs a pool.
        monkeypatch.setattr(multiprocessing.context.ForkContext, "Pool", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        cfg = small_table_config(reps=reps)
        table = run_rejection_table(cfg, workers=workers)
        assert _RecordingPool.sizes == ([] if pool is None else [pool])
        assert table == run_rejection_table(cfg, workers=1)

    def test_design_is_built_before_the_pool_starts(self, monkeypatch):
        # Forked workers then find the design cached instead of each building it.
        monkeypatch.setattr(multiprocessing.context.ForkContext, "Pool", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        built = []
        monkeypatch.setattr(_RecordingPool, "__enter__",
                            lambda pool: built.append(dgp._design.cache_info()) or pool)
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

    def test_accepts_null_sample_wrapper(self):
        cfg = SimulationConfig(p=4, true_rank=0, n=100, reps=3,
                               local_null_tau=0.5, seed=1)
        sample = NullSample(statistics=np.array([0.2, 0.4, 0.9]), k=1, config=cfg)
        assert ks_distance(sample) == ks_distance(np.array([0.2, 0.4, 0.9]))

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
