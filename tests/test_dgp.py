import math

import numpy as np
import pytest

from covrank import (
    SimulationConfig,
    ValidationError,
    generate_dataset,
    make_loadings,
    sample_covariance,
    sample_factors_t,
    symmetric_eigen,
)


def reference_dataset(cfg, replication):
    """The dataset formula as first written: fresh arrays, no workspace."""
    k, p, n, seed = cfg.true_rank, cfg.p, cfg.n, cfg.seed
    a = make_loadings(p, k, cfg.factor_scales, np.random.SeedSequence((seed, 1)))
    if k > 0:
        z = sample_factors_t(k, n, cfg.t_df, np.random.SeedSequence((seed, 2, replication)))
        x = z @ a.T
    else:
        x = np.zeros((n, p))
    if cfg.local_null_tau > 0.0:
        basis = np.linalg.qr(a, mode="complete")[0][:, k:] if k > 0 else np.eye(p)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3, replication)))
        e = rng.standard_normal((n, p - k))
        x = x + math.sqrt(cfg.local_null_tau / math.sqrt(n)) * (e @ basis.T)
    return x


class TestMakeLoadings:
    def test_square_frame_with_equal_scales_is_scaled_identity(self):
        a = make_loadings(4, 4, [2.5, 2.5, 2.5, 2.5], seed=10)
        np.testing.assert_allclose(a @ a.T, 2.5 * np.eye(4), atol=1e-10)

    def test_gram_matrix_is_diagonal_with_given_scales(self):
        scales = [3.0, 2.0, 1.0]
        a = make_loadings(7, 3, scales, seed=11)
        gram = a.T @ a
        np.testing.assert_allclose(gram, np.diag(scales), atol=1e-12)

    def test_deterministic_given_seed(self):
        a1 = make_loadings(6, 2, [2.0, 1.0], seed=123)
        a2 = make_loadings(6, 2, [2.0, 1.0], seed=123)
        assert np.array_equal(a1, a2)
        a3 = make_loadings(6, 2, [2.0, 1.0], seed=124)
        assert not np.array_equal(a1, a3)

    def test_zero_factors_gives_empty_matrix(self):
        assert make_loadings(5, 0, [], seed=0).shape == (5, 0)
        for seed in (1, np.random.SeedSequence(3)):
            a = make_loadings(5, 0, [], seed=seed)
            assert (a.dtype, a.shape) == (np.float64, (5, 0))

    def test_validations(self):
        with pytest.raises(ValidationError):
            make_loadings(3, 4, [4.0, 3.0, 2.0, 1.0], seed=0)  # k > p
        with pytest.raises(ValidationError):
            make_loadings(5, 2, [1.0], seed=0)  # wrong length
        with pytest.raises(ValidationError):
            make_loadings(5, 2, [1.0, 2.0], seed=0)  # increasing
        with pytest.raises(ValidationError):
            make_loadings(5, 2, [1.0, -1.0], seed=0)  # nonpositive


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("draw", [
    lambda seed: make_loadings(4, 2, [2.0, 1.0], seed),
    lambda seed: make_loadings(4, 0, [], seed),
    lambda seed: sample_factors_t(2, 5, 5.0, seed),
], ids=["make_loadings", "make_loadings-k0", "sample_factors_t"])
def test_seed_outside_64_bits_is_refused(draw, seed):
    with pytest.raises(ValidationError) as info:
        draw(seed)
    assert str(info.value) == f"seed must be a 64-bit unsigned integer, got {seed}"


class TestSampleFactorsT:
    def test_rejects_small_df(self):
        for df in (2.0, 1.0, 0.5):
            with pytest.raises(ValidationError):
                sample_factors_t(2, 10, df, seed=0)

    @pytest.mark.parametrize("k, n", [(0, 10), (2, 0)])
    def test_rejects_empty_shapes(self, k, n):
        with pytest.raises(ValidationError, match=r"^(k|n) must be an integer >= 1, got 0$"):
            sample_factors_t(k, n, 5.0, seed=0)

    def test_deterministic_given_seed(self):
        z1 = sample_factors_t(3, 50, 5.0, seed=9)
        z2 = sample_factors_t(3, 50, 5.0, seed=9)
        assert np.array_equal(z1, z2)

    def test_unit_covariance_at_large_n(self):
        z = sample_factors_t(2, 1_000_000, 5.0, seed=2718)
        cov = (z.T @ z) / z.shape[0]
        np.testing.assert_allclose(cov, np.eye(2), atol=0.02)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 7, 20000])
    @pytest.mark.parametrize("t_df", [2.5, 5.0, 30.0])
    def test_same_bytes_as_the_formula_with_temporaries(self, k, n, t_df):
        seed = np.random.SeedSequence((41, k, n))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, k))
        w = rng.chisquare(t_df, size=n)
        expected = g * np.sqrt((t_df - 2.0) / w)[:, None]
        assert sample_factors_t(k, n, t_df, seed).tobytes() == expected.tobytes()

    def test_heavy_tails_present(self):
        # Normalized t(5) has kurtosis 9, well above the Gaussian 3.
        z = sample_factors_t(1, 200_000, 5.0, seed=3)
        kurt = float(np.mean(z**4) / np.mean(z**2) ** 2)
        assert kurt > 5.0


class TestSimulationConfig:
    def test_default_scales_follow_gap(self):
        cfg = SimulationConfig(p=10, true_rank=3, n=100, reps=5, seed=1)
        assert cfg.factor_scales == (3.0, 2.0, 1.0)
        cfg2 = SimulationConfig(p=10, true_rank=2, n=100, reps=5, gap_c0=0.5, seed=1)
        assert cfg2.factor_scales == (1.0, 0.5)

    def test_rank_zero_allowed(self):
        cfg = SimulationConfig(p=4, true_rank=0, n=50, reps=2,
                               local_null_tau=0.3, seed=0)
        assert cfg.factor_scales == ()

    @pytest.mark.parametrize("kwargs", [
        {"p": 1},
        {"true_rank": -1},
        {"true_rank": 11},
        {"n": 1},
        {"reps": -2},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"t_df": 2.0},
        {"gap_c0": 0.0},
        {"seed": -1},
        {"seed": 2**64},
        {"factor_scales": (1.0,)},        # wrong length for true_rank=2
        {"factor_scales": (2.0, 1.5)},    # gap below c0 = 1
        {"local_null_tau": -0.1},
        {"factor_scales": ("3.0", 1.0)},  # entries must be numbers, not numeric text
        {"factor_scales": (True, 0.0)},
        {"factor_scales": (None, 1.0)},
        {"p": 10.5},
        {"factor_scales": (2.0, 0.0)},    # gap 2 >= c0, but a scale of 0
    ])
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(p=10, true_rank=2, n=100, reps=10, seed=0)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            SimulationConfig(**base)

    def test_tau_must_leave_room_below_leading_eigenvalues(self):
        with pytest.raises(ValidationError), pytest.warns(UserWarning, match="n=4 observations"):
            SimulationConfig(p=5, true_rank=1, n=4, reps=1,
                             local_null_tau=2.5, seed=0)  # 2.5/2 >= 1

    def test_tau_with_full_rank_rejected(self):
        with pytest.raises(ValidationError):
            SimulationConfig(p=3, true_rank=3, n=100, reps=1,
                             local_null_tau=0.1, seed=0)

    @pytest.mark.parametrize("scales", [5, 2.0, "21", np.array(3.0)])
    def test_factor_scales_that_are_not_a_sequence_are_refused(self, scales):
        with pytest.raises(ValidationError) as info:
            SimulationConfig(p=4, true_rank=1, n=20, reps=2, factor_scales=scales)
        assert str(info.value) == (
            f"factor_scales must be a sequence of real numbers, got {scales!r}")

    def test_low_df_warns_but_proceeds(self):
        with pytest.warns(UserWarning, match="fourth moments"):
            cfg = SimulationConfig(p=4, true_rank=1, n=50, reps=1, t_df=3.0, seed=0)
        assert cfg.t_df == 3.0


class TestGenerateDataset:
    def test_exact_low_rank_when_tau_zero(self):
        cfg = SimulationConfig(p=8, true_rank=3, n=200, reps=1, seed=10)
        data = generate_dataset(cfg, 0)
        lam = symmetric_eigen(sample_covariance(data)).eigenvalues
        assert np.all(lam[3:] <= 1e-10 * lam[0])

    def test_law_of_large_numbers(self):
        cfg = SimulationConfig(p=6, true_rank=2, n=1_000_000, reps=1, seed=20)
        data = generate_dataset(cfg, 0)
        cov = sample_covariance(data)
        a = make_loadings(6, 2, cfg.factor_scales, np.random.SeedSequence((20, 1)))
        target = a @ a.T
        err = np.linalg.norm(cov - target, 2) / np.linalg.norm(target, 2)
        assert err <= 0.05

    def test_local_null_population_structure(self):
        # The population spectrum is the factor scales [2, 1] followed by
        # tau / sqrt(n) = 0.5 / 20 in every trailing direction. The loadings
        # are fixed per seed, so the mean covariance over replications
        # approaches it.
        cfg = SimulationConfig(p=6, true_rank=2, n=400, reps=1,
                               local_null_tau=0.5, seed=30)
        cov = np.mean([sample_covariance(generate_dataset(cfg, r)) for r in range(250)], axis=0)
        np.testing.assert_allclose(symmetric_eigen(cov).eigenvalues,
                                   [2.0, 1.0] + [0.5 / 20.0] * 4, rtol=0.05)
        # large-n spectrum approaches the population one
        big = SimulationConfig(p=6, true_rank=2, n=200_000, reps=1,
                               local_null_tau=0.5, seed=30)
        data = generate_dataset(big, 0)
        sample_lam = symmetric_eigen(sample_covariance(data)).eigenvalues
        np.testing.assert_allclose(sample_lam[:2], [2.0, 1.0], rtol=0.05)

    def test_rank_zero_tau_only_covariance(self):
        cfg = SimulationConfig(p=4, true_rank=0, n=300_000, reps=1,
                               local_null_tau=2.0, seed=40)
        data = generate_dataset(cfg, 0)
        cov = sample_covariance(data)
        target = (2.0 / math.sqrt(cfg.n)) * np.eye(4)
        np.testing.assert_allclose(cov, target, atol=0.1 * target[0, 0])

    def test_reproducible_bytes(self):
        cfg = SimulationConfig(p=5, true_rank=2, n=64, reps=1,
                               local_null_tau=0.4, seed=77)
        d1 = generate_dataset(cfg, 3)
        d2 = generate_dataset(cfg, 3)
        assert d1.tobytes() == d2.tobytes()

    def test_replications_differ_but_share_loadings(self):
        cfg = SimulationConfig(p=7, true_rank=2, n=50, reps=1, seed=5)
        d0 = generate_dataset(cfg, 0)
        d1 = generate_dataset(cfg, 1)
        assert not np.array_equal(d0, d1)
        # same column space across replications: the stack still has rank k
        stacked = np.vstack([d0, d1])
        lam = symmetric_eigen(sample_covariance(stacked)).eigenvalues
        assert np.all(lam[2:] <= 1e-10 * lam[0])

    def test_negative_replication_rejected(self):
        cfg = SimulationConfig(p=4, true_rank=1, n=20, reps=1, seed=0)
        with pytest.raises(ValidationError):
            generate_dataset(cfg, -1)

    def test_all_zero_when_rank_zero_and_no_tau(self):
        cfg = SimulationConfig(p=4, true_rank=0, n=10, reps=1, seed=0)
        assert np.array_equal(generate_dataset(cfg, 0), np.zeros((10, 4)))

    @pytest.mark.parametrize("tau", [0.0, 0.4])
    def test_design_built_once_and_cached_datasets_match_a_cold_build(self, tau, monkeypatch):
        import covrank.dgp as dgp

        cfg = SimulationConfig(p=6, true_rank=2, n=40, reps=10, local_null_tau=tau, seed=8080)
        real = dgp.make_loadings
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dgp, "make_loadings", counting)
        dgp._design.cache_clear()
        replications = (0, 1, 4, 9)
        cached = [generate_dataset(cfg, r) for r in replications]
        assert len(calls) == 1
        for r, data in zip(replications, cached):
            dgp._design.cache_clear()
            assert generate_dataset(cfg, r).tobytes() == data.tobytes()


class TestWorkspace:
    @pytest.mark.parametrize("p", [3, 10, 20, 50])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_same_bytes_with_and_without_workspace(self, p, k, tau):
        cfg = SimulationConfig(p=p, true_rank=k, n=101, reps=3, local_null_tau=tau, seed=606)
        # Stale contents must not leak into any dataset.
        workspace = np.full((2, cfg.n, cfg.p), np.nan)
        for r in range(cfg.reps):
            expected = reference_dataset(cfg, r).tobytes()
            plain = generate_dataset(cfg, r)
            reused = generate_dataset(cfg, r, out=workspace)
            assert plain.tobytes() == expected
            assert reused.tobytes() == expected
            assert plain.base is None
            assert np.shares_memory(reused, workspace[0])

    def test_no_local_null_needs_one_half(self):
        cfg = SimulationConfig(p=5, true_rank=2, n=31, reps=1, seed=1)
        half = np.empty((1, cfg.n, cfg.p))
        assert generate_dataset(cfg, 0, out=half).tobytes() == reference_dataset(cfg, 0).tobytes()

    @pytest.mark.parametrize("make", [
        lambda n, p: np.empty((1, n, p)),
        lambda n, p: np.empty((2, n, p + 1)),
        lambda n, p: np.empty((2, n, p), dtype=np.float32),
        lambda n, p: np.empty((2, p, n)).transpose(0, 2, 1),
        lambda n, p: np.empty((n, p)),
        lambda n, p: [[[0.0] * p] * n] * 2,
    ])
    def test_bad_workspace_rejected(self, make):
        cfg = SimulationConfig(p=4, true_rank=1, n=9, reps=1, local_null_tau=0.5, seed=2)
        with pytest.raises(ValidationError, match="out must be"):
            generate_dataset(cfg, 0, out=make(cfg.n, cfg.p))
