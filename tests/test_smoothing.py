import numpy as np
import pytest

from loraq import (
    ChannelStats,
    NumericError,
    ParameterError,
    ShapeError,
    apply_smoothing,
    compute_channel_stats,
    default_migration_grid,
    fake_quant,
    grid_search_migration,
    make_format,
    smoothing_vector,
    truncated_svd,
)


class TestChannelStats:
    def test_identity(self):
        stats = compute_channel_stats(np.eye(3))
        assert stats.activation_max.tolist() == [1.0, 1.0, 1.0]
        assert stats.sample_count == 3

    def test_hand_example(self):
        stats = compute_channel_stats(np.array([[1.0, -5.0], [2.0, 3.0]]))
        assert stats.activation_max.tolist() == [2.0, 5.0]

    def test_against_column_scan(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 16))
        stats = compute_channel_stats(x)
        for i in range(16):
            expected = max(abs(x[j, i]) for j in range(100))
            assert stats.activation_max[i] == expected

    def test_rejects_no_rows(self):
        # a column maximum over no samples does not exist
        with pytest.raises(ShapeError, match="no rows"):
            compute_channel_stats(np.empty((0, 4)))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            ChannelStats(np.array([1.0, -0.5]), sample_count=1)


class TestSmoothingVector:
    def test_zero_strengths_give_ones(self):
        rng = np.random.default_rng(1)
        stats = ChannelStats(rng.uniform(0.1, 10, size=6), sample_count=4)
        w = rng.normal(size=(6, 8))
        assert np.array_equal(smoothing_vector(stats, w, 0.0, 0.0), np.ones(6))

    def test_hand_value(self):
        stats = ChannelStats(np.array([4.0]), sample_count=1)
        w = np.array([[1.0, -1.0, 0.5]])
        gamma = smoothing_vector(stats, w, 0.5, 0.5)
        assert gamma[0] == pytest.approx(2.0, rel=1e-15)

    def test_dead_channel_gets_one(self):
        stats = ChannelStats(np.array([0.0, 3.0]), sample_count=2)
        w = np.array([[1.0, 2.0], [1.0, 2.0]])
        gamma = smoothing_vector(stats, w, 0.7, 0.3)
        assert gamma[0] == 1.0
        assert gamma[1] != 1.0

    def test_zero_weight_row_gets_one(self):
        stats = ChannelStats(np.array([2.0, 2.0]), sample_count=2)
        w = np.array([[0.0, 0.0], [1.0, 2.0]])
        gamma = smoothing_vector(stats, w, 0.5, 0.5)
        assert gamma[0] == 1.0

    @pytest.mark.parametrize("act_max, row_max", [(1e300, 1e-300), (1e-300, 1e300)],
                             ids=["overflow", "underflow"])
    def test_scale_outside_the_float_range_is_a_numeric_error(self, act_max, row_max):
        # inputs in range, but act_max / row_max is not a positive float64
        stats = ChannelStats(np.array([2.0, act_max]), sample_count=1)
        w = np.array([[1.0, -1.0], [row_max, 0.0]])
        with pytest.raises(NumericError, match=r"strengths \(1\.0, 1\.0\)"):
            smoothing_vector(stats, w, 1.0, 1.0)

    def test_strength_bounds(self):
        stats = ChannelStats(np.array([1.0]), sample_count=1)
        with pytest.raises(ParameterError):
            smoothing_vector(stats, np.ones((1, 2)), 1.5, 0.0)

    def test_monotone_statistic_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 8))
        w = rng.normal(size=(8, 12))
        for alpha in (0.0, 0.3, 1.0):
            g1 = smoothing_vector(compute_channel_stats(x), w, alpha, 0.4)
            g2 = smoothing_vector(compute_channel_stats(3.0 * x), w, alpha, 0.4)
            assert np.allclose(g2, g1 * 3.0 ** alpha, rtol=1e-12)
        s1 = compute_channel_stats(x)
        s2 = compute_channel_stats(3.0 * x)
        assert np.allclose(s2.activation_max, 3.0 * s1.activation_max, rtol=1e-15)


class TestApplySmoothing:
    def test_ones_is_noop(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 7))
        assert np.array_equal(apply_smoothing(w, np.ones(5)), w)

    def test_hand_scaling(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        gamma = np.array([2.0, 0.5])
        out = apply_smoothing(w, gamma)
        assert out.tolist() == [[2.0, 4.0], [1.5, 2.0]]
        x = np.array([[1.0, 1.0], [0.5, -2.0]])
        assert np.allclose((x / gamma) @ out, x @ w, atol=1e-12)

    def test_product_invariance_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=(9, 6))
            w = rng.normal(size=(6, 11))
            gamma = rng.uniform(0.05, 20.0, size=6)
            lhs = (x / gamma[None, :]) @ apply_smoothing(w, gamma)
            rhs = x @ w
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            apply_smoothing(np.ones((2, 2)), np.array([1.0, 0.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ShapeError):
            apply_smoothing(np.ones((2, 2)), np.ones(3))


def _outlier_instance(seed=0, scale=100.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, 32))
    x[:, 0] *= scale
    w = rng.normal(size=(32, 24))
    return x, w


class TestGridSearch:
    def test_singleton_grid(self):
        x, w = _outlier_instance()
        res = grid_search_migration(x, w, [(0.0, 0.0)], 8, make_format("SINT4"))
        assert (res.alpha_mig, res.beta_mig) == (0.0, 0.0)
        assert np.array_equal(res.gamma, np.ones(32))

    def test_outlier_channel_prefers_migration(self):
        x, w = _outlier_instance()
        res = grid_search_migration(
            x, w, default_migration_grid(), 8, make_format("SINT4")
        )
        assert (res.alpha_mig, res.beta_mig) != (0.0, 0.0)

    def test_score_matches_reevaluation_oracle(self):
        q1 = make_format("SINT4")
        for seed in range(3):
            rng = np.random.default_rng(seed + 10)
            x = rng.normal(size=(20, 16))
            w = rng.normal(size=(16, 12))
            grid = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.2)]
            res = grid_search_migration(x, w, grid, 4, q1)

            def score_of(alpha, beta):
                stats = compute_channel_stats(x)
                gamma = smoothing_vector(stats, w, alpha, beta)
                ws = apply_smoothing(w, gamma)
                xs = x / gamma[None, :]
                l0, r0 = truncated_svd(ws, 4)
                w_hat = l0 @ r0 + fake_quant(ws - l0 @ r0, q1)
                return float(np.mean((xs @ w_hat - x @ w) ** 2))

            scores = [score_of(a, b) for a, b in grid]
            assert res.search_score == pytest.approx(min(scores), rel=1e-12)
            assert (res.alpha_mig, res.beta_mig) == grid[int(np.argmin(scores))]

    def test_returned_score_not_beaten_by_any_member(self):
        x, w = _outlier_instance(seed=5)
        q1 = make_format("MXINT4")
        grid = default_migration_grid()[::7]
        res = grid_search_migration(x, w, grid, 8, q1)
        stats = compute_channel_stats(x)
        for alpha, beta in grid:
            gamma = smoothing_vector(stats, w, alpha, beta)
            ws = apply_smoothing(w, gamma)
            xs = x / gamma[None, :]
            l0, r0 = truncated_svd(ws, 8)
            w_hat = l0 @ r0 + fake_quant(ws - l0 @ r0, q1)
            score = float(np.mean((xs @ w_hat - x @ w) ** 2))
            assert res.search_score <= score + 1e-18

    def test_points_that_overflow_are_skipped(self):
        # gamma at (0.1, 1.0) overflows; (0, 0) gives gamma = 1
        rng = np.random.default_rng(31)
        x = rng.normal(size=(16, 32)) * 1e300
        w = rng.normal(size=(32, 24)) * 1e-300
        res = grid_search_migration(x, w, [(0.1, 1.0), (0.0, 0.0)], 4,
                                    make_format("SINT4"))
        assert (res.alpha_mig, res.beta_mig) == (0.0, 0.0)
        assert np.isfinite(res.search_score)

    def test_no_finite_score_is_a_numeric_error(self):
        # every product overflows, so no point scores
        rng = np.random.default_rng(31)
        x = rng.normal(size=(16, 32)) * 1e200
        w = rng.normal(size=(32, 24)) * 1e200
        with pytest.raises(NumericError, match="no migration strengths of the 3-point"):
            grid_search_migration(x, w, [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], 4,
                                  make_format("SINT4"))

    def test_empty_grid_rejected(self):
        x, w = _outlier_instance()
        with pytest.raises(ParameterError):
            grid_search_migration(x, w, [], 4, make_format("SINT4"))

    def test_default_grid_is_11_by_11(self):
        grid = default_migration_grid()
        assert len(grid) == 121
        assert grid[0] == (0.0, 0.0)
        assert grid[-1] == (1.0, 1.0)
