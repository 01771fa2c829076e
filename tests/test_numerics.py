import math

import numpy as np
import pytest

from loraq import (
    AdamState,
    NumericError,
    OptimizerConfig,
    ParameterError,
    ShapeError,
    adam_step,
    cayley_retract,
    make_format,
    skew_project,
    truncated_svd,
)
from oracles import finite_diff_grad, frobenius_norm


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((4, 5))) == 0.0

    def test_pythagorean(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-15)

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        oracle = math.sqrt(float(np.sum(a * a)))
        assert frobenius_norm(a) == pytest.approx(oracle, rel=1e-12)


class TestTruncatedSvd:
    def test_diagonal_truncation(self):
        a = np.diag([5.0, 3.0, 1.0])
        l0, r0 = truncated_svd(a, 2)
        assert np.allclose(l0 @ r0, np.diag([5.0, 3.0, 0.0]), atol=1e-12)

    def test_full_rank_recovery(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 9))
        l0, r0 = truncated_svd(a, 9)
        assert np.linalg.norm(a - l0 @ r0) <= 1e-9 * np.linalg.norm(a)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(32, 24))
        l0, r0 = truncated_svd(a, 4)
        residual = np.linalg.norm(a - l0 @ r0)
        for trial in range(1000):
            if trial % 2:
                bl = rng.normal(size=l0.shape)
                br = rng.normal(size=r0.shape)
            else:
                sigma = rng.uniform(0.001, 0.5)
                bl = l0 + sigma * rng.normal(size=l0.shape)
                br = r0 + sigma * rng.normal(size=r0.shape)
            assert residual <= np.linalg.norm(a - bl @ br) + 1e-12

    def test_tail_energy_identity(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(48, 32))
        l0, r0 = truncated_svd(a, 8)
        s = np.linalg.svd(a, compute_uv=False)
        tail = math.sqrt(float(np.sum(s[8:] ** 2)))
        assert np.linalg.norm(a - l0 @ r0) == pytest.approx(tail, rel=1e-8)

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 6))
        l0, _ = truncated_svd(a, 6)
        scale = np.linalg.norm(l0, axis=0)
        u = l0 / scale
        peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert np.all(peaks > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(20, 15))
        l1, r1 = truncated_svd(a, 5)
        l2, r2 = truncated_svd(a.copy(), 5)
        assert np.array_equal(l1, l2) and np.array_equal(r1, r2)

    @pytest.mark.parametrize("rank", [0, -1, 7])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ParameterError):
            truncated_svd(np.ones((6, 8)), rank)


class TestAdam:
    def test_zero_gradient_is_noop_fresh_state(self):
        state = AdamState.for_param((3, 3))
        params = np.arange(9.0).reshape(3, 3)
        out = adam_step(state, params, np.zeros((3, 3)), 0.1)
        assert np.array_equal(out, params)
        assert state.step_count == 0

    def test_zero_gradient_is_noop_warm_state(self):
        state = AdamState.for_param((2, 2))
        params = np.ones((2, 2))
        params = adam_step(state, params, np.full((2, 2), 0.5), 0.05)
        frozen = params.copy()
        out = adam_step(state, params, np.zeros((2, 2)), 0.05)
        assert np.array_equal(out, frozen)

    def test_single_step_hand_rolled(self):
        # beta1=0.9, beta2=0.999, eps=1e-8, g=1, lr=0.1:
        # m_hat = v_hat = 1, so the step is lr / (1 + eps)
        state = AdamState.for_param((1, 1))
        params = np.array([[1.0]])
        out = adam_step(state, params, np.array([[1.0]]), 0.1)
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert out[0, 0] == pytest.approx(expected, abs=1e-15)
        assert abs((params - out)[0, 0] - 0.1) < 1e-7
        assert state.step_count == 1

    def test_converges_on_quadratic(self):
        state = AdamState.for_param((1, 1))
        x = np.array([[1.0]])
        for _ in range(1000):
            x = adam_step(state, x, 2.0 * x, 1e-2)
        assert abs(x[0, 0]) < 1e-2

    def test_nan_gradient_aborts(self):
        state = AdamState.for_param((1, 1))
        with pytest.raises(NumericError):
            adam_step(state, np.ones((1, 1)), np.array([[np.nan]]), 0.1)

    def test_step_count_increments(self):
        state = AdamState.for_param((2, 2))
        params = np.ones((2, 2))
        for expected in (1, 2, 3):
            params = adam_step(state, params, np.ones((2, 2)), 0.1)
            assert state.step_count == expected


class TestOptimizerConfig:
    @pytest.mark.parametrize("lr,steps", [
        (1e-3, 2.5), (1e-3, True), (1e-3, "3"), ("0.001", 1), (True, 1), (10**400, 1),
    ], ids=["steps 2.5", "steps True", "steps '3'", "lr '0.001'", "lr True", "lr 10**400"])
    def test_settings_must_be_numbers_of_their_kind(self, lr, steps):
        with pytest.raises(ParameterError):
            OptimizerConfig(lr, steps, make_format("SINT4"))

    def test_numpy_settings_are_kept_as_python_numbers(self):
        cfg = OptimizerConfig(np.float32(0.5), np.int64(3), make_format("SINT4"))
        assert (type(cfg.learning_rate), type(cfg.steps)) == (float, int)
        assert (cfg.learning_rate, cfg.steps) == (0.5, 3)


class TestCayley:
    def test_zero_gives_identity(self):
        assert np.array_equal(cayley_retract(np.zeros((4, 4))), np.eye(4))

    def test_2x2_closed_form(self):
        theta = 0.2
        a = np.array([[0.0, theta], [-theta, 0.0]])
        omega = cayley_retract(a)
        phi = 2.0 * math.atan(theta / 2.0)
        expected = np.array(
            [[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]
        )
        assert np.allclose(omega, expected, atol=1e-14)

    def test_orthogonal_and_special(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = skew_project(rng.normal(size=(8, 8)))
            omega = cayley_retract(a)
            assert np.linalg.norm(omega.T @ omega - np.eye(8)) <= 1e-10
            assert np.linalg.det(omega) == pytest.approx(1.0, abs=1e-10)

    def test_product_invariance(self):
        rng = np.random.default_rng(13)
        left = rng.normal(size=(10, 5))
        right = rng.normal(size=(5, 8))
        omega = cayley_retract(skew_project(rng.normal(size=(5, 5))))
        fused = (left @ omega) @ (omega.T @ right)
        base = left @ right
        assert np.linalg.norm(fused - base) <= 1e-9 * np.linalg.norm(base)

    def test_rejects_non_skew(self):
        with pytest.raises(ParameterError):
            cayley_retract(np.ones((3, 3)))


class TestFiniteDiff:
    def test_squared_frobenius(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        grad = finite_diff_grad(lambda m: float(np.sum(m * m)), x, eps=1e-6)
        assert np.allclose(grad, 2.0 * x, atol=1e-8)

    def test_trace(self):
        x = np.ones((3, 3))
        grad = finite_diff_grad(lambda m: float(np.trace(m)), x, eps=1e-6)
        assert np.allclose(grad, np.eye(3), atol=1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ParameterError):
            finite_diff_grad(lambda m: 0.0, np.ones((2, 2)), eps=0.0)
