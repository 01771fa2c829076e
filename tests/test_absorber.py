import tracemalloc

import numpy as np
import pytest

from loraq import formats
from loraq import (
    PASSTHROUGH,
    AdamState,
    NumericError,
    OptimizerConfig,
    ParameterError,
    ShapeError,
    adam_step,
    fake_quant,
    init_factors,
    make_format,
    optimize_factors,
    truncated_svd,
)
from oracles import absorption_grads, absorption_loss, finite_diff_grad, int_test_format


class TestInitFactors:
    def test_diagonal_residual(self):
        w = np.diag([5.0, 3.0, 1.0])
        left, right = init_factors(w, 2)
        assert np.allclose(w - left @ right, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_full_rank_residual_vanishes(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(10, 7))
        left, right = init_factors(w, 7)
        assert np.linalg.norm(w - left @ right) <= 1e-9 * np.linalg.norm(w)

    def test_residual_equals_tail_energy(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(48, 32))
        left, right = init_factors(w, 8)
        s = np.linalg.svd(w, compute_uv=False)
        tail = np.sqrt(np.sum(s[8:] ** 2))
        residual = np.linalg.norm(w - left @ right)
        assert residual == pytest.approx(tail, rel=1e-8)

    def test_returns_the_truncated_svd_pair(self):
        # the branch starts as the truncated-SVD pair itself, bit for bit
        w = np.random.default_rng(21).normal(size=(9, 6))
        left, right = init_factors(w, 3)
        l0, r0 = truncated_svd(w, 3)
        assert (left.tobytes(), right.tobytes()) == (l0.tobytes(), r0.tobytes())
        assert (left.shape, right.shape) == ((9, 3), (3, 6))


class TestAbsorptionLoss:
    def test_identity_quantizer_gives_zero(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(6, 8))
        f = init_factors(w, 2)
        assert absorption_loss(w, f, PASSTHROUGH) == 0.0

    def test_zero_factors_reduce_to_plain_error(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 8))
        spec = int_test_format(4, 4)
        f = (np.zeros((4, 2)), np.zeros((2, 8)))
        expected = float(np.mean((fake_quant(w, spec) - w) ** 2))
        assert absorption_loss(w, f, spec) == pytest.approx(expected, rel=1e-14)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(4, 4))
        spec = int_test_format(4, 4)
        f = left, right = init_factors(w, 1)
        branch = left @ right
        q = fake_quant(w - branch, spec)
        oracle = 0.0
        for i in range(4):
            for j in range(4):
                oracle += (q[i, j] - (w[i, j] - branch[i, j])) ** 2
        oracle /= 16.0
        assert absorption_loss(w, f, spec) == pytest.approx(oracle, rel=1e-12)


class TestAbsorptionGrads:
    def test_zero_error_gives_zero_grads(self):
        spec = int_test_format(4, 4)
        # a matrix already on the grid with zero factors has no error
        w = fake_quant(np.random.default_rng(5).normal(size=(4, 8)), spec)
        f = (np.zeros((4, 2)), np.zeros((2, 8)))
        gl, gr = absorption_grads(w, f, spec)
        assert not gl.any() and not gr.any()

    def test_identity_quantizer_gives_zero_grads(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(5, 7))
        f = init_factors(w, 2)
        gl, gr = absorption_grads(w, f, PASSTHROUGH)
        assert not gl.any() and not gr.any()

    def test_matches_frozen_finite_differences(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(8, 6))
        spec = int_test_format(4, 4)
        f = left0, right0 = init_factors(w, 2)
        gl, gr = absorption_grads(w, f, spec)

        # freeze the quantizer output at the base point
        frozen = fake_quant(w - left0 @ right0, spec)

        def loss_wrt_left(left):
            return float(np.mean((frozen - (w - left @ right0)) ** 2))

        def loss_wrt_right(right):
            return float(np.mean((frozen - (w - left0 @ right)) ** 2))

        fd_l = finite_diff_grad(loss_wrt_left, left0, eps=1e-6)
        fd_r = finite_diff_grad(loss_wrt_right, right0, eps=1e-6)
        assert np.linalg.norm(gl - fd_l) <= 1e-5 * np.linalg.norm(fd_l)
        assert np.linalg.norm(gr - fd_r) <= 1e-5 * np.linalg.norm(fd_r)


class TestOptimizeFactors:
    def test_zero_steps_returns_init(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(12, 10))
        spec = make_format("SINT4")
        cfg = OptimizerConfig(1e-4, 0, spec)
        factors, trace = optimize_factors(w, init_factors(w, 3), cfg)
        ref = init_factors(w, 3)
        assert np.array_equal(factors[0], ref[0])
        assert np.array_equal(factors[1], ref[1])
        assert len(trace) == 1
        assert trace[0] == absorption_loss(w, ref, spec)

    def test_best_never_worse_than_init(self):
        rng = np.random.default_rng(9)
        spec = make_format("MXINT4")
        for seed in range(5):
            w = np.random.default_rng(seed).normal(size=(24, 16))
            cfg = OptimizerConfig(1e-3, 50, spec)
            factors, trace = optimize_factors(w, init_factors(w, 4), cfg)
            assert absorption_loss(w, factors, spec) <= trace[0] + 1e-18

    def test_keep_best_returns_min_of_trace(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(16, 12))
        spec = make_format("MXFP4e2")
        cfg = OptimizerConfig(1e-2, 40, spec)
        factors, trace = optimize_factors(w, init_factors(w, 4), cfg)
        assert absorption_loss(w, factors, spec) == pytest.approx(min(trace), rel=1e-12)

    def test_trace_length_is_steps_plus_one(self):
        w = np.random.default_rng(11).normal(size=(8, 8))
        cfg = OptimizerConfig(1e-4, 17, make_format("SINT4"))
        _, trace = optimize_factors(w, init_factors(w, 2), cfg)
        assert len(trace) == 18

    def test_improves_on_svd_init(self):
        spec = make_format("SINT4")
        wins = 0
        for seed in range(5):
            w = np.random.default_rng(seed).normal(size=(64, 48))
            cfg = OptimizerConfig(1e-4, 300, spec)
            _, trace = optimize_factors(w, init_factors(w, 8), cfg)
            if min(trace) < trace[0]:
                wins += 1
        assert wins >= 4

    def test_deterministic(self):
        w = np.random.default_rng(12).normal(size=(16, 16))
        cfg = OptimizerConfig(1e-3, 25, make_format("MXINT4"))
        f1, t1 = optimize_factors(w, init_factors(w, 4), cfg)
        f2, t2 = optimize_factors(w, init_factors(w, 4), cfg)
        assert np.array_equal(f1[0], f2[0])
        assert np.array_equal(f1[1], f2[1])
        assert t1 == t2

    def test_first_step_uses_absorption_grads(self):
        w = np.random.default_rng(15).normal(size=(12, 16))
        spec = make_format("MXINT4")
        init = init_factors(w, 3)
        gl, gr = absorption_grads(w, init, spec)
        left = adam_step(AdamState.for_param(gl.shape), init[0], gl, 1e-2)
        right = adam_step(AdamState.for_param(gr.shape), init[1], gr, 1e-2)
        stepped = (left, right)
        _, trace = optimize_factors(w, init, OptimizerConfig(1e-2, 1, spec))
        assert trace[1] == absorption_loss(w, stepped, spec)

    def test_factor_shape_must_match_weight(self):
        w = np.ones((6, 5))
        with pytest.raises(ShapeError):
            optimize_factors(w, init_factors(np.ones((5, 6)), 2),
                             OptimizerConfig(1e-3, 1, make_format("SINT4")))

    @pytest.mark.parametrize("left, right, error", [
        (np.ones((6, 2)), np.ones((3, 5)), ShapeError),  # inner dimensions differ
        (np.ones(6), np.ones((1, 5)), ShapeError),  # a factor that is not 2-D
        (np.full((6, 2), np.nan), np.ones((2, 5)), NumericError),
    ])
    def test_start_is_checked(self, left, right, error):
        with pytest.raises(error):
            optimize_factors(np.ones((6, 5)), (left, right),
                             OptimizerConfig(1e-3, 1, make_format("SINT4")))

    def test_divergence_aborts_with_diagnostic(self):
        w = np.random.default_rng(13).normal(size=(8, 8))
        cfg = OptimizerConfig(1e150, 50, make_format("SINT4"))
        with pytest.raises(NumericError) as info:
            optimize_factors(w, init_factors(w, 2), cfg)
        assert info.value.last_iterate is not None
        assert len(info.value.trace) >= 1

    @pytest.mark.parametrize("steps", [0, 1])
    def test_overflowing_shift_names_its_step(self, steps):
        # finite factors whose product overflows: at the start, or after
        # one Adam step of about lr per entry
        w = np.random.default_rng(19).normal(size=(8, 8))
        size, lr = (1e200, 1e-3) if steps == 0 else (1.0, 1e200)
        start = (np.full((8, 2), size), np.full((2, 8), size))
        with pytest.raises(NumericError) as info:
            optimize_factors(w, start, OptimizerConfig(lr, 3, make_format("SINT4")))
        assert str(info.value) == f"residual weight became non-finite at step {steps}"
        assert len(info.value.trace) == steps
        best_left, best_right = info.value.last_iterate
        if steps == 0:  # the start's own arrays
            assert best_left is start[0] and best_right is start[1]
        else:  # the best iterate so far, a copy of the start
            assert np.array_equal(best_left, start[0])

    def test_shifted_weight_is_checked_once_per_iterate(self, monkeypatch):
        w = np.random.default_rng(20).normal(size=(20, 72))
        init = init_factors(w, 3)
        isfinite = np.isfinite
        checked = []

        def counting(a, *args, **kwargs):
            if np.shape(a) == w.shape:
                checked.append(a)
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        optimize_factors(w, init, OptimizerConfig(1e-3, 4, make_format("SINT4")))
        # the weight on entry, then one check per iterate: the start and 4 steps
        assert len(checked) == 1 + 5

    @pytest.mark.parametrize("name", ["SINT4", "MXFP4e2"])
    def test_trace_is_the_absorption_loss_bit_for_bit(self, name):
        # 72 columns, so the quantizer's rows end in a padded block
        w = np.random.default_rng(16).standard_t(df=4, size=(20, 72))
        spec = make_format(name)
        init = init_factors(w, 3)
        factors, trace = optimize_factors(w, init, OptimizerConfig(1e-3, 6, spec))
        assert trace[0] == absorption_loss(w, init, spec)
        assert min(trace) == absorption_loss(w, factors, spec)

    @pytest.mark.parametrize("name", ["SINT4", "MXFP4e2"])
    def test_work_buffers_are_allocated_once(self, monkeypatch, name):
        # numpy reports its buffers to tracemalloc.  The loop's d x n work is
        # two float64 buffers and a boolean one; with small row groups every
        # other temporary is far smaller, so one more d x n temporary per
        # iterate would push the peak past 3 * d * n * 8 bytes, and one kept
        # per iterate would make the 8-step peak exceed the 2-step one.
        monkeypatch.setattr(formats, "_GROUP_VALUES", 1 << 12)
        w = np.random.default_rng(17).standard_t(df=5, size=(512, 256))
        init = init_factors(w, 8)
        peaks = {}
        for steps in (2, 8):
            tracemalloc.start()
            try:
                optimize_factors(w, init, OptimizerConfig(1e-3, steps, make_format(name)))
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[8] - peaks[2]) <= 0.01 * w.nbytes
        assert peaks[8] <= 3 * w.nbytes

    def test_config_validation(self):
        spec = make_format("SINT4")
        with pytest.raises(ParameterError):
            OptimizerConfig(0.0, 10, spec)
        with pytest.raises(ParameterError):
            OptimizerConfig(1e-4, -1, spec)


class TestReconstructionIdentity:
    def test_loss_ties_to_inference_error(self):
        # the deployed weight is Q(W - L R) + L R, and its error equals
        # the optimization error exactly
        rng = np.random.default_rng(14)
        w = rng.normal(size=(16, 12))
        spec = make_format("MXINT4")
        cfg = OptimizerConfig(1e-3, 30, spec)
        factors, _ = optimize_factors(w, init_factors(w, 4), cfg)
        branch = factors[0] @ factors[1]
        w_hat = fake_quant(w - branch, spec) + branch
        loss = absorption_loss(w, factors, spec)
        assert loss * w.size == pytest.approx(np.linalg.norm(w_hat - w) ** 2, rel=1e-10)
