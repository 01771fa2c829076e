import numpy as np
import pytest

from loraq import (
    AdamState,
    ParameterError,
    RotationConfig,
    SkewParam,
    adam_step,
    cayley_retract,
    fake_quant,
    finite_diff_grad,
    fuse_rotation,
    int_test_format,
    make_format,
    optimize_rotation,
    rotation_grad,
    rotation_loss,
    skew_project,
)
from loraq import rotation


def _random_rotation(rng, size):
    return cayley_retract(skew_project(rng.normal(size=(size, size))))


class TestRotationLoss:
    def test_on_grid_factors_give_zero(self):
        spec = int_test_format(4, 4)
        rng = np.random.default_rng(0)
        left = fake_quant(rng.normal(size=(8, 4)), spec)
        right = fake_quant(rng.normal(size=(4, 8)), spec)
        assert rotation_loss(left, right, np.eye(4), spec) == 0.0

    def test_identity_reduces_to_plain_mse(self):
        spec = make_format("MXFP4e2")
        rng = np.random.default_rng(1)
        left = rng.normal(size=(16, 4))
        right = rng.normal(size=(4, 12))
        expected = float(
            np.mean((fake_quant(left, spec) - left) ** 2)
            + np.mean((fake_quant(right, spec) - right) ** 2)
        )
        assert rotation_loss(left, right, np.eye(4), spec) == pytest.approx(
            expected, rel=1e-14
        )

    def test_matches_elementwise_oracle(self):
        spec = int_test_format(4, 4)
        rng = np.random.default_rng(2)
        left = rng.normal(size=(16, 4))
        right = rng.normal(size=(4, 12))
        omega = _random_rotation(rng, 4)
        lo = left @ omega
        ro = omega.T @ right
        qlo = fake_quant(lo, spec)
        qro = fake_quant(ro, spec)
        oracle = 0.0
        for i in range(16):
            for j in range(4):
                oracle += (qlo[i, j] - lo[i, j]) ** 2 / lo.size
        for i in range(4):
            for j in range(12):
                oracle += (qro[i, j] - ro[i, j]) ** 2 / ro.size
        assert rotation_loss(left, right, omega, spec) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ParameterError):
            rotation_loss(np.ones((4, 2)), np.ones((2, 4)), np.ones((2, 2)) * 0.9,
                          int_test_format(4, 4))


class TestRotationGrad:
    def test_zero_factors_give_zero_grad(self):
        spec = int_test_format(4, 4)
        grad = rotation_grad(np.zeros((6, 3)), np.zeros((3, 6)),
                             SkewParam.zeros(3), spec)
        assert not grad.any()

    def test_exactly_skew(self):
        spec = make_format("MXFP4e2")
        rng = np.random.default_rng(3)
        left = rng.normal(size=(32, 4))
        right = rng.normal(size=(4, 32))
        grad = rotation_grad(left, right, SkewParam(rng.normal(size=(4, 4))), spec)
        assert np.array_equal(grad, -grad.T)

    def test_matches_frozen_finite_differences_at_zero(self):
        spec = int_test_format(4, 4)
        rng = np.random.default_rng(4)
        left = rng.normal(size=(12, 4))
        right = rng.normal(size=(4, 10))
        grad = rotation_grad(left, right, SkewParam.zeros(4), spec)

        frozen_l = fake_quant(left, spec)
        frozen_r = fake_quant(right, spec)

        def frozen_loss(a):
            omega = cayley_retract(skew_project(a))
            lo = left @ omega
            ro = omega.T @ right
            return float(
                np.mean((frozen_l - lo) ** 2) + np.mean((frozen_r - ro) ** 2)
            )

        fd = finite_diff_grad(frozen_loss, np.zeros((4, 4)), eps=1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_matches_frozen_finite_differences_away_from_zero(self):
        spec = make_format("MXFP8e4")
        rng = np.random.default_rng(5)
        left = rng.normal(size=(16, 5))
        right = rng.normal(size=(5, 14))
        base = skew_project(rng.normal(size=(5, 5)) * 0.3)
        grad = rotation_grad(left, right, SkewParam(base), spec)

        omega0 = cayley_retract(base)
        frozen_l = fake_quant(left @ omega0, spec)
        frozen_r = fake_quant(omega0.T @ right, spec)

        def frozen_loss(a):
            omega = cayley_retract(skew_project(a))
            lo = left @ omega
            ro = omega.T @ right
            return float(
                np.mean((frozen_l - lo) ** 2) + np.mean((frozen_r - ro) ** 2)
            )

        fd = finite_diff_grad(frozen_loss, base, eps=1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)


class TestOptimizeRotation:
    def test_zero_steps_gives_identity(self):
        rng = np.random.default_rng(6)
        left = rng.normal(size=(8, 3))
        right = rng.normal(size=(3, 8))
        omega, trace = optimize_rotation(
            left, right, RotationConfig(1e-1, 0, make_format("MXFP4e2"))
        )
        assert np.array_equal(omega, np.eye(3))
        assert len(trace) == 1

    def test_never_worse_than_identity(self):
        spec = make_format("MXFP4e2")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            left = rng.normal(size=(24, 6))
            right = rng.normal(size=(6, 20))
            omega, trace = optimize_rotation(left, right, RotationConfig(1e-1, 60, spec))
            final = rotation_loss(left, right, omega, spec)
            identity = rotation_loss(left, right, np.eye(6), spec)
            assert final <= identity + 1e-18
            assert identity == pytest.approx(trace[0], rel=1e-14)

    def test_usually_strictly_improves(self):
        spec = make_format("MXFP4e2")
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            left = rng.normal(size=(32, 8))
            right = rng.normal(size=(8, 24))
            _, trace = optimize_rotation(left, right, RotationConfig(1e-1, 120, spec))
            if min(trace) < trace[0]:
                wins += 1
        assert wins >= 4

    def test_returned_rotation_is_orthogonal(self):
        rng = np.random.default_rng(7)
        left = rng.normal(size=(16, 4))
        right = rng.normal(size=(4, 16))
        omega, _ = optimize_rotation(
            left, right, RotationConfig(5e-1, 40, make_format("SINT4"))
        )
        assert np.linalg.norm(omega.T @ omega - np.eye(4)) <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        left = rng.normal(size=(12, 4))
        right = rng.normal(size=(4, 12))
        cfg = RotationConfig(1e-1, 30, make_format("MXINT4"))
        o1, t1 = optimize_rotation(left, right, cfg)
        o2, t2 = optimize_rotation(left, right, cfg)
        assert np.array_equal(o1, o2)
        assert t1 == t2


def _reference_rotation(left, right, cfg):
    """The rotation loop written from the public loss and gradient alone."""
    rank = left.shape[1]
    skew = SkewParam.zeros(rank)
    state = AdamState.for_param((rank, rank))
    best_omega = np.eye(rank)
    trace = [rotation_loss(left, right, best_omega, cfg.quantizer)]
    for _ in range(cfg.steps):
        grad = rotation_grad(left, right, skew, cfg.quantizer)
        skew.assign(adam_step(state, skew.matrix, grad, cfg.learning_rate))
        omega = cayley_retract(skew)
        trace.append(rotation_loss(left, right, omega, cfg.quantizer))
        if trace[-1] < min(trace[:-1]):
            best_omega = omega
    return best_omega, trace


class TestRotationLoop:
    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_one_retraction_and_two_quantizations_per_iterate(self, monkeypatch, steps):
        calls = {"fake_quant": 0, "cayley_retract": 0}
        for name in calls:
            original = getattr(rotation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(rotation, name, counted)
        rng = np.random.default_rng(12)
        optimize_rotation(rng.normal(size=(16, 4)), rng.normal(size=(4, 12)),
                          RotationConfig(1e-1, steps, make_format("MXFP4e2")))
        assert calls == {"fake_quant": 2 * (steps + 1), "cayley_retract": steps + 1}

    @pytest.mark.parametrize("name", ["SINT4", "MXINT4", "MXFP4e2", "MXFP8e4"])
    def test_bit_identical_to_reference_loop(self, name):
        rng = np.random.default_rng(13)
        left = rng.normal(size=(40, 6))
        right = rng.normal(size=(6, 36))
        cfg = RotationConfig(1e-1, 25, make_format(name))
        omega, trace = optimize_rotation(left, right, cfg)
        ref_omega, ref_trace = _reference_rotation(left, right, cfg)
        assert np.array_equal(omega.view(np.uint64), ref_omega.view(np.uint64))
        assert np.array_equal(np.array(trace).view(np.uint64),
                              np.array(ref_trace).view(np.uint64))


class TestFuseRotation:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(9)
        left = rng.normal(size=(6, 3))
        right = rng.normal(size=(3, 6))
        fused_l, fused_r = fuse_rotation(left, right, np.eye(3))
        assert np.array_equal(fused_l, left)
        assert np.array_equal(fused_r, right)

    def test_product_invariance(self):
        rng = np.random.default_rng(10)
        left = rng.normal(size=(20, 6))
        right = rng.normal(size=(6, 16))
        omega = _random_rotation(rng, 6)
        fused_l, fused_r = fuse_rotation(left, right, omega)
        base = left @ right
        assert np.linalg.norm(fused_l @ fused_r - base) <= 1e-9 * np.linalg.norm(base)

    def test_quarter_turn_hand_case(self):
        # rotation by pi/2 maps the identity's columns onto each other
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        left = np.eye(2)
        right = np.eye(2)
        fused_l, fused_r = fuse_rotation(left, right, omega)
        assert np.array_equal(fused_l, omega)
        assert np.array_equal(fused_r, omega.T)
        assert np.allclose(fused_l @ fused_r, np.eye(2), atol=1e-15)

    def test_skew_projection_idempotent(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(5, 5))
        once = skew_project(g)
        assert np.array_equal(skew_project(once), once)
