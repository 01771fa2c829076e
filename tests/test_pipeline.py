import dataclasses
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from loraq import (
    PASSTHROUGH,
    BudgetError,
    FormatError,
    ErrorReport,
    NumericError,
    ParameterError,
    RankCapWarning,
    ShapeError,
    ablate_layer,
    add_dequantized,
    assemble_layer,
    compute_channel_stats,
    default_absorb_lr,
    default_rotation_lr,
    dequantize,
    error_report,
    fake_quant,
    forward,
    init_factors,
    make_format,
    pipeline,
    quantize_blockwise,
    rank_for_budget,
    reconstruct_weight,
    registry_names,
    save_bundle,
    truncated_svd,
    weight_error,
)


def save_bytes(bundle) -> bytes:
    """The exact bytes ``save_bundle`` writes for a bundle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.lrqb")
        save_bundle(path, bundle)
        with open(path, "rb") as fh:
            return fh.read()


class TestRankForBudget:
    def test_svdquant_equivalent_budget(self):
        assert rank_for_budget(512, 16) == 32

    def test_four_bit_budget(self):
        assert rank_for_budget(512, 4) == 128

    def test_six_bit_floor(self):
        assert rank_for_budget(512, 6) == 85

    def test_too_small_budget(self):
        with pytest.raises(BudgetError):
            rank_for_budget(3, 4)

    def test_bad_bits(self):
        with pytest.raises(ParameterError):
            rank_for_budget(512, 5)


class TestDefaults:
    def test_absorb_lr_by_family(self):
        assert default_absorb_lr(make_format("SINT4")) == 1e-4
        assert default_absorb_lr(make_format("MXINT4")) == 1e-4
        assert default_absorb_lr(make_format("MXINT8")) == 1e-4
        assert default_absorb_lr(make_format("MXFP4e2")) == 1e-3
        assert default_absorb_lr(make_format("MXFP6e2")) == 1e-3
        assert default_absorb_lr(make_format("MXFP8e4")) == 1e-3

    def test_rotation_lr_by_family(self):
        assert default_rotation_lr(make_format("SINT4")) == 5e-1
        for name in ("MXINT4", "MXINT8", "MXFP4e2", "MXFP6e2", "MXFP8e4"):
            assert default_rotation_lr(make_format(name)) == 1e-1


def _quick(w, q1, q2, **kwargs):
    kwargs.setdefault("absorb_steps", 30)
    kwargs.setdefault("rotation_steps", 20)
    return assemble_layer(w, q1, q2, **kwargs)


class TestAssembleLayer:
    def test_full_rank_passthrough_is_exact(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(12, 10))
        b = _quick(w, PASSTHROUGH, PASSTHROUGH, rank=10, optimized_lr=False,
                   rotations=False)
        assert np.linalg.norm(reconstruct_weight(b) - w) <= 1e-12 * np.linalg.norm(w)

    def test_equality_compares_the_bytes_of_the_tensors(self):
        b = _quick(np.random.default_rng(3).normal(size=(6, 5)), make_format("SINT4"),
                   PASSTHROUGH, rank=2, optimized_lr=False, rotations=False)
        bundles = []
        for zero in (0.0, -0.0):
            left = dequantize(b.lowrank_left)
            left[0, 0] = zero
            bundles.append(dataclasses.replace(
                b, lowrank_left=quantize_blockwise(left, PASSTHROUGH)))
        assert bundles[0] != bundles[1]
        assert bundles[1] == dataclasses.replace(bundles[1])

    def test_svdquant_style_baseline(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(70, 40))
        q1 = make_format("SINT4")
        b = assemble_layer(w, q1, PASSTHROUGH, rank=32, optimized_lr=False,
                           rotations=False)
        l0, r0 = truncated_svd(w, 32)
        branch = dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
        assert np.allclose(branch, l0 @ r0, atol=1e-12)
        expected = fake_quant(w - l0 @ r0, q1) + l0 @ r0
        assert np.allclose(reconstruct_weight(b), expected, atol=1e-12)

    def test_zero_weight_reconstructs_to_zero(self):
        b = _quick(np.zeros((8, 8)), make_format("SINT4"), make_format("SINT4"),
                   rank=2, optimized_lr=False, rotations=False)
        assert np.all(reconstruct_weight(b) == 0.0)

    def test_rank_capped_with_warning(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(64, 48))
        with pytest.warns(RankCapWarning):
            b = _quick(w, make_format("SINT4"), make_format("SINT4"), budget=512,
                       optimized_lr=False, rotations=False)
        assert b.meta.rank == 48
        assert b.meta.rank_requested == 128

    @pytest.mark.parametrize("shape", [(0, 0), (0, 8), (8, 0)])
    def test_empty_weight_is_a_shape_error(self, shape):
        # refused before the rank is capped to the empty dimension
        q = make_format("SINT4")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankCapWarning)
            with pytest.raises(ShapeError, match="weight has no rows or no columns"):
                assemble_layer(np.empty(shape), q, q, budget=512)

    @pytest.mark.parametrize("name", ["residual", "lowrank_left", "lowrank_right"])
    def test_tensor_format_must_match_the_manifest(self, name):
        w = np.random.default_rng(8).normal(size=(8, 64))
        q = make_format("SINT4")
        b = _quick(w, q, q, rank=2, optimized_lr=False, rotations=False)
        other = quantize_blockwise(dequantize(getattr(b, name)), make_format("MXINT4"))
        with pytest.raises(FormatError, match="MXINT4"):
            dataclasses.replace(b, **{name: other})

    def test_budget_xor_rank(self):
        w = np.ones((4, 4))
        q = make_format("SINT4")
        with pytest.raises(ParameterError):
            assemble_layer(w, q, q)
        with pytest.raises(ParameterError):
            assemble_layer(w, q, q, budget=512, rank=2)

    @pytest.mark.parametrize("setting", [
        {"rank": 2.5}, {"rank": True}, {"budget": 64.0}, {"seed": 1.5},
        {"absorb_steps": 2.0}, {"rotation_steps": 1.0}, {"absorb_lr": "0.001"},
        {"rotation_lr": True},
    ], ids=repr)
    def test_numeric_settings_must_be_numbers_of_their_kind(self, setting):
        w = np.random.default_rng(8).normal(size=(8, 8))
        q = make_format("SINT4")
        kwargs = setting if "budget" in setting else {"rank": 2, **setting}
        with pytest.raises(ParameterError):
            assemble_layer(w, q, q, **kwargs)

    def test_numpy_integer_settings_are_stored_as_ints(self):
        w = np.random.default_rng(9).normal(size=(8, 40))
        q = make_format("SINT4")
        steps = dict(absorb_steps=2, rotation_steps=1)
        for size in ({"rank": 2}, {"budget": 8}):
            wide = {key: np.int64(value) for key, value in size.items()}
            got = assemble_layer(w, q, q, seed=np.int64(3), **wide,
                                 **{k: np.int64(v) for k, v in steps.items()})
            plain = assemble_layer(w, q, q, seed=3, **size, **steps)
            meta = got.meta
            assert all(type(v) is int for v in (meta.rank, meta.rank_requested, meta.seed))
            assert save_bytes(got) == save_bytes(plain)

    def test_deterministic_bundles(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(40, 40))
        kwargs = dict(rank=8, seed=7, absorb_steps=40, rotation_steps=25)
        q1, q2 = make_format("MXINT4"), make_format("MXFP4e2")
        assert assemble_layer(w, q1, q2, **kwargs) == assemble_layer(w, q1, q2, **kwargs)

    def test_meta_records_losses(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(32, 32))
        b = _quick(w, make_format("MXINT4"), make_format("MXINT4"), rank=4)
        assert b.meta.absorb["best_loss"] <= b.meta.absorb["init_loss"]
        assert b.meta.rotation["best_loss"] <= b.meta.rotation["init_loss"]
        assert b.meta.lowrank_q2_mse >= 0.0

    def test_budget_accounting(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(64, 64))
        b = _quick(w, make_format("SINT4"), make_format("MXFP4e2"), budget=256,
                   optimized_lr=False, rotations=False)
        acc = b.meta.budget_accounting()
        assert b.meta.rank == 64
        assert acc["payload_bits_per_channel"] == 64 * 4
        assert acc["payload_bits_per_channel"] <= 256
        assert acc["budget_bits_per_channel"] == 256
        # 64-value rows in 32-value blocks: 2 e8m0 scale bytes per row
        assert acc["scale_bits_per_channel_left"] == 2 * 8
        assert acc["total_scale_bits"] == (64 * 2 + 64 * 2) * 8


    def test_act_format_is_recorded_and_changes_no_weight(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(16, 24))
        q = make_format("SINT4")
        plain = assemble_layer(w, q, q, rank=2, absorb_steps=3, rotation_steps=2)
        recorded = assemble_layer(w, q, q, rank=2, absorb_steps=3, rotation_steps=2,
                                  act_format=make_format("MXINT8"))
        assert (plain.meta.act_format, recorded.meta.act_format) == (None, "MXINT8")
        assert dataclasses.replace(recorded.meta, act_format=None) == plain.meta
        for name in ("residual", "lowrank_left", "lowrank_right"):
            assert getattr(recorded, name) == getattr(plain, name)

    def test_bundle_and_meta_are_frozen(self):
        w = np.random.default_rng(7).normal(size=(8, 8))
        b = _quick(w, make_format("SINT4"), make_format("SINT4"), rank=2,
                   optimized_lr=False, rotations=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.meta.act_format = "MXINT8"
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.gamma = np.ones(8)
        assert b.meta.act_format is None and b.gamma is None

class TestReconstructionIdentities:
    def test_error_matches_stored_factor_loss(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(24, 24))
        q1 = make_format("MXINT4")
        b = _quick(w, q1, make_format("MXINT8"), rank=6)
        p_hat = dequantize(b.residual)
        branch = dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
        direct = float(np.mean((p_hat + branch - w) ** 2))
        via_reconstruct = float(np.mean((reconstruct_weight(b) - w) ** 2))
        assert direct == pytest.approx(via_reconstruct, rel=1e-12)

    def test_passthrough_q2_ties_loss_to_weight_error(self):
        # with a full-precision branch the deployed error is exactly the
        # optimization objective, scaled by the entry count
        rng = np.random.default_rng(7)
        w = rng.normal(size=(20, 16))
        q1 = make_format("SINT4")
        b = assemble_layer(w, q1, PASSTHROUGH, rank=4, optimized_lr=True,
                           rotations=False, absorb_steps=25)
        balance = np.linalg.norm(reconstruct_weight(b) - w) ** 2
        # the recomputed residual path must agree with the absorber loss
        # at the returned iterate
        branch = dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
        shifted = w - branch
        loss = float(np.mean((fake_quant(shifted, q1) - shifted) ** 2))
        assert balance == pytest.approx(loss * w.size, rel=1e-10)
        assert b.meta.absorb["best_loss"] == pytest.approx(loss, rel=1e-10)


class TestForward:
    def test_identity_layer(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(10, 8))
        x = rng.normal(size=(5, 10))
        b = _quick(w, PASSTHROUGH, PASSTHROUGH, rank=8, optimized_lr=False,
                   rotations=False)
        assert np.allclose(forward(b, x), x @ w, atol=1e-12)

    def test_identity_input_matches_reconstruction(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(16, 12))
        b = _quick(w, make_format("SINT4"), make_format("MXINT4"), rank=4)
        got = forward(b, np.eye(16))
        expected = reconstruct_weight(b)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_distinct_branch_activation_formats(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(32, 16))
        x = rng.normal(size=(6, 32))
        b = _quick(w, make_format("MXINT4"), make_format("MXINT8"), rank=4,
                   optimized_lr=False, rotations=False)
        act8 = make_format("MXINT8")
        act4 = make_format("MXINT4")
        mixed = forward(b, x, activation_format=act4, lowrank_activation_format=act8)
        x4 = fake_quant(x, act4)
        x8 = fake_quant(x, act8)
        expected = x4 @ dequantize(b.residual) + x8 @ (
            dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
        )
        assert np.array_equal(mixed, expected)

    def test_equal_branch_format_is_quantized_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(32, 16))
        x = rng.normal(size=(6, 32))
        b = _quick(w, make_format("SINT4"), make_format("MXINT4"), rank=4)
        act = make_format("MXINT8")
        twin = dataclasses.replace(act)  # equal, not the same object
        assert twin == act and twin is not act
        expected = forward(b, x, act)
        calls = []

        def counting(m, spec):
            calls.append(spec)
            return fake_quant(m, spec)

        monkeypatch.setattr(pipeline, "fake_quant", counting)
        got = forward(b, x, activation_format=act, lowrank_activation_format=twin)
        assert calls == [act]
        assert np.array_equal(got, expected)

    def test_bundle_beats_plain_rtn(self):
        q = make_format("SINT4")
        wins = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(64, 48))
            x = rng.normal(size=(16, 64))
            b = assemble_layer(w, q, q, rank=16, optimized_lr=True, rotations=True,
                               absorb_steps=100, rotation_steps=50, seed=seed)
            xq = fake_quant(x, q)
            bundle_err = np.linalg.norm(x @ w - forward(b, x, activation_format=q))
            rtn_err = np.linalg.norm(x @ w - xq @ fake_quant(w, q))
            if bundle_err <= rtn_err:
                wins += 1
        assert wins >= int(0.95 * trials)


def _overflow_bundle():
    """A 40 x 72 SINT4 bundle of rank 4 and its weight: activations near
    the float64 limit overflow its products."""
    w = np.random.default_rng(67).standard_t(df=5, size=(40, 72))
    return w, assemble_layer(w, make_format("SINT4"), make_format("SINT4"), rank=4,
                             optimized_lr=False, rotations=False)


class TestNumericEdges:
    def test_forward_overflow_names_the_output(self):
        # the activations are finite; x @ L and the products after it are not
        _, b = _overflow_bundle()
        x = np.where(np.random.default_rng(68).random((1, 40)) < 0.5, -1e307, 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from numpy either
            with pytest.raises(NumericError, match="forward output") as info:
                forward(b, x)
        assert "activations" not in str(info.value)

    @pytest.mark.parametrize("act", [None, "MXINT8"])
    def test_smoothing_division_overflow_names_the_division(self, act):
        # x / gamma ran outside the overflow handling: numpy warned, and with
        # an activation format the NumericError blamed the activations
        w, (_, b) = _small_bundles("SINT4", "SINT4")
        assert b.gamma.min() < 1
        x = np.full((2, 40), 1.79e308)
        fmt = None if act is None else make_format(act)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="divided by the smoothing vector"):
                forward(b, x, fmt)
            with pytest.raises(NumericError, match="divided by the smoothing vector"):
                error_report(w, x, b, fmt)

    def test_error_report_refuses_overflowed_figures(self):
        # inf > inf is false, so the bound check alone let these through
        w, b = _overflow_bundle()
        with pytest.raises(NumericError, match="not finite: matmul_err"):
            error_report(w, np.full((3, 40), 1e300), b)

    @pytest.mark.parametrize("x", [[["a"] * 40], np.full((1, 40), 1 + 2j),
                                   np.array([[1.0] * 39 + [2j]], dtype=object)],
                             ids=["strings", "complex", "complex-objects"])
    def test_non_real_inputs_are_refused(self, x):
        _, b = _overflow_bundle()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning would escape
            with pytest.raises(ParameterError, match="activations must hold real"):
                forward(b, x)
            with pytest.raises(ParameterError, match="must hold real numbers"):
                fake_quant(x, make_format("SINT4"))


class TestErrorReport:
    def test_decodes_each_tensor_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(24, 40))
        x = rng.normal(size=(8, 24))
        b = _quick(w, make_format("SINT4"), make_format("MXFP6e2"), rank=4)
        decoded = []

        def counting(t):
            decoded.append(t)
            return dequantize(t)

        def counting_add(out, t):
            decoded.append(t)
            return add_dequantized(out, t)

        # the factors are decoded whole, the residual into their product
        monkeypatch.setattr(pipeline, "dequantize", counting)
        monkeypatch.setattr(pipeline, "add_dequantized", counting_add)
        report = error_report(w, x, b, make_format("MXINT8"))
        assert sorted(map(id, decoded)) == sorted(map(id, b.tensors()))
        # the figures the two-decode path gave, bit for bit
        branch = dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
        w_hat = dequantize(b.residual) + branch
        assert report.weight_err_smoothed == float(np.linalg.norm(w - w_hat, "fro"))
        assert report.residual_mse == float(np.mean(np.square(w - w_hat)))

    def test_passthrough_everything_is_zero(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(10, 10))
        x = rng.normal(size=(4, 10))
        b = _quick(w, PASSTHROUGH, PASSTHROUGH, rank=10, optimized_lr=False,
                   rotations=False)
        rep = error_report(w, x, b)
        assert rep.matmul_err == 0.0
        assert rep.weight_err == 0.0
        assert rep.bound_rhs == 0.0

    def test_identity_activations_tie_weight_and_matmul_error(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(14, 10))
        b = _quick(w, make_format("SINT4"), make_format("SINT4"), rank=3,
                   optimized_lr=False, rotations=False)
        rep = error_report(w, np.eye(14), b)
        assert rep.matmul_err == pytest.approx(rep.weight_err, rel=1e-12)

    def test_quantized_activation_one_term_bound(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(32, 8))
        x = rng.normal(size=(6, 32))
        b = _quick(w, PASSTHROUGH, PASSTHROUGH, rank=8, optimized_lr=False,
                   rotations=False)
        act = make_format("MXINT4")
        rep = error_report(w, x, b, activation_format=act)
        xq = fake_quant(x, act)
        lhs = np.linalg.norm(x @ w - xq @ w)
        rhs = np.linalg.norm(x - xq) * np.linalg.norm(w)
        assert rep.matmul_err == pytest.approx(lhs, rel=1e-12)
        assert rep.matmul_err <= rhs + 1e-12
        assert rep.bound_rhs >= rhs

    def test_bound_sweep_random_triples(self):
        formats = ["SINT4", "MXINT4", "MXINT8", "MXFP4e2", "MXFP6e2", "MXFP8e4"]
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(4, 40))
            n = int(rng.integers(4, 40))
            m = int(rng.integers(2, 24))
            w = rng.normal(size=(d, n)) * rng.uniform(0.1, 10)
            x = rng.normal(size=(m, d)) * rng.uniform(0.1, 10)
            fmt = make_format(formats[seed % len(formats)])
            b = assemble_layer(w, fmt, fmt, rank=max(1, min(d, n) // 4),
                               optimized_lr=False, rotations=False)
            rep = error_report(w, x, b, activation_format=fmt)
            assert rep.matmul_err <= rep.bound_rhs + 1e-9 * (1 + rep.bound_rhs)

    def test_shape_validation(self):
        w = np.ones((4, 4))
        b = _quick(w, make_format("SINT4"), make_format("SINT4"), rank=1,
                   optimized_lr=False, rotations=False)
        from loraq import ShapeError
        with pytest.raises(ShapeError):
            error_report(np.ones((5, 4)), np.eye(5), b)
        with pytest.raises(ShapeError):
            error_report(w, np.ones((3, 3)), b)


class TestSmoothingInPipeline:
    def test_calibration_matrix_triggers_grid_search(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(16, 12))
        x = rng.normal(size=(40, 16))
        x[:, 0] *= 100.0
        b = _quick(w, make_format("SINT4"), make_format("SINT4"), rank=4,
                   calibration=x, optimized_lr=False, rotations=False)
        assert b.gamma is not None
        assert b.meta.smoothing["source"] == "grid-search"
        assert (b.meta.smoothing["alpha_mig"], b.meta.smoothing["beta_mig"]) != (0, 0)

    def test_stats_only_uses_balanced_migration(self):
        from loraq import compute_channel_stats
        rng = np.random.default_rng(15)
        w = rng.normal(size=(16, 12))
        stats = compute_channel_stats(rng.normal(size=(30, 16)))
        b = _quick(w, make_format("SINT4"), make_format("SINT4"), rank=4,
                   calibration=stats, optimized_lr=False, rotations=False)
        assert b.meta.smoothing == {
            "alpha_mig": 0.5, "beta_mig": 0.5, "search_score": None,
            "source": "stats",
        }

    def test_forward_undoes_smoothing(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(16, 12))
        x_cal = rng.normal(size=(30, 16))
        x_cal[:, 3] *= 50.0
        b = _quick(w, PASSTHROUGH, PASSTHROUGH, rank=12, calibration=x_cal,
                   optimized_lr=False, rotations=False)
        x = rng.normal(size=(5, 16))
        assert np.allclose(forward(b, x), x @ w, atol=1e-9)

    def test_desmoothed_reconstruction(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(12, 10))
        x_cal = rng.normal(size=(25, 12))
        x_cal[:, 1] *= 40.0
        b = _quick(w, PASSTHROUGH, PASSTHROUGH, rank=10, calibration=x_cal,
                   optimized_lr=False, rotations=False)
        assert np.allclose(reconstruct_weight(b, desmoothed=True), w, atol=1e-9)
        rep = error_report(w, np.eye(12), b)
        assert rep.weight_err <= 1e-9


class TestToggleOrderingSmoke:
    def test_rotation_and_optimization_never_hurt_on_small_corpus(self):
        q1 = make_format("MXFP4e2")
        q2 = make_format("MXFP4e2")
        cells = {}
        for optimized in (True, False):
            for rotated in (True, False):
                errs = []
                for seed in range(3):
                    rng = np.random.default_rng(40 + seed)
                    w = rng.standard_t(df=5, size=(48, 48)) * 16.0
                    b = assemble_layer(w, q1, q2, rank=8, optimized_lr=optimized,
                                       rotations=rotated, absorb_steps=150,
                                       rotation_steps=100, seed=seed)
                    errs.append(np.linalg.norm(reconstruct_weight(b) - w))
                cells[(optimized, rotated)] = float(np.mean(errs))
        assert cells[(True, True)] <= cells[(False, False)]
        assert cells[(True, True)] <= cells[(True, False)]


class TestBatch:
    @pytest.mark.parametrize("smoothed", [False, True])
    def test_weight_errors_match_error_report(self, smoothed):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(10, 8))
        cal = rng.normal(size=(20, 10)) * 10.0 if smoothed else None
        bundle = assemble_layer(w, make_format("SINT4"), make_format("SINT4"), rank=2,
                                optimized_lr=False, rotations=False, calibration=cal)
        assert (bundle.gamma is not None) == smoothed
        rep = error_report(w, rng.normal(size=(7, 10)), bundle)
        assert weight_error(w, bundle) == (rep.weight_err, rep.weight_err_rel)


class TestWeightError:
    def test_non_finite_reconstruction_raises(self):
        rng = np.random.default_rng(20)
        w = rng.normal(size=(8, 8))
        b = _quick(w, make_format("SINT4"), make_format("SINT4"), rank=2,
                   optimized_lr=False, rotations=False)
        b.residual.scales[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                weight_error(w, b)
            with pytest.raises(NumericError):
                error_report(w, np.eye(8), b)

    def test_shape_mismatch(self):
        b = _quick(np.ones((4, 4)), make_format("SINT4"), make_format("SINT4"),
                   rank=1, optimized_lr=False, rotations=False)
        with pytest.raises(ShapeError):
            weight_error(np.ones((5, 4)), b)


class TestAblateLayer:
    @pytest.mark.parametrize("q1, q2", [("SINT4", "SINT4"), ("MXFP4e2", "MXFP6e2")])
    def test_cells_equal_independent_runs(self, q1, q2):
        w = np.random.default_rng(21).standard_t(df=5, size=(24, 40))
        q1, q2 = make_format(q1), make_format(q2)
        kwargs = dict(rank=4, seed=3, absorb_steps=12, rotation_steps=6)
        cells = ablate_layer(w, q1, q2, **kwargs)
        assert list(cells) == [(True, True), (True, False), (False, True),
                               (False, False)]
        for (optimized, rotated), bundle in cells.items():
            alone = assemble_layer(w, q1, q2, optimized_lr=optimized,
                                   rotations=rotated, **kwargs)
            assert bundle == alone
            assert save_bytes(bundle) == save_bytes(alone)


PAIR_FORMATS = [*registry_names(), PASSTHROUGH.name]
SERVE_PAIRS = [("SINT4", "SINT4"), ("MXFP4e2", "MXFP6e2")]


def _dense_forward(bundle, x, act=None, lowrank_act=None):
    """``forward`` before the factored branch: the dense ``L @ R`` is built
    and ``x_res @ residual + x_lr @ (L @ R)`` returned."""
    x_s = x / bundle.gamma[None, :] if bundle.gamma is not None else x
    x_res = fake_quant(x_s, act) if act is not None else x_s
    lr_act = lowrank_act if lowrank_act is not None else act
    x_lr = fake_quant(x_s, lr_act) if lr_act is not None else x_s
    branch = dequantize(bundle.lowrank_left) @ dequantize(bundle.lowrank_right)
    return x_res @ dequantize(bundle.residual) + x_lr @ branch


def _dense_error_report(w, x, bundle, act=None) -> ErrorReport:
    """``error_report``'s figures as it computed them before it reused its
    d x n buffers: each from fresh temporaries."""
    gamma = bundle.gamma
    w_s = gamma[:, None] * w if gamma is not None else w
    x_s = x / gamma[None, :] if gamma is not None else x
    branch = dequantize(bundle.lowrank_left) @ dequantize(bundle.lowrank_right)
    residual_hat = dequantize(bundle.residual)
    w_hat_s = residual_hat + branch
    x_q = fake_quant(x_s, act) if act is not None else x_s
    exact = x_s @ w_s
    matmul_err = float(np.linalg.norm(exact - x_q @ w_hat_s, "fro"))
    weight_err_smoothed = float(np.linalg.norm(w_s - w_hat_s, "fro"))
    bound_rhs = (float(np.linalg.norm(x_s - x_q, "fro")) * float(np.linalg.norm(w_s, "fro"))
                 + float(np.linalg.norm(x_q, "fro")) * weight_err_smoothed)
    w_hat = w_hat_s / gamma[:, None] if gamma is not None else w_hat_s
    weight_err = float(np.linalg.norm(w - w_hat, "fro"))
    return ErrorReport(
        weight_err=weight_err,
        weight_err_rel=weight_err / float(np.linalg.norm(w, "fro")),
        weight_err_smoothed=weight_err_smoothed,
        matmul_err=matmul_err,
        matmul_err_rel=matmul_err / float(np.linalg.norm(exact, "fro")),
        bound_rhs=bound_rhs,
        residual_mse=float(np.mean(np.square(w_s - w_hat_s))),
        lowrank_q2_mse=bundle.meta.lowrank_q2_mse,
    )


def _dense_weight_error(w, bundle) -> tuple[float, float]:
    """``weight_error``'s figures from the dense reconstruction, built from
    fresh temporaries."""
    branch = dequantize(bundle.lowrank_left) @ dequantize(bundle.lowrank_right)
    w_hat = dequantize(bundle.residual) + branch
    if bundle.gamma is not None:
        w_hat = w_hat / bundle.gamma[:, None]
    weight_err = float(np.linalg.norm(w - w_hat, "fro"))
    return weight_err, weight_err / float(np.linalg.norm(w, "fro"))


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _traced_peak(fn) -> int:
    """Peak bytes numpy allocated, as tracemalloc sees them, during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _small_bundles(q1: str, q2: str):
    """A bundle of a 40 x 72 weight without smoothing and one with, and the weight."""
    rng = np.random.default_rng(60)
    w = rng.standard_t(df=5, size=(40, 72))
    stats = compute_channel_stats(rng.normal(size=(32, 40)) * rng.uniform(0.2, 5.0, 40))
    bundles = [assemble_layer(w, make_format(q1), make_format(q2), rank=6,
                              calibration=cal, optimized_lr=False, rotations=False)
               for cal in (None, stats)]
    assert bundles[0].gamma is None and bundles[1].gamma is not None
    return w, bundles


class TestFactoredForward:
    """``forward`` runs the low-rank branch as ``(x @ L) @ R``, which only
    reorders the sums of the dense ``x @ (L @ R)``, and a batch of at most
    an eighth of a block folds the block scales into the activations, which
    only reorders the products."""

    @pytest.mark.parametrize("q2", PAIR_FORMATS)
    @pytest.mark.parametrize("q1", PAIR_FORMATS)
    def test_within_roundoff_of_the_dense_branch(self, q1, q2):
        _, bundles = _small_bundles(q1, q2)
        x = np.random.default_rng(61).standard_t(df=5, size=(64, 40))
        act4, act8 = make_format("MXINT4"), make_format("MXINT8")
        for b in bundles:
            w_hat = reconstruct_weight(b)
            # both sides of the fold for blocks of 32 (MX: up to 4 rows) and
            # of 64 (SINT4: up to 8), and of a block of rows
            for rows in (1, 4, 5, 8, 9, 31, 32, 63, 64):
                xs = x[:rows]
                for act, lowrank_act in ((None, None), (act8, None), (act4, act8)):
                    got = forward(b, xs, act, lowrank_act)
                    assert _rel(got, _dense_forward(b, xs, act, lowrank_act)) <= 1e-12
                    if lowrank_act is None:  # one activation format for both branches
                        x_s = xs / b.gamma[None, :] if b.gamma is not None else xs
                        x_q = fake_quant(x_s, act) if act is not None else x_s
                        assert _rel(got, x_q @ w_hat) <= 1e-12

    @pytest.mark.parametrize("col", [71, 72], ids=["last-column", "padded-tail"])
    @pytest.mark.parametrize("q1", ["SINT4", "MXINT4"])
    def test_invalid_residual_code_raises_what_dequantize_raises(self, q1, col):
        # the int4 pattern 0b1000 in the residual's last real column (71 of
        # 72) or the first column of its padded tail; batch 1 folds the
        # scales, batch 64 decodes them
        _, (b, _) = _small_bundles(q1, "MXFP6e2")
        codes = b.residual.codes.copy()
        shift = 4 * (col % 2)  # codes are packed two to a byte, LSB first
        codes[5, col // 2] = (codes[5, col // 2] & (0xF0 >> shift)) | (0b1000 << shift)
        residual = dataclasses.replace(b.residual, codes=codes)
        with pytest.raises(FormatError) as want:
            dequantize(residual)
        bundle = dataclasses.replace(b, residual=residual)
        x = np.random.default_rng(66).normal(size=(64, 40))
        for rows in (1, 64):
            with pytest.raises(FormatError) as got:
                forward(bundle, x[:rows])
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("q1,q2", [("SINT4", "MXFP6e2"), ("MXFP4e2", "MXINT8"),
                                   ("MXINT4", PASSTHROUGH.name)])
def test_error_report_figures_are_bit_equal_to_the_dense_report(q1, q2):
    w, bundles = _small_bundles(q1, q2)
    x = np.random.default_rng(62).standard_t(df=5, size=(16, 40))
    for b in bundles:
        for act in (None, make_format("MXINT8")):
            assert error_report(w, x, b, act) == _dense_error_report(w, x, b, act)


@pytest.fixture(scope="module")
def served():
    """The weight and 1024 x 1024 bundles of the serve format pairs, smoothed
    and not (the smoothed one with its gamma dropped)."""
    rng = np.random.default_rng(63)
    w = rng.standard_t(df=5, size=(1024, 1024))
    stats = compute_channel_stats(rng.normal(size=(64, 1024)) * rng.uniform(0.5, 4.0, 1024))
    bundles = {}
    for q1, q2 in SERVE_PAIRS:
        b = assemble_layer(w, make_format(q1), make_format(q2), budget=512,
                           calibration=stats, optimized_lr=False, rotations=False)
        bundles[(q1, q2, True)] = b
        bundles[(q1, q2, False)] = dataclasses.replace(b, gamma=None)
    return w, bundles


class TestServePathMemory:
    """Numpy reports its buffers to tracemalloc, so a traced peak counts
    every d x n float64 array a call holds at once."""

    @pytest.mark.parametrize("pair", SERVE_PAIRS, ids=str)
    def test_forward_builds_no_dense_branch(self, served, pair):
        # the decoded residual is one d x n array; the dense branch would be
        # a second one
        w, bundles = served
        b = bundles[(*pair, True)]
        x = np.random.default_rng(64).normal(size=(1, 1024))
        assert _traced_peak(lambda: forward(b, x)) < 1.5 * w.nbytes

    @staticmethod
    def _one_matrix(w, b) -> float:
        # the reconstruction, and beside it, while L̂ @ R̂ is multiplied, the
        # two decoded factors (a quarter of w at rank 128 on 1024 x 1024),
        # plus a tenth of w for the m x n arrays and the row-group buffer;
        # a second d x n array would add a whole w
        factors = b.lowrank_left.shape, b.lowrank_right.shape
        return 1.1 * w.nbytes + 8 * sum(rows * cols for rows, cols in factors)

    @pytest.mark.parametrize("smoothed", [False, True])
    @pytest.mark.parametrize("pair", SERVE_PAIRS, ids=str)
    def test_reconstruction_holds_one_matrix(self, served, pair, smoothed):
        # the residual is decoded into the product of the factors, which
        # weight_error de-smooths in place; the padded decoded residual
        # beside it peaked at about 2.05
        w, bundles = served
        b = bundles[(*pair, smoothed)]
        branch = dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
        want = dequantize(b.residual) + branch
        got = []
        assert _traced_peak(lambda: got.append(reconstruct_weight(b))) < self._one_matrix(w, b)
        assert _traced_peak(lambda: got.append(weight_error(w, b))) < self._one_matrix(w, b)
        assert got[0].tobytes() == want.tobytes()
        assert got[1] == _dense_weight_error(w, b)

    @pytest.mark.parametrize("pair", SERVE_PAIRS, ids=str)
    def test_error_report_holds_one_matrix(self, served, pair):
        # without smoothing W - What goes into What's buffer once the matmul
        # error is taken; a separate difference peaked at about 2.13
        w, bundles = served
        b = bundles[(*pair, False)]
        x = np.random.default_rng(65).normal(size=(64, 1024))
        for act in (None, make_format("MXINT8")):
            reports = []
            peak = _traced_peak(lambda: reports.append(error_report(w, x, b, act)))
            assert peak < self._one_matrix(w, b)
            assert reports[0] == _dense_error_report(w, x, b, act)

    @pytest.mark.parametrize("pair", SERVE_PAIRS, ids=str)
    def test_error_report_holds_two_matrices(self, served, pair):
        # with smoothing What_s and W_s = gamma * W, which W_s - What_s
        # overwrites; a third (a separate scratch) peaked at 3.0-3.3, and the
        # dense report at about five
        w, bundles = served
        b = bundles[(*pair, True)]
        x = np.random.default_rng(65).normal(size=(64, 1024))
        for act in (None, make_format("MXINT8")):
            reports = []
            peak = _traced_peak(lambda: reports.append(error_report(w, x, b, act)))
            assert peak < 2.25 * w.nbytes
            assert reports[0] == _dense_error_report(w, x, b, act)


@pytest.mark.parametrize("smoothed", [False, True])
@pytest.mark.parametrize("pair", SERVE_PAIRS, ids=str)
def test_residual_mse_is_the_residual_branch_error(served, pair, smoothed):
    # the two-branch formula: the residual's quantization error against
    # what it encodes, Q1(W_s - L R) - (W_s - L R); it equals W_s - What_s
    # entry by entry, so the two figures differ only in their last bits
    w, bundles = served
    b = bundles[(*pair, smoothed)]
    w_s = b.gamma[:, None] * w if smoothed else w
    branch = dequantize(b.lowrank_left) @ dequantize(b.lowrank_right)
    two_branch = float(np.mean(np.square(dequantize(b.residual) - (w_s - branch))))
    x = np.random.default_rng(65).normal(size=(4, 1024))
    got = error_report(w, x, b).residual_mse
    assert abs(got - two_branch) <= 1e-14 * two_branch
