"""The shared Adam loop, ``numerics.adam_descent``: its contract on a toy
score, and each failure point as absorption and rotation meet it."""

import numpy as np
import pytest

from loraq import (
    NumericError,
    OptimizerConfig,
    ParameterError,
    absorber,
    adam_descent,
    cayley_retract,
    init_factors,
    make_format,
    numerics,
    optimize_factors,
    optimize_rotation,
    rotation,
)

SINT4 = make_format("SINT4")


def _quadratic(target, grads):
    """Score of ``sum((A - target)^2)``; records each gradient it hands out."""
    def score(params):
        (a,) = params
        diff = a - target

        def grad():
            grads.append(2.0 * diff)
            return (grads[-1],)
        return float(np.sum(diff * diff)), grad, a
    return score


class TestToyScore:
    @pytest.mark.parametrize("steps", [0, 1, 7])
    def test_one_loss_per_iterate_and_a_gradient_only_before_a_step(self, steps):
        grads = []
        start = np.zeros((3, 3))
        best, trace = adam_descent(_quadratic(np.ones((3, 3)), grads), (start,),
                                   OptimizerConfig(0.1, steps, SINT4), best=None)
        assert len(trace) == steps + 1
        assert len(grads) == steps
        assert best is start if steps == 0 else np.sum((best - 1.0) ** 2) == min(trace)

    def test_earliest_iterate_wins_a_tie(self):
        kept = []

        def flat(params):
            kept.append(params[0])
            return 1.0, lambda: (np.ones((2, 2)),), params[0]

        best, trace = adam_descent(flat, (np.zeros((2, 2)),),
                                   OptimizerConfig(0.1, 3, SINT4), best=None)
        assert trace == [1.0] * 4
        assert best is kept[0]


@pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
def test_config_refuses_a_learning_rate_that_is_not_positive_and_finite(lr):
    with pytest.raises(ParameterError):
        OptimizerConfig(lr, 10, SINT4)


class TestRotationProjection:
    def test_every_retracted_parameter_is_exactly_skew(self, monkeypatch):
        seen = []

        def recording(a):
            seen.append(a)
            return cayley_retract(a)

        monkeypatch.setattr(rotation, "cayley_retract", recording)
        rng = np.random.default_rng(1)
        optimize_rotation(rng.normal(size=(24, 6)), rng.normal(size=(6, 20)),
                          OptimizerConfig(1e-1, 30, make_format("MXFP4e2")))
        assert len(seen) == 31
        for a in seen:
            assert np.array_equal(a + a.T, np.zeros((6, 6)))


# Each stage runs on fixed inputs; a fault is injected at one step through
# the hooks the loop calls, and the error must match a clean run cut short.
_RNG = np.random.default_rng(2)
_W = _RNG.standard_t(df=5, size=(16, 40))
_LEFT = _RNG.normal(size=(16, 4))
_RIGHT = _RNG.normal(size=(4, 40))
_START = init_factors(_W, 4)


def _absorb(steps):
    return optimize_factors(_W, _START, OptimizerConfig(1e-3, steps, make_format("MXINT4")))


def _rotate(steps):
    return optimize_rotation(_LEFT, _RIGHT,
                             OptimizerConfig(1e-1, steps, make_format("MXINT4")))


# stage -> (run, module whose fake_quant it calls, fake_quant calls per
# iterate, what the score's own NumericError says)
STAGES = {
    "absorption": (_absorb, absorber, 1, "residual weight became non-finite"),
    "rotation": (_rotate, rotation, 2, "injected"),
}


def _inject_fake_quant(monkeypatch, module, per_iterate, step, fault):
    original = module.fake_quant
    calls = []

    def faulty(m, spec, *args, **kwargs):
        calls.append(None)
        if len(calls) == per_iterate * step + 1:
            if fault == "raise":
                raise NumericError("injected")
            out = original(m, spec, *args, **kwargs)
            out[0, 0] = np.inf
            return out
        return original(m, spec, *args, **kwargs)

    monkeypatch.setattr(module, "fake_quant", faulty)


def _inject_adam_step(monkeypatch, step):
    original = numerics.adam_step

    def faulty(state, params, grad, lr):
        out = original(state, params, grad, lr)
        if state.step_count == step:
            out[-1, -1] = np.nan
        return out

    monkeypatch.setattr(numerics, "adam_step", faulty)


def _check_cut_short(info, stage, step, message):
    run = STAGES[stage][0]
    error = info.value
    assert str(error) == f"{message} at step {step}"
    assert len(error.trace) == step
    if step == 0:
        if stage == "absorption":
            assert all(a is b for a, b in zip(error.last_iterate, _START))
        else:
            assert np.array_equal(error.last_iterate, np.eye(4))
        return
    best, trace = run(step - 1)
    assert error.trace == trace
    if stage == "absorption":
        best_left, best_right = error.last_iterate
        assert np.array_equal(best_left, best[0])
        assert np.array_equal(best_right, best[1])
    else:
        assert np.array_equal(error.last_iterate, best)


@pytest.mark.parametrize("step", [0, 1, 3])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_score_raising_names_the_step(monkeypatch, stage, step):
    run, module, per_iterate, message = STAGES[stage]
    _inject_fake_quant(monkeypatch, module, per_iterate, step, "raise")
    with pytest.raises(NumericError) as info:
        run(5)
    monkeypatch.undo()
    _check_cut_short(info, stage, step, message)


@pytest.mark.parametrize("step", [0, 1, 3])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_non_finite_loss_names_the_step(monkeypatch, stage, step):
    run, module, per_iterate, _ = STAGES[stage]
    _inject_fake_quant(monkeypatch, module, per_iterate, step, "inf")
    with pytest.raises(NumericError) as info:
        run(5)
    monkeypatch.undo()
    _check_cut_short(info, stage, step, "loss became non-finite")


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_non_finite_parameters_name_the_step(monkeypatch, stage, step):
    _inject_adam_step(monkeypatch, step)
    with pytest.raises(NumericError) as info:
        STAGES[stage][0](5)
    monkeypatch.undo()
    _check_cut_short(info, stage, step, "parameters became non-finite")
