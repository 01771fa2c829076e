"""Dense float64 matrix numerics: truncated SVD, Adam, the Cayley
retraction, and the one Adam loop that both optimizer stages run.

Everything operates on plain 2-D ``numpy.float64`` arrays and is pure:
functions never mutate their inputs except where documented (Adam state).
:func:`adam_descent` owns the step loop of absorption and rotation: the
moment buffers, the loss trace, the best iterate and the finiteness
checks.  A stage supplies only a score of one iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, NumericError, ParameterError, ShapeError

if TYPE_CHECKING:
    from .formats import FormatSpec

__all__ = [
    "as_matrix",
    "truncated_svd",
    "AdamState",
    "adam_step",
    "OptimizerConfig",
    "adam_descent",
    "skew_project",
    "cayley_retract",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array.

    Booleans, integers, floats and Python objects that convert to floats
    are accepted; strings, complex numbers and anything else numpy cannot
    turn into real floats raise :class:`ParameterError` (a complex value
    would otherwise lose its imaginary part with only a warning)."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind not in "biufO":
            raise TypeError(f"got dtype {arr.dtype}")
        arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must hold real numbers: {exc}") from None
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def _canonical_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Fix the sign ambiguity of each singular pair: the largest-magnitude
    # entry of every left singular vector is made positive.
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, vt * signs[:, None]


def truncated_svd(a, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-``rank`` factorization ``(l0, r0)`` in the Frobenius norm.

    Singular values are folded entirely into the left factor, so
    ``l0 = U_r @ diag(s_r)`` and ``r0 = Vt_r``.  The sign of each singular
    pair is canonicalized for reproducibility.
    """
    a = as_matrix(a)
    max_rank = min(a.shape)
    if not 1 <= rank <= max_rank:
        raise ParameterError(
            f"rank must be in [1, {max_rank}] for shape {a.shape}, got {rank}"
        )
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"SVD did not converge for shape {a.shape}",
            residual=float(np.linalg.norm(a)),
        ) from exc
    u, vt = _canonical_signs(u[:, :rank], vt[:rank, :])
    return u * s[:rank], vt


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment buffers for one parameter matrix."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_param(cls, shape) -> "AdamState":
        return cls(np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              lr: float) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameters.

    The state is mutated in place.  A zero gradient is a no-op on both the
    parameters and the state.  A gradient containing NaN aborts the step.
    """
    if lr <= 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ShapeError(
            f"shape mismatch: params {params.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    if np.isnan(grad).any():
        raise NumericError("gradient contains NaN; step aborted")
    if not grad.any():
        return params.copy()
    state.step_count += 1
    t = state.step_count
    state.first_moment *= _BETA1
    state.first_moment += (1.0 - _BETA1) * grad
    state.second_moment *= _BETA2
    state.second_moment += (1.0 - _BETA2) * np.square(grad)
    m_hat = state.first_moment / (1.0 - _BETA1 ** t)
    v_hat = state.second_moment / (1.0 - _BETA2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + _EPS)


@dataclass
class OptimizerConfig:
    """Settings of one Adam stage: absorption or rotation."""

    learning_rate: float
    steps: int
    quantizer: FormatSpec

    def __post_init__(self):
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if not 0 < self.learning_rate < np.inf:
            raise ParameterError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )


def adam_descent(score, params, cfg: OptimizerConfig, *, best, project=None):
    """Adam from ``params`` for ``cfg.steps`` steps; returns (best, trace).

    ``params`` is a sequence of parameter matrices.  ``score(params)``
    returns ``(loss, grad, keep)``: the iterate's loss, a callable giving
    the loss gradient for each matrix, and the value reported for the
    iterate when it is the best.  ``grad`` is called only when another
    step follows, so a run of ``k`` steps scores ``k + 1`` iterates and
    computes ``k`` gradients.  ``project``, when given, maps every updated
    matrix before it is scored; ``skew_project`` keeps a rotation's
    parameter exactly skew-symmetric.  Iterates are never written in
    place, so ``keep`` may hold on to the matrices it is given.

    The trace holds one loss per scored iterate, the start first.  The
    returned best is the ``keep`` of the lowest loss, earliest on ties;
    ``best`` is what stands in for it before the start is scored.  The
    score raising :class:`NumericError`, a non-finite loss and a
    non-finite updated parameter (or a NaN gradient, which
    :func:`adam_step` refuses) each raise :class:`NumericError` naming the
    step, that is the index of the iterate being made, with the trace so
    far and the best so far as ``trace`` and ``last_iterate``.
    """
    states = [AdamState.for_param(p.shape) for p in params]
    trace: list[float] = []
    best_loss = np.inf
    for step in range(cfg.steps + 1):
        try:
            loss, grad, keep = score(params)
            if not np.isfinite(loss):
                raise NumericError("loss became non-finite")
            trace.append(loss)
            if loss < best_loss:
                best, best_loss = keep, loss
            if step == cfg.steps:
                break
            params = [adam_step(state, p, g, cfg.learning_rate)
                      for state, p, g in zip(states, params, grad())]
            if not all(np.all(np.isfinite(p)) for p in params):
                raise NumericError("parameters became non-finite")
            if project is not None:
                params = [project(p) for p in params]
        except NumericError as exc:
            raise NumericError(f"{exc} at step {len(trace)}", trace=trace,
                               last_iterate=best) from None
    return best, trace


def skew_project(a) -> np.ndarray:
    """Orthogonal projection onto the skew-symmetric subspace."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"skew projection needs a square matrix, got {a.shape}")
    # (A - A^T) / 2 bit for bit in the normal range; A - A^T could overflow
    return a / 2.0 - a.T / 2.0


def cayley_retract(a) -> np.ndarray:
    """Map a skew-symmetric matrix onto the rotation group.

    Returns ``(I - A/2)^-1 (I + A/2)``, which is orthogonal with
    determinant +1 for every real skew-symmetric ``A``.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"expected a square matrix, got {a.shape}")
    if np.abs(a + a.T).max() > 1e-12 * (1.0 + np.abs(a).max()):
        raise ParameterError("matrix is not skew-symmetric within 1e-12")
    eye = np.eye(n)
    try:
        omega = np.linalg.solve(eye - a / 2.0, eye + a / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - impossible for skew A
        raise NumericError("Cayley solve failed: I - A/2 is singular") from exc
    return omega
