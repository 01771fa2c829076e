"""Rotation of the low-rank factor pair to shrink its quantization error.

An orthogonal matrix inserted between the factors leaves their product
unchanged but redistributes the entries that each factor exposes to the
quantizer.  The rotation is parameterized by a skew-symmetric matrix via
the Cayley map, optimized with Adam, and fused into the factors so it
costs nothing at inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .formats import FormatSpec, fake_quant
from .numerics import (
    AdamState,
    SkewParam,
    adam_step,
    as_matrix,
    cayley_retract,
    skew_project,
)

__all__ = [
    "RotationConfig",
    "rotation_loss",
    "rotation_grad",
    "optimize_rotation",
    "fuse_rotation",
]

_ORTHO_TOL = 1e-8


@dataclass
class RotationConfig:
    """Optimizer settings for the rotation stage."""

    learning_rate: float
    steps: int
    quantizer: FormatSpec

    def __post_init__(self):
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if self.learning_rate <= 0:
            raise ParameterError(
                f"learning rate must be positive, got {self.learning_rate}"
            )


def _check_rotation_inputs(left: np.ndarray, right: np.ndarray,
                           omega: np.ndarray) -> None:
    rank = left.shape[1]
    if right.shape[0] != rank:
        raise ShapeError(
            f"factor shapes {left.shape} x {right.shape} do not share a rank"
        )
    if omega.shape != (rank, rank):
        raise ShapeError(f"rotation must be {rank}x{rank}, got {omega.shape}")
    defect = np.linalg.norm(omega.T @ omega - np.eye(rank), "fro")
    if defect > _ORTHO_TOL:
        raise ParameterError(
            f"rotation is not orthogonal: ||O^T O - I||_F = {defect:.3e}"
        )


def _branch_errors(left, right, omega, quantizer):
    rotated_left = left @ omega
    rotated_right = omega.T @ right
    err_left = fake_quant(rotated_left, quantizer) - rotated_left
    err_right = fake_quant(rotated_right, quantizer) - rotated_right
    return err_left, err_right


def _loss(err_left: np.ndarray, err_right: np.ndarray) -> float:
    return float(np.mean(np.square(err_left)) + np.mean(np.square(err_right)))


def rotation_loss(left, right, omega, quantizer: FormatSpec) -> float:
    """Sum of the per-factor mean squared quantization errors after rotation."""
    left = as_matrix(left, "left factor")
    right = as_matrix(right, "right factor")
    omega = as_matrix(omega, "rotation")
    _check_rotation_inputs(left, right, omega)
    return _loss(*_branch_errors(left, right, omega, quantizer))


def _grad_from_errors(left, right, a, omega, err_left, err_right) -> np.ndarray:
    """Skew gradient at ``omega = cayley_retract(a)`` from its branch errors."""
    grad_omega = (
        (-2.0 / err_left.size) * (left.T @ err_left)
        + (-2.0 / err_right.size) * (right @ err_right.T)
    )
    # chain rule through omega(A) = (I - A/2)^-1 (I + A/2):
    # dOmega = S (dA/2) (Omega + I) with S = (I - A/2)^-1, hence
    # grad_A = 0.5 * S.T @ grad_omega @ (I + Omega).T
    eye = np.eye(a.shape[0])
    st_g = np.linalg.solve((eye - a / 2.0).T, grad_omega)
    grad_a = 0.5 * st_g @ (eye + omega).T
    return skew_project(grad_a)


def rotation_grad(left, right, skew, quantizer: FormatSpec) -> np.ndarray:
    """Loss gradient with respect to the skew parameter of the Cayley map.

    The quantizer outputs are held constant; the result is projected onto
    the skew-symmetric subspace and is therefore exactly antisymmetric.
    """
    left = as_matrix(left, "left factor")
    right = as_matrix(right, "right factor")
    a = skew.matrix if isinstance(skew, SkewParam) else skew_project(skew)
    omega = cayley_retract(a)
    _check_rotation_inputs(left, right, omega)
    err_left, err_right = _branch_errors(left, right, omega, quantizer)
    return _grad_from_errors(left, right, a, omega, err_left, err_right)


def optimize_rotation(left, right,
                      cfg: RotationConfig) -> tuple[np.ndarray, list[float]]:
    """Adam on the skew parameter from the identity; returns (rotation, trace).

    The lowest-loss iterate is returned.  The identity start is the first
    recorded iterate, so the returned rotation never does worse than no
    rotation at all.  Deterministic for fixed inputs.
    """
    left = as_matrix(left, "left factor")
    right = as_matrix(right, "right factor")
    rank = left.shape[1]
    if right.shape[0] != rank:
        raise ShapeError(
            f"factor shapes {left.shape} x {right.shape} do not share a rank"
        )
    skew = SkewParam.zeros(rank)
    state = AdamState.for_param((rank, rank))

    trace: list[float] = []
    best_omega = np.eye(rank)
    best_loss = np.inf

    def record(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score one iterate; its branch errors also give the next gradient."""
        nonlocal best_omega, best_loss
        err_left, err_right = _branch_errors(left, right, omega, cfg.quantizer)
        with np.errstate(over="ignore"):
            loss = _loss(err_left, err_right)
        if not np.isfinite(loss):
            raise NumericError(
                f"rotation loss became non-finite at step {len(trace)}",
                trace=trace,
                last_iterate=best_omega,
            )
        trace.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_omega = omega.copy()
        return err_left, err_right

    omega = cayley_retract(skew)
    errors = record(omega)
    for _ in range(cfg.steps):
        grad = _grad_from_errors(left, right, skew.matrix, omega, *errors)
        updated = adam_step(state, skew.matrix, grad, cfg.learning_rate)
        if not np.all(np.isfinite(updated)):
            raise NumericError(
                f"skew parameter became non-finite at step {len(trace)}",
                trace=trace,
                last_iterate=best_omega,
            )
        skew.assign(updated)
        omega = cayley_retract(skew)
        errors = record(omega)

    return best_omega, trace


def fuse_rotation(left, right, omega) -> tuple[np.ndarray, np.ndarray]:
    """Fold a rotation into the factors: ``(left @ O, O.T @ right)``.

    The fused product equals ``left @ right`` up to roundoff, so the
    rotation adds no cost at inference.
    """
    left = as_matrix(left, "left factor")
    right = as_matrix(right, "right factor")
    omega = as_matrix(omega, "rotation")
    _check_rotation_inputs(left, right, omega)
    return left @ omega, omega.T @ right
