"""Rotation of the low-rank factor pair to shrink its quantization error.

An orthogonal matrix inserted between the factors leaves their product
unchanged but redistributes the entries that each factor exposes to the
quantizer.  The rotation is parameterized by a skew-symmetric matrix via
the Cayley map, optimized with Adam, and fused into the factors so it
costs nothing at inference.  The step loop is
:func:`numerics.adam_descent`; this module supplies the score of one
iterate.  Each gradient is exactly skew-symmetric, and Adam's update
is elementwise and odd in the gradient, so every iterate from the zero
start is exactly skew-symmetric without a projection.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .formats import FormatSpec, fake_quant
from .numerics import (
    OptimizerConfig,
    adam_descent,
    as_matrix,
    cayley_retract,
    skew_project,
)

__all__ = [
    "rotation_grad",
    "optimize_rotation",
    "fuse_rotation",
]

_ORTHO_TOL = 1e-8


def _shared_rank(left: np.ndarray, right: np.ndarray) -> int:
    rank = left.shape[1]
    if right.shape[0] != rank:
        raise ShapeError(
            f"factor shapes {left.shape} x {right.shape} do not share a rank"
        )
    return rank


def _check_rotation_inputs(left: np.ndarray, right: np.ndarray,
                           omega: np.ndarray) -> None:
    rank = _shared_rank(left, right)
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
    """Sum of the per-factor mean squared quantization errors."""
    return float(np.mean(np.square(err_left)) + np.mean(np.square(err_right)))


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

    ``skew`` is projected onto the skew-symmetric subspace first, which
    leaves a skew-symmetric matrix unchanged.  The quantizer outputs are
    held constant; the result is projected onto the skew-symmetric
    subspace and is therefore exactly antisymmetric.
    """
    left = as_matrix(left, "left factor")
    right = as_matrix(right, "right factor")
    a = skew_project(skew)
    omega = cayley_retract(a)
    _check_rotation_inputs(left, right, omega)
    err_left, err_right = _branch_errors(left, right, omega, quantizer)
    return _grad_from_errors(left, right, a, omega, err_left, err_right)


def optimize_rotation(left, right,
                      cfg: OptimizerConfig) -> tuple[np.ndarray, list[float]]:
    """Adam on the skew parameter from the identity; returns (rotation, trace).

    The lowest-loss iterate is returned.  The identity start is the first
    recorded iterate, so the returned rotation never does worse than no
    rotation at all.  Each iterate costs one ``cayley_retract`` and two
    ``fake_quant`` calls, whose branch errors give both its loss and the
    next gradient.  Deterministic for fixed inputs.  A failure raises the
    :class:`NumericError` of :func:`numerics.adam_descent`, whose
    ``last_iterate`` is the identity when the start cannot be scored.
    """
    left = as_matrix(left, "left factor")
    right = as_matrix(right, "right factor")
    rank = _shared_rank(left, right)

    def score(params):
        (a,) = params
        omega = cayley_retract(a)
        err_left, err_right = _branch_errors(left, right, omega, cfg.quantizer)
        with np.errstate(over="ignore"):
            loss = _loss(err_left, err_right)

        def grad():
            return (_grad_from_errors(left, right, a, omega, err_left, err_right),)
        return loss, grad, omega

    return adam_descent(score, (np.zeros((rank, rank)),), cfg, best=np.eye(rank))


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
