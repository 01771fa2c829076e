"""Dense float64 matrix numerics: norms, truncated SVD, Adam,
Cayley retraction, and a finite-difference gradient checker.

Everything operates on plain 2-D ``numpy.float64`` arrays and is pure:
functions never mutate their inputs except where documented (Adam state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericError, ParameterError, ShapeError

__all__ = [
    "as_matrix",
    "frobenius_norm",
    "truncated_svd",
    "AdamState",
    "adam_step",
    "SkewParam",
    "skew_project",
    "cayley_retract",
    "finite_diff_grad",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(a) -> float:
    """Frobenius norm, zero iff the matrix is zero."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


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
            residual=frobenius_norm(a),
        ) from exc
    u, vt = _canonical_signs(u[:, :rank], vt[:rank, :])
    return u * s[:rank], vt


@dataclass
class AdamState:
    """Adam moment buffers for one parameter matrix."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, shape, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> "AdamState":
        return cls(
            first_moment=np.zeros(shape, dtype=np.float64),
            second_moment=np.zeros(shape, dtype=np.float64),
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


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
    state.first_moment *= state.beta1
    state.first_moment += (1.0 - state.beta1) * grad
    state.second_moment *= state.beta2
    state.second_moment += (1.0 - state.beta2) * np.square(grad)
    m_hat = state.first_moment / (1.0 - state.beta1 ** t)
    v_hat = state.second_moment / (1.0 - state.beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def skew_project(a) -> np.ndarray:
    """Orthogonal projection onto the skew-symmetric subspace."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"skew projection needs a square matrix, got {a.shape}")
    return (a - a.T) / 2.0


class SkewParam:
    """A square matrix constrained to be exactly skew-symmetric.

    Every write goes through :func:`skew_project`, so ``A + A.T == 0``
    holds at all times.
    """

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = skew_project(a)

    @classmethod
    def zeros(cls, size: int) -> "SkewParam":
        return cls(np.zeros((size, size), dtype=np.float64))

    @property
    def matrix(self) -> np.ndarray:
        return self._a

    def assign(self, a) -> None:
        self._a = skew_project(a)

    @property
    def size(self) -> int:
        return self._a.shape[0]


def _skew_matrix(a) -> np.ndarray:
    if isinstance(a, SkewParam):
        return a.matrix
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got {a.shape}")
    scale = 1.0 + np.abs(a).max()
    if np.abs(a + a.T).max() > 1e-12 * scale:
        raise ParameterError("matrix is not skew-symmetric within 1e-12")
    return a


def cayley_retract(a) -> np.ndarray:
    """Map a skew-symmetric matrix onto the rotation group.

    Returns ``(I - A/2)^-1 (I + A/2)``, which is orthogonal with
    determinant +1 for every real skew-symmetric ``A``.
    """
    a = _skew_matrix(a)
    n = a.shape[0]
    eye = np.eye(n)
    try:
        omega = np.linalg.solve(eye - a / 2.0, eye + a / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - impossible for skew A
        raise NumericError("Cayley solve failed: I - A/2 is singular") from exc
    return omega


def finite_diff_grad(f, x, eps: float = 1e-6) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar function.

    Test oracle only; cost is two evaluations of ``f`` per entry.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    x = as_matrix(x)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xp[i, j] += eps
            xm = x.copy()
            xm[i, j] -= eps
            grad[i, j] = (f(xp) - f(xm)) / (2.0 * eps)
    return grad
