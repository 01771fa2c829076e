"""Low-rank branch that absorbs residual-branch quantization error.

The deployed weight is ``Ŵ = Q1(W − L R) + L R``: the residual ``W − L R``
is quantized with ``q1`` and the low-rank branch ``L R`` is added back.
Starting from the truncated-SVD factors of the weight matrix, the pair
``(L, R)`` is tuned with Adam so that the quantization error of the
residual is as small as possible, which is exactly the error of ``Ŵ``.
The quantizer is treated as locally constant when differentiating, so the
gradients are closed-form.  The step loop is :func:`numerics.adam_descent`;
this module supplies the score of one iterate.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .formats import fake_quant
from .numerics import OptimizerConfig, adam_descent, as_matrix, truncated_svd

__all__ = [
    "init_factors",
    "optimize_factors",
]


def init_factors(w, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """SVD initialization: the truncated-SVD pair ``(L0, R0)`` of ``w``,
    whose residual ``W − L0 R0`` is the best rank-``rank`` one."""
    return truncated_svd(w, rank)


def optimize_factors(w, start, cfg: OptimizerConfig):
    """Run Adam on the branch ``(L, R)`` from ``start`` and return (best, trace).

    The deployed weight is ``Ŵ = Q1(W − L R) + L R``, so the loss is
    ``mean(E²)`` with ``E = Q1(W − L R) − (W − L R)``, the error of ``Ŵ``.
    With ``N = d * n`` entries and the quantizer output held constant, the
    gradients are ``(2/N) E Rᵀ`` and ``(2/N) Lᵀ E``.

    ``start`` is the pair ``(L, R)`` to start from, normally
    :func:`init_factors`; factors that are not 2-D or whose shapes do not
    multiply to ``w.shape`` raise :class:`ShapeError`.  The trace holds one
    loss value per iterate, starting at ``start``, so its length is
    ``cfg.steps + 1``; the lowest-loss pair is returned (holding the arrays
    of ``start`` when no step improves on them).  Deterministic for fixed
    inputs.  A failure raises the :class:`NumericError` of
    :func:`numerics.adam_descent`, whose ``last_iterate`` is the best pair
    so far, the start when it cannot be scored.

    The call allocates its d×n work buffers once and every iterate reuses
    them: ``residual`` takes ``W − L R``, ``err`` takes its quantization
    error through ``fake_quant(..., out=err)``, and ``residual``, dead by
    then, takes the squared error for the loss.  ``fake_quant``'s own input
    check is the only finiteness check of ``residual``.
    """
    w = as_matrix(w)
    left = as_matrix(start[0], "left factor")
    right = as_matrix(start[1], "right factor")
    if left.shape[1] != right.shape[0] or (left.shape[0], right.shape[1]) != w.shape:
        raise ShapeError(
            f"factor shapes {left.shape} x {right.shape} do not multiply to "
            f"weight shape {w.shape}"
        )
    residual = np.empty(w.shape)
    err = np.empty(w.shape)

    def score(params):
        left, right = params
        with np.errstate(over="ignore"):
            np.matmul(left, right, out=residual)
            np.subtract(w, residual, out=residual)
        try:
            fake_quant(residual, cfg.quantizer, out=err)
        except NumericError:  # fake_quant refuses a non-finite input
            raise NumericError("residual weight became non-finite") from None
        np.subtract(err, residual, out=err)
        with np.errstate(over="ignore"):
            loss = float(np.square(err, out=residual).mean())

        def grads():
            coeff = 2.0 / err.size
            return coeff * (err @ right.T), coeff * (left.T @ err)
        return loss, grads, (left, right)

    start = (left, right)
    return adam_descent(score, start, cfg, best=start)
