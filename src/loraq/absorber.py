"""Low-rank shift that absorbs residual-branch quantization error.

Starting from the truncated-SVD factors of the weight matrix, the pair
``(left, right)`` is tuned with Adam so that the quantization error of the
shifted point ``W + left @ right`` is itself as close as possible to the
shift, making the error absorbable by the additive branch.  The quantizer
is treated as locally constant when differentiating, so the gradients are
closed-form.  The step loop is :func:`numerics.adam_descent`; this module
supplies the score of one iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .formats import fake_quant
from .numerics import OptimizerConfig, adam_descent, as_matrix, truncated_svd

__all__ = [
    "LowRankFactors",
    "init_factors",
    "optimize_factors",
]


@dataclass
class LowRankFactors:
    """A rank-``rank`` factor pair ``(left, right)``.

    The additive inference branch carries ``-left @ right``: the
    reconstruction is ``Q1(W - A) + A`` with ``A = -left @ right``.
    """

    left: np.ndarray
    right: np.ndarray
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ParameterError(f"rank must be >= 1, got {self.rank}")
        if self.left.shape[1] != self.rank or self.right.shape[0] != self.rank:
            raise ShapeError(
                f"factor shapes {self.left.shape} x {self.right.shape} do not "
                f"carry rank {self.rank}"
            )


def init_factors(w, rank: int) -> LowRankFactors:
    """SVD initialization: ``left = -L0`` and ``right = R0``.

    With this sign, ``W + left @ right`` equals the optimal rank-``rank``
    residual ``W - L0 @ R0``, the best possible starting point for the
    shifted quantization input.
    """
    l0, r0 = truncated_svd(w, rank)
    return LowRankFactors(-l0, r0, rank)


def _grads_from_error(err: np.ndarray,
                      factors: LowRankFactors) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form loss gradients with the quantizer output held constant.

    With ``E = Q(W + LR) - W - LR`` and ``N = d * n`` entries, the
    gradients are ``(-2/N) E @ R.T`` and ``(-2/N) L.T @ E``.
    """
    coeff = -2.0 / err.size
    return coeff * (err @ factors.right.T), coeff * (factors.left.T @ err)


def optimize_factors(w, factors: LowRankFactors,
                     cfg: OptimizerConfig) -> tuple[LowRankFactors, list[float]]:
    """Run Adam on the factor pair from ``factors`` and return (best, trace).

    ``factors`` is the starting point, normally :func:`init_factors`.  The
    trace holds one loss value per iterate, starting at ``factors``, so
    its length is ``cfg.steps + 1``; the lowest-loss iterate is returned
    (holding the arrays of ``factors`` when no step improves on them).
    Deterministic for fixed inputs.  A failure raises the
    :class:`NumericError` of :func:`numerics.adam_descent`, whose
    ``last_iterate`` is ``factors`` itself when the start cannot be scored.

    The call allocates its d×n work buffers once and every iterate reuses
    them: ``shifted`` takes ``left @ right + w`` (the same sum as ``w +
    left @ right``, since IEEE addition commutes), ``err`` takes its
    quantization error through ``fake_quant(..., out=err)``, and
    ``shifted``, dead by then, takes the squared error for the loss.
    ``fake_quant``'s own input check is the only finiteness check of
    ``shifted``.  The buffers are local to the call, so layers may be
    optimized on concurrent threads.
    """
    w = as_matrix(w)
    if (factors.left.shape[0], factors.right.shape[1]) != w.shape:
        raise ShapeError(
            f"factor shapes {factors.left.shape} x {factors.right.shape} do "
            f"not match weight shape {w.shape}"
        )
    shifted = np.empty(w.shape)
    err = np.empty(w.shape)

    def score(params):
        cand = LowRankFactors(*params, factors.rank)
        with np.errstate(over="ignore"):
            np.matmul(cand.left, cand.right, out=shifted)
            np.add(shifted, w, out=shifted)
        try:
            fake_quant(shifted, cfg.quantizer, out=err)
        except NumericError:  # fake_quant refuses a non-finite input
            raise NumericError("shifted weight became non-finite") from None
        np.subtract(err, shifted, out=err)
        with np.errstate(over="ignore"):
            loss = float(np.square(err, out=shifted).mean())
        return loss, lambda: _grads_from_error(err, cand), cand

    return adam_descent(score, (factors.left, factors.right), cfg, best=factors)
