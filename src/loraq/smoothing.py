"""Per-channel smoothing that migrates quantization difficulty into weights.

Given calibration activations, each input channel gets a positive scale
``gamma_i = act_max_i^alpha / weight_row_max_i^beta``; the weight rows are
multiplied by ``gamma`` and the activation columns divided by it, leaving
the product unchanged.  The migration strengths are picked by grid search
on the layer's output error under weight quantization.

This is the only data-dependent stage; the rest of the pipeline runs
data-free with ``gamma = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .formats import FormatSpec, fake_quant
from .numerics import as_matrix, truncated_svd

__all__ = [
    "ChannelStats",
    "SmoothingResult",
    "compute_channel_stats",
    "smoothing_vector",
    "apply_smoothing",
    "default_migration_grid",
    "grid_search_migration",
]


@dataclass
class ChannelStats:
    """Column-wise absolute maxima of a calibration activation matrix."""

    activation_max: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.activation_max = np.asarray(self.activation_max, dtype=np.float64)
        if self.activation_max.ndim != 1:
            raise ShapeError("activation_max must be a vector")
        if not np.all(np.isfinite(self.activation_max)):
            raise ParameterError("activation statistics must be finite")
        if np.any(self.activation_max < 0):
            raise ParameterError("activation maxima cannot be negative")


@dataclass
class SmoothingResult:
    """Outcome of the migration-strength search."""

    gamma: np.ndarray
    alpha_mig: float
    beta_mig: float
    search_score: float


def compute_channel_stats(x) -> ChannelStats:
    """Column-wise max of |X| over the calibration samples; a matrix with
    no rows has no maxima and raises :class:`ShapeError`."""
    x = as_matrix(x, "calibration activations")
    if x.shape[0] == 0:
        raise ShapeError("calibration activations have no rows")
    return ChannelStats(np.abs(x).max(axis=0), sample_count=x.shape[0])


def smoothing_vector(stats: ChannelStats, w, alpha_mig: float,
                     beta_mig: float) -> np.ndarray:
    """Per-channel scales ``act_max^alpha / weight_row_max^beta``.

    Channels with a zero activation max or a zero weight row fall back to
    1, the only scale that is safe for a dead channel.  A scale that
    overflows or underflows to 0 raises :class:`NumericError`.
    """
    if not (0.0 <= alpha_mig <= 1.0 and 0.0 <= beta_mig <= 1.0):
        raise ParameterError(
            f"migration strengths must be in [0, 1], got ({alpha_mig}, {beta_mig})"
        )
    w = as_matrix(w)
    act_max = stats.activation_max
    if act_max.shape[0] != w.shape[0]:
        raise ShapeError(
            f"stats cover {act_max.shape[0]} channels but the weight has "
            f"{w.shape[0]} rows"
        )
    row_max = np.abs(w).max(axis=1)
    degenerate = (act_max == 0.0) | (row_max == 0.0)
    safe_act = np.where(degenerate, 1.0, act_max)
    safe_row = np.where(degenerate, 1.0, row_max)
    with np.errstate(over="ignore"):
        gamma = np.where(degenerate, 1.0, safe_act ** alpha_mig / safe_row ** beta_mig)
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise NumericError(
            f"the smoothing vector at migration strengths ({alpha_mig}, {beta_mig}) "
            "overflows or underflows to 0")
    return gamma


def apply_smoothing(w, gamma) -> np.ndarray:
    """Scale weight rows by gamma (activations divide their columns by it)."""
    w = as_matrix(w)
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (w.shape[0],):
        raise ShapeError(
            f"gamma must have length {w.shape[0]}, got shape {gamma.shape}"
        )
    if not np.all(np.isfinite(gamma)) or np.any(gamma <= 0):
        raise ParameterError("gamma entries must be positive and finite")
    return gamma[:, None] * w


def default_migration_grid() -> list[tuple[float, float]]:
    """The default search grid {0.0, 0.1, ..., 1.0}^2 in row-major order."""
    steps = [round(0.1 * i, 1) for i in range(11)]
    return [(a, b) for a in steps for b in steps]


def _smoothed_output_score(x, w, gamma, rank: int, q1: FormatSpec,
                           reference: np.ndarray) -> float:
    w_s = apply_smoothing(w, gamma)
    x_s = x / gamma[None, :]
    l0, r0 = truncated_svd(w_s, rank)
    lowrank = l0 @ r0
    w_hat = lowrank + fake_quant(w_s - lowrank, q1)
    return float(np.mean(np.square(x_s @ w_hat - reference)))


def grid_search_migration(x_cal, w, grid, rank: int,
                          q1: FormatSpec) -> SmoothingResult:
    """Pick the migration strengths that minimize the layer's output error.

    Each candidate smooths the weight, splits it into a full-precision
    rank-``rank`` branch plus a ``q1``-quantized residual, and scores the
    output against the exact product.  Ties keep the earliest grid entry.
    A candidate whose smoothing vector or score is not finite is skipped;
    :class:`NumericError` is raised only when no candidate scores.
    """
    x_cal = as_matrix(x_cal, "calibration activations")
    w = as_matrix(w)
    grid = list(grid)
    if not grid:
        raise ParameterError("the migration grid must not be empty")
    if x_cal.shape[1] != w.shape[0]:
        raise ShapeError(
            f"activation columns {x_cal.shape[1]} must match weight rows "
            f"{w.shape[0]}"
        )
    stats = compute_channel_stats(x_cal)
    best: SmoothingResult | None = None
    # an overflow makes a score non-finite, and such a score is skipped
    with np.errstate(over="ignore", invalid="ignore"):
        reference = x_cal @ w
        for alpha_mig, beta_mig in grid:
            try:
                gamma = smoothing_vector(stats, w, alpha_mig, beta_mig)
                score = _smoothed_output_score(x_cal, w, gamma, rank, q1, reference)
            except NumericError:
                continue
            if np.isfinite(score) and (best is None or score < best.search_score):
                best = SmoothingResult(gamma, alpha_mig, beta_mig, score)
    if best is None:
        raise NumericError(
            f"no migration strengths of the {len(grid)}-point grid give a finite score")
    return best
