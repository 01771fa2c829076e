"""Seeded inputs: weights with heavy-tailed rows, activations with outlier channels.

The benchmark writes them as LQT1 files; the program only ever reads those
files (or, for the serve workload, bundles built from them).
"""

from __future__ import annotations

import numpy as np

# Student-t entries give heavy-tailed values; a log-normal scale per row
# gives rows of very different magnitude, as in trained projection weights.
_WEIGHT_T_DF = 4
_WEIGHT_SCALE = 0.02
_ROW_SCALE_SIGMA = 0.5
# A few input channels carry activations tens of times larger than the rest,
# which is what smoothing exists to migrate into the weights.
_OUTLIER_CHANNEL_FRAC = 0.01
_OUTLIER_GAIN = 30.0


def weight(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    d, n = shape
    w = rng.standard_t(_WEIGHT_T_DF, size=(d, n)) * _WEIGHT_SCALE
    w *= np.exp(rng.normal(0.0, _ROW_SCALE_SIGMA, size=d))[:, None]
    return w


def activations(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    x = rng.standard_normal((rows, d))
    n_outliers = max(1, round(_OUTLIER_CHANNEL_FRAC * d))
    x[:, rng.choice(d, size=n_outliers, replace=False)] *= _OUTLIER_GAIN
    return x
