"""The correctness gate every bundle passes, and the bundle fingerprint."""

from __future__ import annotations

import hashlib
import math

import numpy as np
from loraq import bundle_io, pipeline

# forward() and the dense reconstruction differ only in summation order.
FORWARD_REL_TOL = 1e-9


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_reload(path, tally, label: str, built=None):
    """The file reloads to ``built`` (when given), and saving the loaded
    bundle reproduces the file's bytes.  Returns the loaded bundle."""
    loaded = bundle_io.load_bundle(path)
    resaved = path.with_suffix(".resaved")
    bundle_io.save_bundle(resaved, loaded)
    same_bytes = resaved.read_bytes() == path.read_bytes()
    resaved.unlink()
    tally.record(same_bytes and (built is None or loaded == built),
                 f"{label}: reload is not bit-exact")
    return loaded


def check_forward(bundle, x: np.ndarray, tally, label: str) -> None:
    """forward() agrees with ``x @ reconstruct_weight`` and is finite."""
    y = pipeline.forward(bundle, x)
    ref = x @ pipeline.reconstruct_weight(bundle, desmoothed=True)
    finite = bool(np.all(np.isfinite(y)))
    rel = np.linalg.norm(y - ref) / np.linalg.norm(ref) if finite else math.inf
    tally.record(rel <= FORWARD_REL_TOL,
                 f"{label}: forward differs from x @ W_hat by {rel:.3e} relative")


def check_weight_err(values, reference, tolerance: float, tally, label: str) -> None:
    """Each layer's weight_err_rel is no worse than its reference by ``tolerance``."""
    for i, (got, ref) in enumerate(zip(values, reference, strict=True)):
        tally.record(got <= ref * (1.0 + tolerance),
                     f"{label}: layer {i} weight_err_rel {got:.6e} exceeds "
                     f"reference {ref:.6e} by more than {tolerance:.0%}")


def fingerprint(blobs) -> str:
    """sha256 over the bundles' bytes, in layer order."""
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()
