"""Slow, obviously-correct helpers that tests check the package against:
a finite-difference gradient, the Frobenius norm, one-element encode and
decode, and small hand-checkable formats outside the registry."""

import numpy as np

from loraq import (
    FormatError,
    FormatSpec,
    IntCodec,
    MinifloatCodec,
    ParameterError,
    PassthroughCodec,
    as_matrix,
)


def frobenius_norm(a) -> float:
    """Frobenius norm, zero iff the matrix is zero."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


def finite_diff_grad(f, x, eps: float = 1e-6) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar function; two
    evaluations of ``f`` per entry."""
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


def int_test_format(bits: int = 4, block_size: int = 4) -> FormatSpec:
    """Small hand-checkable integer format (not part of the registry)."""
    return FormatSpec(f"test-int{bits}-b{block_size}", block_size, "e8m0", IntCodec(bits))


def minifloat_test_format(kind: str = "e2m1", block_size: int = 4) -> FormatSpec:
    """Small hand-checkable minifloat format (not part of the registry)."""
    params = {"e2m1": (2, 1, 1), "e2m3": (2, 3, 1), "e4m3": (4, 3, 7)}
    try:
        e, m, b = params[kind]
    except KeyError:
        raise ParameterError(f"unknown minifloat kind {kind!r}") from None
    return FormatSpec(f"test-{kind}-b{block_size}", block_size, "e8m0",
                      MinifloatCodec(e, m, b))


def encode_element(v: float, codec, scale: float) -> int:
    """Round one finite value to the codec grid at the given scale; returns the code."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    if isinstance(codec, PassthroughCodec):
        raise ParameterError("the passthrough codec has no element codes")
    if not np.isfinite(v):
        raise ParameterError(f"value must be finite, got {v}")
    grid = codec.round_values(np.array([v / scale], dtype=np.float64))
    return int(codec.encode_values(grid)[0])


def decode_element(code: int, codec, scale: float) -> float:
    """Exact inverse of :func:`encode_element` up to the sign of zero."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    if isinstance(codec, PassthroughCodec):
        raise ParameterError("the passthrough codec has no element codes")
    if not 0 <= code < (1 << codec.width):
        raise FormatError(f"code {code} does not fit in {codec.width} bits")
    return float(codec.decode_codes(np.array([code], dtype=np.uint8))[0] * scale)
