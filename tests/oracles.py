"""Slow, obviously-correct helpers that tests check the package against:
a finite-difference gradient, the Frobenius norm, one-element encode and
decode, and small hand-checkable formats outside the registry.

It also holds the math references that no pipeline stage calls, kept with
the arithmetic the package used when it exported them, so that the
optimizer loops can be checked against them bit for bit:

* :func:`absorption_loss` and :func:`absorption_grads`, the score and
  gradient of one absorption iterate (``absorber.optimize_factors``);
* :func:`rotation_loss`, the score of one rotation iterate
  (``rotation.optimize_rotation``);
* :func:`decode_codes`, the whole-array table decode of element codes
  that ``formats.dequantize`` does by byte tables;
* :func:`decoded_blocks`, ``formats.dequantize`` as it was before it
  decoded through one row-group buffer: the whole ``(rows, n_blocks *
  block_size)`` matrix, padded tail included, then a strided view of its
  real columns;
* :func:`materialized_matmul`, ``formats.matmul_dequantized`` as it was
  before the scale fold decoded one block-column slab at a time: the
  whole unscaled code matrix decoded first, then one batched matmul.
"""

import dataclasses

import numpy as np

from loraq import (
    FormatError,
    FormatSpec,
    IntCodec,
    MinifloatCodec,
    ParameterError,
    PassthroughCodec,
    QuantizedTensor,
    ShapeError,
    as_matrix,
    dequantize,
    fake_quant,
    fuse_rotation,
)
from loraq import formats


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
    return float(decode_codes(codec, np.array([code], dtype=np.uint8))[0] * scale)


def decode_codes(codec, codes: np.ndarray) -> np.ndarray:
    """Values of codes below ``2^width`` by the codec's decode table; an
    invalid pattern (int ``-2^(bits-1)``, the e4m3 NaN) raises
    :class:`FormatError`."""
    table, message = codec.decode_table()
    out = table[codes]
    if np.isnan(out).any():
        raise FormatError(message)
    return out


def _residual_error(w: np.ndarray, factors, quantizer: FormatSpec) -> np.ndarray:
    left, right = factors
    residual = w - left @ right
    return fake_quant(residual, quantizer) - residual


def absorption_loss(w, factors, quantizer: FormatSpec) -> float:
    """Mean squared quantization error of the residual ``W − L @ R``, which
    is the error of the deployed weight ``Q1(W − L R) + L R``."""
    w = as_matrix(w)
    err = _residual_error(w, factors, quantizer)
    return float(np.mean(np.square(err)))


def absorption_grads(w, factors, quantizer: FormatSpec) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form absorption gradients with the quantizer output held
    constant: with ``E = Q(W − LR) − (W − LR)`` and ``N = d * n`` entries,
    ``(2/N) E @ R.T`` and ``(2/N) L.T @ E``."""
    w = as_matrix(w)
    left, right = factors
    err = _residual_error(w, factors, quantizer)
    coeff = 2.0 / err.size
    return coeff * (err @ right.T), coeff * (left.T @ err)


def rotation_loss(left, right, omega, quantizer: FormatSpec) -> float:
    """Sum of the per-factor mean squared quantization errors after the
    rotation ``omega``; a non-orthogonal ``omega`` raises
    :class:`ParameterError` (through ``fuse_rotation``)."""
    rotated_left, rotated_right = fuse_rotation(left, right, omega)
    err_left = fake_quant(rotated_left, quantizer) - rotated_left
    err_right = fake_quant(rotated_right, quantizer) - rotated_right
    return float(np.mean(np.square(err_left)) + np.mean(np.square(err_right)))


def decoded_blocks(t: QuantizedTensor) -> np.ndarray:
    """``dequantize(t)`` by the padded decode: every row group's tile decoded
    in place into one ``(rows, n_blocks * block_size)`` matrix and multiplied
    by its block scales, and a view of the real columns returned.  An
    invalid code anywhere raises :class:`FormatError`."""
    if t.spec.is_passthrough:
        return t.codes.astype(np.float64)
    rows, cols = t.shape
    spec = t.spec
    padded = t.n_blocks * spec.block_size
    values = np.empty((rows, padded))
    scales = t.scale_values()
    for group in formats._row_groups(rows, padded):
        block = values[group]
        formats._decode_tile(spec.codec, t.codes[group], block)
        grid = block.reshape(len(block), t.n_blocks, spec.block_size)
        grid *= scales[group][:, :, None]
    return values[:, :cols]


def materialized_matmul(x, t: QuantizedTensor) -> np.ndarray:
    """``matmul_dequantized`` with the whole ``(rows, n_blocks * block_size)``
    matrix of unscaled code values decoded before the batched matmul.

    The unscaled values are ``dequantize`` of the padded tensor with every
    scale set to one, which multiplies nothing away, and an invalid code
    raises the :class:`FormatError` that ``dequantize`` raises."""
    x = as_matrix(x, "activations")
    rows, cols = t.shape
    if x.shape[1] != rows:
        raise ShapeError(f"activations have {x.shape[1]} columns, tensor has {rows} rows")
    spec = t.spec
    if spec.is_passthrough or 8 * len(x) > spec.block_size:
        return x @ dequantize(t)
    n_blocks, size = t.n_blocks, spec.block_size
    one = 1.0 if spec.scale_kind == "fp16" else 127
    unit = np.full(t.scales.shape, one, dtype=t.scales.dtype)
    codes = dequantize(dataclasses.replace(t, shape=(rows, n_blocks * size), scales=unit))
    scaled_x = np.multiply(t.scale_values().T[:, :, None], x.T, order="C")
    blocks = codes.reshape(rows, n_blocks, size).transpose(1, 2, 0)
    y = np.matmul(blocks, scaled_x)  # (n_blocks, size, m): y.T, block by block
    return y.transpose(2, 0, 1).reshape(len(x), n_blocks * size)[:, :cols]
