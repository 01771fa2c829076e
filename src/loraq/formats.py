"""Blockwise quantization codecs with bit-exact packed storage.

A format groups each matrix row into fixed-size blocks, stores one shared
scale per block, and encodes every element as a small integer or minifloat
code.  Two scale families exist:

* ``e8m0``: a power-of-two scale ``2^e`` with ``e = floor(log2(max|v| /
  codec_max))`` clamped to ``[-127, 127]`` and stored as the byte
  ``e + 127``.  An all-zero block stores ``e = -127`` (byte 0).  The floor
  makes the block maximum land exactly on ``codec_max * 2^e`` after
  saturation, so re-encoding a decoded tensor reproduces identical codes
  and scales.
* ``fp16``: ``max|v| / codec_max`` rounded to the nearest float16 and then
  bumped one ulp up whenever rounding went below the exact ratio, so the
  block maximum never saturates.  An all-zero block stores the smallest
  positive float16 (bit pattern 0x0001).

Elements are rounded to the nearest representable value with ties to even
and saturated at the codec maximum.  Rounding works on the values alone and
in place; codes are derived from the rounded values only when a tensor is
encoded, so :func:`fake_quant` never builds them.  Integers round with
``rint`` and are then clamped to ``[-codec_max, codec_max]``.  Minifloats
round by arithmetic, with no table lookup:

1. the binade exponent ``e = floor(log2|x|)`` comes from ``np.frexp`` and
   is clamped below at ``1 - bias``, the binade of the smallest normal,
   which subnormals share;
2. ``x`` is rounded with ``rint`` at the quantum ``2^(e - mantissa_bits)``
   (scaling by a power of two is exact);
3. the result is saturated at ``codec_max``.  The code saturates before
   step 1, which gives the same values because rounding is monotone and
   ``codec_max`` is on the grid, and keeps huge inputs from overflowing.

Inside the binade ``[2^e, 2^(e+1))``, and in the subnormal range below
``2^(1 - bias)``, the representable values are exactly the integer
multiples of that quantum, and the binade's upper edge ``2^(e+1)`` is both
a multiple and the next binade's first value.  So the nearest multiple is
the nearest representable value, and ``rint``'s ties-to-even picks the
even multiple, whose code has an even mantissa (the implicit leading bit
of a normal adds ``2^mantissa_bits``, which is even).  Anything past
``codec_max`` rounds to ``codec_max`` or beyond and saturates, so the e4m3
NaN pattern is never produced.  The result is bit-identical to choosing
the nearest entry of the value table with ties to the even code.  A
negative value that rounds to zero gives +0.0 with no sign bit.

Codes are packed LSB-first into little-endian bytes; each row is padded to
a whole byte independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, ParameterError, UnknownFormatError
from .numerics import as_matrix

__all__ = [
    "IntCodec",
    "MinifloatCodec",
    "PassthroughCodec",
    "FormatSpec",
    "QuantizedTensor",
    "make_format",
    "registry_names",
    "int_test_format",
    "minifloat_test_format",
    "PASSTHROUGH",
    "quantize_blockwise",
    "dequantize",
    "fake_quant",
    "encode_element",
    "decode_element",
]

_E8M0_BIAS = 127
_FP16_MAX_BITS = np.uint16(0x7BFF)  # largest finite float16


@dataclass(frozen=True)
class IntCodec:
    """Symmetric signed integers {-(2^(k-1)-1) .. 2^(k-1)-1}.

    The two's-complement pattern for -2^(k-1) is never emitted and is
    rejected on decode, which keeps the value set symmetric.
    """

    bits: int

    @property
    def width(self) -> int:
        return self.bits

    @property
    def cmax(self) -> float:
        return float(2 ** (self.bits - 1) - 1)

    def round_values(self, scaled: np.ndarray) -> np.ndarray:
        """Round onto the integer grid in place and saturate; returns ``scaled``."""
        np.rint(scaled, out=scaled)
        np.minimum(scaled, self.cmax, out=scaled)
        return np.maximum(scaled, -self.cmax, out=scaled)

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        """Two's-complement codes of values already on the grid."""
        return (values.astype(np.int64) & ((1 << self.bits) - 1)).astype(np.uint8)

    def decode_codes(self, codes: np.ndarray) -> np.ndarray:
        half = 1 << (self.bits - 1)
        c = codes.astype(np.int64)
        if np.any(c == half):
            raise FormatError(
                f"int{self.bits} code {half:#x} is outside the symmetric range"
            )
        return np.where(c >= half, c - (1 << self.bits), c).astype(np.float64)


@lru_cache(maxsize=None)
def _minifloat_tables(exp_bits: int, mantissa_bits: int, bias: int):
    """Enumerate the non-negative value set of a minifloat codec.

    Returns (values ascending, code per value, full decode table indexed by
    code with NaN at invalid patterns).  Only decoding and ``cmax`` read
    these; rounding is arithmetic.  The e4m3 all-ones pattern is the
    single invalid (NaN) code; e2mX layouts have none.
    """
    mdiv = float(1 << mantissa_bits)
    values, codes = [], []
    for e in range(1 << exp_bits):
        for m in range(1 << mantissa_bits):
            if exp_bits == 4 and e == (1 << exp_bits) - 1 and m == (1 << mantissa_bits) - 1:
                continue  # NaN pattern, never a value
            if e == 0:
                v = 2.0 ** (1 - bias) * (m / mdiv)
            else:
                v = 2.0 ** (e - bias) * (1.0 + m / mdiv)
            values.append(v)
            codes.append((e << mantissa_bits) | m)
    values = np.array(values, dtype=np.float64)
    codes = np.array(codes, dtype=np.uint8)
    width = 1 + exp_bits + mantissa_bits
    decode = np.full(1 << width, np.nan, dtype=np.float64)
    decode[codes] = values
    sign_bit = 1 << (width - 1)
    decode[codes | sign_bit] = -values
    return values, codes, decode


@dataclass(frozen=True)
class MinifloatCodec:
    """Sign + exponent + mantissa minifloat with subnormals, no infinities."""

    exp_bits: int
    mantissa_bits: int
    bias: int

    @property
    def width(self) -> int:
        return 1 + self.exp_bits + self.mantissa_bits

    @property
    def cmax(self) -> float:
        values, _, _ = _minifloat_tables(self.exp_bits, self.mantissa_bits, self.bias)
        return float(values[-1])

    def round_values(self, scaled: np.ndarray) -> np.ndarray:
        """Round to the nearest value in place, ties to even; returns ``scaled``."""
        # cmax is on the grid and rounding is monotone, so saturating first
        # gives the same result and keeps the rescaling below from overflowing
        np.minimum(scaled, self.cmax, out=scaled)
        np.maximum(scaled, -self.cmax, out=scaled)
        _, shift = np.frexp(scaled)  # |x| in [2^(shift-1), 2^shift)
        np.maximum(shift, 2 - self.bias, out=shift)
        np.subtract(self.mantissa_bits + 1, shift, out=shift)
        np.ldexp(scaled, shift, out=scaled)
        np.rint(scaled, out=scaled)
        np.negative(shift, out=shift)
        np.ldexp(scaled, shift, out=scaled)
        scaled += 0.0  # -0.0 becomes +0.0; every other value is unchanged
        return scaled

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        """Codes of values already on the grid.

        With the exponent clamped as in :meth:`round_values`, the integer
        significand ``|v| / 2^(e - mantissa_bits)`` is the mantissa field
        plus ``2^mantissa_bits`` for a normal and the mantissa field alone
        for a subnormal, so ``(e + bias - 1) << mantissa_bits`` plus the
        significand is the code without its sign bit.
        """
        mag = np.abs(values)
        _, exp = np.frexp(mag)
        exp[mag == 0.0] = 2 - self.bias  # frexp gives 0 there, not the minimum
        np.maximum(exp, 2 - self.bias, out=exp)
        significand = np.ldexp(mag, self.mantissa_bits + 1 - exp)
        codes = (exp + (self.bias - 2)) << self.mantissa_bits
        codes += significand.astype(codes.dtype)
        codes[values < 0] |= 1 << (self.width - 1)
        return codes.astype(np.uint8)

    def decode_codes(self, codes: np.ndarray) -> np.ndarray:
        _, _, decode = _minifloat_tables(
            self.exp_bits, self.mantissa_bits, self.bias
        )
        out = decode[codes.astype(np.intp)]
        if np.isnan(out).any():
            raise FormatError(
                f"invalid e{self.exp_bits}m{self.mantissa_bits} code pattern"
            )
        return out


@dataclass(frozen=True)
class PassthroughCodec:
    """Identity pseudo-codec for full-precision branches.

    ``width`` is the budget-accounting figure (16 bits/value); the payload
    is stored at full float64 precision so reconstruction is exact.
    """

    @property
    def width(self) -> int:
        return 16


Codec = IntCodec | MinifloatCodec | PassthroughCodec


@dataclass(frozen=True)
class FormatSpec:
    """A named blockwise quantization format."""

    name: str
    block_size: int
    scale_kind: str  # "fp16" | "e8m0" | "none"
    codec: Codec
    bits_per_value: int

    def __post_init__(self):
        if self.block_size < 1:
            raise ParameterError(f"block_size must be >= 1, got {self.block_size}")
        if not isinstance(self.codec, PassthroughCodec):
            if self.bits_per_value != self.codec.width:
                raise ParameterError(
                    f"bits_per_value {self.bits_per_value} does not match the "
                    f"{self.codec.width}-bit element codec"
                )
            if self.scale_kind not in ("fp16", "e8m0"):
                raise ParameterError(f"unknown scale kind {self.scale_kind!r}")

    @property
    def is_passthrough(self) -> bool:
        return isinstance(self.codec, PassthroughCodec)

    @property
    def scale_bits(self) -> int:
        return {"fp16": 16, "e8m0": 8, "none": 0}[self.scale_kind]

    def to_dict(self) -> dict:
        codec = self.codec
        if isinstance(codec, IntCodec):
            c = {"kind": "int", "bits": codec.bits}
        elif isinstance(codec, MinifloatCodec):
            c = {
                "kind": "minifloat",
                "exp_bits": codec.exp_bits,
                "mantissa_bits": codec.mantissa_bits,
                "bias": codec.bias,
            }
        else:
            c = {"kind": "passthrough"}
        return {
            "name": self.name,
            "block_size": self.block_size,
            "scale_kind": self.scale_kind,
            "codec": c,
            "bits_per_value": self.bits_per_value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FormatSpec":
        try:
            c = d["codec"]
            if c["kind"] == "int":
                codec: Codec = IntCodec(int(c["bits"]))
            elif c["kind"] == "minifloat":
                codec = MinifloatCodec(
                    int(c["exp_bits"]), int(c["mantissa_bits"]), int(c["bias"])
                )
            elif c["kind"] == "passthrough":
                codec = PassthroughCodec()
            else:
                raise FormatError(f"unknown codec kind {c['kind']!r}")
            return cls(
                name=str(d["name"]),
                block_size=int(d["block_size"]),
                scale_kind=str(d["scale_kind"]),
                codec=codec,
                bits_per_value=int(d["bits_per_value"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed format description: {exc}") from exc


_REGISTRY: dict[str, FormatSpec] = {
    "SINT4": FormatSpec("SINT4", 64, "fp16", IntCodec(4), 4),
    "MXINT4": FormatSpec("MXINT4", 32, "e8m0", IntCodec(4), 4),
    "MXINT8": FormatSpec("MXINT8", 32, "e8m0", IntCodec(8), 8),
    "MXFP4e2": FormatSpec("MXFP4e2", 32, "e8m0", MinifloatCodec(2, 1, 1), 4),
    "MXFP6e2": FormatSpec("MXFP6e2", 32, "e8m0", MinifloatCodec(2, 3, 1), 6),
    "MXFP8e4": FormatSpec("MXFP8e4", 32, "e8m0", MinifloatCodec(4, 3, 7), 8),
}

PASSTHROUGH = FormatSpec("fp16-passthrough", 1, "none", PassthroughCodec(), 16)


def registry_names() -> tuple[str, ...]:
    """Names of the registered blockwise formats."""
    return tuple(_REGISTRY)


def make_format(name: str) -> FormatSpec:
    """Look up a canonical format by name.

    Besides the registered blockwise formats this also resolves
    ``"fp16-passthrough"``, the identity pseudo-format used for
    full-precision low-rank branches.
    """
    if name == PASSTHROUGH.name:
        return PASSTHROUGH
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join([*_REGISTRY, PASSTHROUGH.name])
        raise UnknownFormatError(f"unknown format {name!r}; known: {known}") from None


def int_test_format(bits: int = 4, block_size: int = 4) -> FormatSpec:
    """Small hand-checkable integer format (not part of the registry)."""
    return FormatSpec(
        f"test-int{bits}-b{block_size}", block_size, "e8m0", IntCodec(bits), bits
    )


def minifloat_test_format(kind: str = "e2m1", block_size: int = 4) -> FormatSpec:
    """Small hand-checkable minifloat format (not part of the registry)."""
    params = {"e2m1": (2, 1, 1), "e2m3": (2, 3, 1), "e4m3": (4, 3, 7)}
    try:
        e, m, b = params[kind]
    except KeyError:
        raise ParameterError(f"unknown minifloat kind {kind!r}") from None
    codec = MinifloatCodec(e, m, b)
    return FormatSpec(f"test-{kind}-b{block_size}", block_size, "e8m0", codec, codec.width)


@dataclass
class QuantizedTensor:
    """Packed element codes plus per-block scales for one matrix.

    ``codes`` is a ``(rows, bytes_per_row)`` uint8 array; ``scales`` holds
    the stored scale representation: uint8 exponent bytes for e8m0, uint16
    float16 bit patterns for fp16, and an empty array for passthrough
    (whose codes are the raw little-endian float64 payload).
    """

    shape: tuple[int, int]
    spec: FormatSpec
    codes: np.ndarray
    scales: np.ndarray
    pad_count: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.spec == other.spec
            and self.pad_count == other.pad_count
            and self.scales.dtype == other.scales.dtype
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.scales, other.scales)
        )

    @property
    def n_blocks(self) -> int:
        if self.spec.is_passthrough:
            return 0
        return -(-self.shape[1] // self.spec.block_size)

    def scale_values(self) -> np.ndarray:
        """Per-block scales as float64, shape (rows, n_blocks)."""
        if self.spec.is_passthrough:
            return np.ones((self.shape[0], 0), dtype=np.float64)
        if self.spec.scale_kind == "e8m0":
            return np.ldexp(1.0, self.scales.astype(np.int32) - _E8M0_BIAS)
        return self.scales.view(np.float16).astype(np.float64)


def _pack_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Pack per-row code streams LSB-first into little-endian bytes."""
    rows, n = codes.shape
    if width == 8:
        return np.ascontiguousarray(codes, dtype=np.uint8)
    bits = ((codes[:, :, None] >> np.arange(width, dtype=np.uint8)) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(rows, n * width), axis=1, bitorder="little")


def _unpack_codes(packed: np.ndarray, width: int, rows: int, n: int) -> np.ndarray:
    expected = rows * (-(-(n * width) // 8))
    if packed.size != expected:
        raise FormatError(
            f"code stream holds {packed.size} bytes, expected {expected}"
        )
    if width == 8:
        return packed.reshape(rows, n).copy()
    bits = np.unpackbits(packed.reshape(rows, -1), axis=1, bitorder="little",
                         count=n * width)
    weights = (1 << np.arange(width)).astype(np.uint16)
    return (bits.reshape(rows, n, width) * weights).sum(axis=2).astype(np.uint8)


def _blocked(m: np.ndarray, block_size: int) -> tuple[np.ndarray, int]:
    rows, cols = m.shape
    n_blocks = -(-cols // block_size)
    pad = n_blocks * block_size - cols
    if pad:
        m = np.pad(m, ((0, 0), (0, pad)))
    return m.reshape(rows, n_blocks, block_size), pad


def _floor_log2_ratio(block_max: np.ndarray, cmax: float) -> np.ndarray:
    """Exact floor(log2(block_max / cmax)) without division rounding."""
    f, e = np.frexp(block_max)
    g, h = np.frexp(cmax)
    exp = e - int(h) - (f < g)
    exp = np.where(block_max == 0.0, -_E8M0_BIAS, exp)
    return np.clip(exp, -_E8M0_BIAS, _E8M0_BIAS).astype(np.int32)


def _e8m0_scales(block_max: np.ndarray, cmax: float) -> tuple[np.ndarray, np.ndarray]:
    exp = _floor_log2_ratio(block_max, cmax)
    return (exp + _E8M0_BIAS).astype(np.uint8), np.ldexp(1.0, exp)


def _fp16_scales(block_max: np.ndarray, cmax: float) -> tuple[np.ndarray, np.ndarray]:
    exact = block_max / cmax
    with np.errstate(over="ignore"):
        nearest = exact.astype(np.float16)
    bits = nearest.view(np.uint16)
    bits = np.where(nearest.astype(np.float64) < exact, bits + np.uint16(1), bits)
    bits = np.minimum(bits, _FP16_MAX_BITS)
    bits = np.where(block_max == 0.0, np.uint16(1), bits)
    return bits, bits.view(np.float16).astype(np.float64)


def _block_scales(spec: FormatSpec, block_max: np.ndarray):
    if spec.scale_kind == "e8m0":
        return _e8m0_scales(block_max, spec.codec.cmax)
    return _fp16_scales(block_max, spec.codec.cmax)


def _round_blocks(m: np.ndarray, spec: FormatSpec):
    """Shared scale/round stage.

    Returns (block values on the codec grid before rescaling, float scales,
    stored scales, pad).
    """
    blocked, pad = _blocked(m, spec.block_size)
    grid = np.abs(blocked)
    stored, scales = _block_scales(spec, grid.max(axis=2))
    np.divide(blocked, scales[:, :, None], out=grid)
    return spec.codec.round_values(grid), scales, stored, pad


def quantize_blockwise(m, spec: FormatSpec) -> QuantizedTensor:
    """Encode a matrix into packed codes and per-block scales."""
    m = as_matrix(m)
    rows, cols = m.shape
    if spec.is_passthrough:
        payload = np.ascontiguousarray(m, dtype="<f8").view(np.uint8)
        return QuantizedTensor(
            shape=(rows, cols),
            spec=spec,
            codes=payload.reshape(rows, cols * 8),
            scales=np.zeros((rows, 0), dtype=np.uint16),
            pad_count=0,
        )
    grid, _, stored, pad = _round_blocks(m, spec)
    codes = spec.codec.encode_values(grid)
    packed = _pack_codes(codes.reshape(rows, -1), spec.codec.width)
    return QuantizedTensor(
        shape=(rows, cols), spec=spec, codes=packed, scales=stored, pad_count=pad
    )


def dequantize(t: QuantizedTensor) -> np.ndarray:
    """Decode a quantized tensor back to float64 values."""
    rows, cols = t.shape
    spec = t.spec
    if spec.is_passthrough:
        if t.codes.size != rows * cols * 8:
            raise FormatError(
                f"passthrough payload holds {t.codes.size} bytes, "
                f"expected {rows * cols * 8}"
            )
        flat = np.ascontiguousarray(t.codes, dtype=np.uint8).reshape(rows, cols * 8)
        return flat.view("<f8").astype(np.float64)
    n_blocks = t.n_blocks
    padded = n_blocks * spec.block_size
    if t.scales.shape != (rows, n_blocks):
        raise FormatError(
            f"scale array has shape {t.scales.shape}, expected {(rows, n_blocks)}"
        )
    codes = _unpack_codes(t.codes, spec.codec.width, rows, padded)
    values = spec.codec.decode_codes(codes).reshape(rows, n_blocks, spec.block_size)
    values = values * t.scale_values()[:, :, None]
    return values.reshape(rows, padded)[:, :cols]


def fake_quant(m, spec: FormatSpec) -> np.ndarray:
    """Project a matrix onto the quantizer grid: dequantize(quantize(m)).

    Idempotent: applying it twice equals applying it once, bit-exactly.
    """
    m = as_matrix(m)
    if spec.is_passthrough:
        return m.copy()
    rows, cols = m.shape
    grid, scales, _, _ = _round_blocks(m, spec)
    grid *= scales[:, :, None]
    return grid.reshape(rows, -1)[:, :cols]


def encode_element(v: float, codec: Codec, scale: float) -> int:
    """Round one finite value to the codec grid at the given scale; returns the code."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    if isinstance(codec, PassthroughCodec):
        raise ParameterError("the passthrough codec has no element codes")
    if not np.isfinite(v):
        raise ParameterError(f"value must be finite, got {v}")
    grid = codec.round_values(np.array([v / scale], dtype=np.float64))
    return int(codec.encode_values(grid)[0])


def decode_element(code: int, codec: Codec, scale: float) -> float:
    """Exact inverse of :func:`encode_element` up to the sign of zero."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    if isinstance(codec, PassthroughCodec):
        raise ParameterError("the passthrough codec has no element codes")
    if not 0 <= code < (1 << codec.width):
        raise FormatError(f"code {code} does not fit in {codec.width} bits")
    return float(codec.decode_codes(np.array([code], dtype=np.uint8))[0] * scale)
