"""Blockwise quantization codecs with bit-exact packed storage.

A format groups each matrix row into fixed-size blocks, stores one shared
scale per block, and encodes every element as a small integer or minifloat
code.  Two scale families exist:

* ``e8m0``: a power-of-two scale ``2^e`` with ``e = floor(log2(max|v| /
  codec_max))`` clamped to ``[-127, 127]`` and stored as the byte
  ``e + 127``.  An all-zero block stores ``e = -127`` (byte 0).  The floor
  makes the block maximum land exactly on ``codec_max * 2^e`` after
  saturation, so re-encoding a decoded tensor reproduces identical codes
  and scales.  A block is scaled down by multiplying with ``2^-e``, which
  is exact for every stored ``e``, so the product is the correctly rounded
  quotient, bit for bit the division by ``2^e``.
* ``fp16``: ``max|v| / codec_max`` rounded to the nearest float16 and then
  bumped one ulp up whenever rounding went below the exact ratio, so the
  block maximum never saturates.  An all-zero block stores the smallest
  positive float16 (bit pattern 0x0001).

Elements are rounded to the nearest representable value with ties to even
and saturated at the codec maximum.  Rounding works on the values alone and
in place; codes are derived from the rounded values only when a tensor is
encoded, so :func:`fake_quant` never builds them.  Both walk the matrix in
groups of whole rows of about ``2^16`` values: every temporary of a group
(its block grid, its scales, the rounding's exponents) stays in cache, and
none is the size of the matrix.  ``fake_quant(m, spec, out=buf)`` writes
its result into ``buf``, a writeable float64 array of ``m``'s shape that
shares no memory with ``m`` (anything else raises :class:`ParameterError`,
or :class:`ShapeError` for a wrong shape), so a loop that reuses one such
buffer allocates nothing of the matrix's size.  The result is the same with
or without ``out``, bit for bit.

Integers round with ``rint`` and are then clamped to ``[-codec_max,
codec_max]``.  Minifloats round by arithmetic, with no table lookup:

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

Encoding an on-grid minifloat value is one lookup.  Every value a codec can
represent is a normal float64 (its parameters are refused otherwise), and
a value on the grid has at most ``mantissa_bits`` fraction bits after its
leading one.  So the float64 bit field ``bits >> (52 - mantissa_bits)``,
read as a signed integer, holds the value's sign, its float64 exponent and
its top fraction bits, and fixes the value, hence its code.  A per-codec
``uint8`` table of ``2^(12 + mantissa_bits)`` entries maps that field to
the code: a negative value's field is negative, and indexes from the end
of the table, where the sign-bit codes sit.  Both zeros encode as code 0.

Codes are packed LSB-first into little-endian bytes; each row is padded to
a whole byte independently, with zero bits.  Packing and unpacking work on
whole words with integer operations only.  A row is read as groups of
``lcm(width, 8) / 8`` bytes (1 byte for widths 1, 2 and 4, 3 for width 6, 5
or 7 for widths 5 and 7), each group one little-endian word holding
``lcm(width, 8) / width`` codes; code ``j`` of a word is ``(word >>
j * width) & (2^width - 1)``.  For width 4 that is the nibble split ``b &
15``, ``b >> 4``.  A row whose bytes do not fill its last word is read as
if zero bytes followed, and bits past a row's last code are ignored.
Packing is the mirror: OR each code into its word at ``j * width``, then
split the words into bytes.  8-bit codes are the bytes themselves.

That layout is decided in this module alone.  :meth:`FormatSpec.stored_arrays`
gives the shape and dtype of a matrix's codes and scales (block count,
bytes per code row; ``u1`` codes or a passthrough's ``<f8`` values,
``<f2`` or ``u1`` scales), and is the only place that picks a stored
dtype.  :class:`QuantizedTensor` refuses arrays that do not match it, or
values out of their domain, when it is built, keeps read-only copies and
derives its pad count; the bundle's chunk plan and the budget accounting
read it verbatim.

Decoding looks values up in a per-codec table of ``2^width`` float64s,
indexed by code: the two's-complement value for integers, the sign,
exponent and mantissa value for minifloats.  The table holds NaN at the
patterns no encoder emits (the integer ``-2^(k-1)`` and the e4m3 all-ones
NaN), and a :class:`QuantizedTensor` that holds one, the padded tail of a
row included, cannot be built, so decoding never raises.  Each lookup
decodes a field of ``count`` adjacent codes through a cached, read-only
table of ``2^(count * width)`` entries, each entry the field's ``count``
values, LSB first, as one raw ``8 * count``-byte element, so one
lookup writes them all.  ``count`` is fixed per tensor by its rows of
``n_blocks * block_size`` codes:

* when the width divides 8 (1, 2, 4 or 8 bits) and the rows fill whole
  bytes, the field is a packed byte (``count = 8 / width``, 256 entries)
  and nothing is unpacked; for width 8 the table is the code table;
* for any other width, rows that fill whole words are read by the word
  path at twice the width, so their fields are adjacent pairs (``count =
  2``: 4096 entries, 64 KB, for 6-bit codes), built from the rows' bytes
  with no zero-filled buffer;
* rows that end mid-byte or mid-word are unpacked by the word path and
  looked up code by code.

A tensor's lookup fields are a memo of its read-only codes: the packed
bytes themselves when a field is one byte, else a ``(rows, n_blocks *
block_size / count)`` array (``uint16`` pairs for 6-bit codes, one byte
per code) that its first decode unpacks one row group at a time.  Each
decode looks the fields up one tile at a time into a preallocated tile of
about ``2^16`` values (``np.take`` copies one tile's fields to ``intp``,
never the whole matrix's).  Decoded values are never kept: a float64 per
code is eight times the fields of 6-bit codes.

One row-group decoder decodes tiles of whole rows, multiplies each by its
scales, converted from the group's stored scales, and hands on its real
columns: :func:`dequantize` writes them into a C-contiguous ``(rows,
cols)`` result (decoding in place when the rows have no padded tail).
When ``x`` has at most an eighth as many rows as a block holds values,
:func:`matmul_dequantized` multiplies the scales into ``x`` instead, block
by block: that touches ``m * rows * n_blocks`` values where scaling the
decoded matrix touches ``rows * n_blocks * block_size``, at the price of
one narrow matmul per block.  It decodes slabs of all rows and ``k`` whole
block columns into one reused buffer and multiplies each slab's blocks
with one batched matmul, so the unscaled matrix is never built.  ``k`` is
a multiple of the blocks whose codes fill whole packed words, so a slab's
codes start on a word and its fields are whole columns of the tensor's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import FormatError, ParameterError, ShapeError, UnknownFormatError
from .numerics import as_matrix

__all__ = [
    "IntCodec",
    "MinifloatCodec",
    "PassthroughCodec",
    "FormatSpec",
    "QuantizedTensor",
    "make_format",
    "registry_names",
    "PASSTHROUGH",
    "quantize_blockwise",
    "dequantize",
    "matmul_dequantized",
    "fake_quant",
]

_E8M0_BIAS = 127
_FP16_MAX_BITS = np.uint16(0x7BFF)  # largest finite float16


@dataclass(frozen=True)
class IntCodec:
    """Symmetric signed integers {-(2^(k-1)-1) .. 2^(k-1)-1}.

    The two's-complement pattern for -2^(k-1) is never emitted and is
    rejected on decode, which keeps the value set symmetric.
    """

    kind = "int"  # a format description's name for the codec, not a field
    bits: int

    def __post_init__(self):
        if self.bits < 2:
            # one bit leaves only zero, so no block could get a finite scale
            raise ParameterError(f"int codec needs at least 2 bits, got {self.bits}")

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

    def decode_table(self) -> tuple[np.ndarray, str]:
        """The value of each code, NaN at the pattern ``-2^(bits-1)``, and
        the message that pattern raises."""
        return _int_table(self.bits), (
            f"int{self.bits} code {1 << (self.bits - 1):#x} is outside the "
            "symmetric range"
        )


@lru_cache(maxsize=None)
def _int_table(bits: int) -> np.ndarray:
    """Decode table of an int codec, indexed by code: the two's-complement
    value, and NaN at the excluded pattern ``-2^(bits-1)``."""
    half = 1 << (bits - 1)
    codes = np.arange(1 << bits)
    table = np.where(codes >= half, codes - (1 << bits), codes).astype(np.float64)
    table[half] = np.nan
    table.flags.writeable = False
    return table


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
    for table in (values, codes, decode):
        table.flags.writeable = False  # shared by every caller of the cache
    return values, codes, decode


@lru_cache(maxsize=None)
def _minifloat_encode_table(exp_bits: int, mantissa_bits: int, bias: int) -> np.ndarray:
    """Encode table of a minifloat codec, indexed by the float64 bit field
    ``bits >> (52 - mantissa_bits)`` of an on-grid value (negative fields
    index from the end).  Entries no grid value reaches hold 0."""
    values, codes, _ = _minifloat_tables(exp_bits, mantissa_bits, bias)
    shift = 52 - mantissa_bits
    sign_bit = 1 << (exp_bits + mantissa_bits)
    table = np.zeros(1 << (12 + mantissa_bits), dtype=np.uint8)
    table[values.view(np.int64) >> shift] = codes
    nonzero = values > 0.0
    table[(-values[nonzero]).view(np.int64) >> shift] = codes[nonzero] | sign_bit
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class MinifloatCodec:
    """Sign + exponent + mantissa minifloat with subnormals, no infinities."""

    kind = "minifloat"
    exp_bits: int
    mantissa_bits: int
    bias: int

    def __post_init__(self):
        # float64 has 11 exponent bits; the bound comes before 1 << exp_bits
        if not 1 <= self.exp_bits <= 11 or self.mantissa_bits < 0:
            raise ParameterError(
                f"minifloat needs 1 <= exp_bits <= 11 and mantissa_bits >= 0, got "
                f"e{self.exp_bits}m{self.mantissa_bits}"
            )
        # every value must be a finite, normal float64: the smallest nonzero
        # one is 2^(1 - bias - mantissa_bits), the largest below
        # 2^(2^exp_bits - bias); encoding reads their float64 bit fields
        low = (1 << self.exp_bits) - 1024
        high = 1023 - self.mantissa_bits
        if not low <= self.bias <= high:
            raise ParameterError(
                f"e{self.exp_bits}m{self.mantissa_bits} bias must be in "
                f"[{low}, {high}], got {self.bias}"
            )

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
        """Codes of values already on the grid: one lookup of each value's
        float64 bit field ``bits >> (52 - mantissa_bits)``."""
        table = _minifloat_encode_table(self.exp_bits, self.mantissa_bits, self.bias)
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        return table[bits >> (52 - self.mantissa_bits)]

    def decode_table(self) -> tuple[np.ndarray, str]:
        """The value of each code, NaN at the e4m3 NaN pattern, and the
        message an invalid pattern raises."""
        _, _, decode = _minifloat_tables(
            self.exp_bits, self.mantissa_bits, self.bias
        )
        return decode, f"invalid e{self.exp_bits}m{self.mantissa_bits} code pattern"


@dataclass(frozen=True)
class PassthroughCodec:
    """Identity pseudo-codec for full-precision branches.

    ``width`` is the budget-accounting figure (16 bits/value); the payload
    is stored at full float64 precision so reconstruction is exact.
    """

    kind = "passthrough"

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

    def __post_init__(self):
        if self.block_size < 1:
            raise ParameterError(f"block_size must be >= 1, got {self.block_size}")
        if self.is_passthrough:
            if self.scale_kind != "none":
                raise ParameterError(
                    f"the passthrough codec has no scales, got scale kind "
                    f"{self.scale_kind!r}"
                )
            return
        if not 1 <= self.codec.width <= 8:
            # codes are stored as uint8 and packed into words of whole bytes
            raise ParameterError(
                f"element codes must be 1 to 8 bits wide, got {self.codec.width}"
            )
        if self.scale_kind not in ("fp16", "e8m0"):
            raise ParameterError(f"unknown scale kind {self.scale_kind!r}")

    @property
    def is_passthrough(self) -> bool:
        return isinstance(self.codec, PassthroughCodec)

    @property
    def bits_per_value(self) -> int:
        """Bits per stored element: the codec width (16 for passthrough)."""
        return self.codec.width

    def stored_arrays(self, shape: tuple[int, int]) -> tuple[tuple[tuple, np.dtype], ...]:
        """``((codes shape, codes dtype), (scales shape, scales dtype))`` of a
        ``shape`` matrix in this format.  Codes are ``u1`` bytes ``(rows,
        row_bytes)``, where a row of ``n_blocks`` whole blocks packs into
        ``row_bytes`` bytes, and scales are ``(rows, n_blocks)``: ``<f2``
        for fp16, ``u1`` exponent bytes for e8m0.  A passthrough stores its
        ``<f8`` values at the matrix's own shape and an empty ``u1`` scale
        array ``(rows, 0)``."""
        rows, cols = shape
        if self.is_passthrough:
            return ((rows, cols), np.dtype("<f8")), ((rows, 0), np.dtype("u1"))
        n_blocks = -(-cols // self.block_size)
        row_bytes = -(-(n_blocks * self.block_size * self.codec.width) // 8)
        scales = np.dtype("<f2" if self.scale_kind == "fp16" else "u1")
        return ((rows, row_bytes), np.dtype("u1")), ((rows, n_blocks), scales)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "block_size": self.block_size,
            "scale_kind": self.scale_kind,
            "codec": {"kind": self.codec.kind, **asdict(self.codec)},
            "bits_per_value": self.bits_per_value,
        }


# Typed readers for JSON from outside (manifests, config files): each returns
# ``value`` if it has the JSON type asked for, and otherwise raises
# ``TypeError("{label} must be ..., got {value!r}")``.

def json_int(value, label: str) -> int:
    """A JSON integer; a float, a string or a boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{label} must be an integer, got {value!r}")
    return value


def json_number(value, label: str) -> float:
    """A finite JSON number (an integer included), as a float; a boolean, a
    string, NaN or an infinity is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise TypeError(f"{label} must be a finite number, got {value!r}")
    return number


def _json_reader(kind: type, what: str):
    def read(value, label: str):
        if not isinstance(value, kind):
            raise TypeError(f"{label} must be {what}, got {value!r}")
        return value
    return read


json_bool = _json_reader(bool, "true or false")
json_str = _json_reader(str, "a string")
json_object = _json_reader(dict, "an object")


_REGISTRY: dict[str, FormatSpec] = {
    "SINT4": FormatSpec("SINT4", 64, "fp16", IntCodec(4)),
    "MXINT4": FormatSpec("MXINT4", 32, "e8m0", IntCodec(4)),
    "MXINT8": FormatSpec("MXINT8", 32, "e8m0", IntCodec(8)),
    "MXFP4e2": FormatSpec("MXFP4e2", 32, "e8m0", MinifloatCodec(2, 1, 1)),
    "MXFP6e2": FormatSpec("MXFP6e2", 32, "e8m0", MinifloatCodec(2, 3, 1)),
    "MXFP8e4": FormatSpec("MXFP8e4", 32, "e8m0", MinifloatCodec(4, 3, 7)),
}

PASSTHROUGH = FormatSpec("fp16-passthrough", 1, "none", PassthroughCodec())


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


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    """Packed element codes plus per-block scales for one matrix.

    ``codes`` is a ``(rows, row_bytes)`` byte array, each row its
    ``n_blocks`` whole blocks of codes packed LSB-first; ``scales`` is a
    ``(rows, n_blocks)`` array: exponent bytes for e8m0, float16 values
    for fp16.  A passthrough tensor's codes are its float64 values at the
    matrix's own shape, and its scales are empty.  Construction refuses any
    other dtype or shape (:meth:`FormatSpec.stored_arrays`) or invalid code
    pattern, the padded tail included, with :class:`FormatError`, and an
    fp16 scale that is not finite and positive or a passthrough value that
    is not finite with :class:`ParameterError`, so a decode never raises
    and is finite.  The tensor keeps read-only copies of both arrays,
    leaving the caller's as they were; its lookup fields are a memo of its
    codes.  ``pad_count`` is derived from the shape.  Two tensors are equal
    when their arrays hold the same bytes, so ``-0.0`` and ``0.0`` differ.
    """

    shape: tuple[int, int]
    spec: FormatSpec
    codes: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        for name, (shape, dtype) in zip(("codes", "scales"),
                                        self.spec.stored_arrays(self.shape)):
            array = getattr(self, name)
            if not isinstance(array, np.ndarray):
                raise FormatError(f"{name} must be a numpy array, got {type(array)}")
            if array.dtype != dtype or array.shape != shape:
                raise FormatError(f"{self.spec.name} {name} must be {dtype} {shape}, "
                                  f"got {array.dtype} {array.shape}")
            kept = array.copy()  # its own, so no caller's array can change it
            kept.flags.writeable = False
            object.__setattr__(self, name, kept)
        if self.spec.is_passthrough:
            if not np.isfinite(self.codes).all():
                raise ParameterError("passthrough value is not finite")
        elif self.spec.scale_kind == "fp16" and not (
                np.isfinite(self.scales) & (self.scales > 0)).all():
            raise ParameterError("fp16 scale is not finite and positive")
        _check_codes(self)

    def __reduce__(self):
        # a copy or an unpickled tensor is built anew: checked, and with no
        # fields until its first decode
        return QuantizedTensor, (self.shape, self.spec, self.codes, self.scales)

    @cached_property
    def _fields(self) -> np.ndarray:
        """The lookup fields of the codes (:func:`_lookup_fields`), which
        every decode reads: a memo of the read-only codes, built on first
        use."""
        return _lookup_fields(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.spec == other.spec
            # compared as unsigned integers of their width: equal means equal bits
            and all(np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
                    for a, b in ((self.codes, other.codes), (self.scales, other.scales)))
        )

    @property
    def n_blocks(self) -> int:
        return self.scales.shape[1]

    @property
    def pad_count(self) -> int:
        """Codes past the last column: ``n_blocks * block_size - cols``."""
        if self.spec.is_passthrough:
            return 0
        return self.n_blocks * self.spec.block_size - self.shape[1]

    def scale_values(self) -> np.ndarray:
        """Per-block scales as float64, shape (rows, n_blocks)."""
        return _scale_values(self.spec, self.scales)


def _scale_values(spec: FormatSpec, stored: np.ndarray) -> np.ndarray:
    """Stored scales of ``spec`` as float64 values, element by element."""
    if spec.scale_kind == "e8m0":
        return np.ldexp(1.0, stored.astype(np.int32) - _E8M0_BIAS)
    return stored.astype(np.float64)


def _word_layout(width: int) -> tuple[int, int, np.dtype]:
    """``(bytes, codes, dtype)`` of one word: ``lcm(width, 8) / 8`` bytes
    holding ``lcm(width, 8) / width`` codes, read as the narrowest
    little-endian unsigned integer that holds them."""
    group = math.lcm(width, 8) // 8
    dtype = "u1" if group == 1 else "<u4" if group <= 4 else "<u8"
    return group, 8 * group // width, np.dtype(dtype)


def _pack_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Pack per-row code streams LSB-first into little-endian bytes.

    Codes must fit in ``width`` bits.  Each word of :func:`_word_layout` is
    the OR of its codes shifted into place, split back into bytes.
    """
    rows, n = codes.shape
    group, per_word, dtype = _word_layout(width)
    words = -(-n // per_word)
    if words * per_word != n:
        codes = np.pad(codes, ((0, 0), (0, words * per_word - n)))
    codes = codes.reshape(rows, words, per_word)
    word = codes[:, :, 0].astype(dtype)
    for j in range(1, per_word):
        word |= codes[:, :, j].astype(dtype, copy=False) << dtype.type(j * width)
    packed = word.view(np.uint8).reshape(rows, words, dtype.itemsize)[:, :, :group]
    row_bytes = -(-(n * width) // 8)
    return np.ascontiguousarray(packed.reshape(rows, words * group)[:, :row_bytes])


def _codes_dtype(width: int) -> np.dtype:
    """The dtype of unpacked codes of ``width`` bits."""
    return np.dtype(np.uint8 if width <= 8 else np.uint16)


def _unpack_codes(packed: np.ndarray, width: int, rows: int, n: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_pack_codes`: ``(rows, n)`` codes, each below ``2^width``.

    Bits past the ``n``-th code of a row are ignored.  ``width`` may be up
    to 16: ``n`` codes of ``w`` bits, read as ``n / 2`` codes of ``2 * w``
    bits, come out as ``uint16`` pairs with the first code in the low bits.
    The codes are written into ``out`` when it is given, a ``(rows, n)``
    array of :func:`_codes_dtype`, which is returned.
    """
    row_bytes = -(-(n * width) // 8)
    if packed.size != rows * row_bytes:
        raise FormatError(
            f"code stream holds {packed.size} bytes, expected {rows * row_bytes}"
        )
    packed = packed.reshape(rows, row_bytes)
    group, per_word, dtype = _word_layout(width)
    words = -(-row_bytes // group)
    if group == 1:
        word = packed
    else:
        if words * group != row_bytes:  # a row ending mid-word reads on as zeros
            packed = np.pad(packed, ((0, 0), (0, words * group - row_bytes)))
        grouped = packed.reshape(rows, words, group)
        word = grouped[:, :, 0].astype(dtype)
        for k in range(1, group):
            word |= grouped[:, :, k].astype(dtype) << dtype.type(8 * k)
    mask = word.dtype.type((1 << width) - 1)
    codes = np.empty((rows, n), dtype=_codes_dtype(width)) if out is None else out
    for j in range(per_word):
        shifted = word >> word.dtype.type(j * width) if j else word
        column = codes[:, j::per_word]  # code j of every word, up to the n-th code
        np.bitwise_and(shifted[:, :column.shape[1]], mask, out=column, casting="unsafe")
    return codes


@lru_cache(maxsize=None)
def _code_table(codec: IntCodec | MinifloatCodec, count: int) -> np.ndarray:
    """Decode table indexed by a field of ``count`` adjacent codes.

    Entry ``f`` holds the values of the ``count`` codes in ``f``, LSB
    first, as one element of ``8 * count`` bytes: the float64 code table
    itself for one code, raw bytes otherwise.  Taking an entry copies those
    bytes unchanged, so one lookup writes ``count`` float64s.
    """
    table, _ = codec.decode_table()
    if count == 1:
        return table
    width = codec.width
    shifts = np.arange(count) * width
    codes = (np.arange(1 << (count * width))[:, None] >> shifts) & ((1 << width) - 1)
    entries = np.ascontiguousarray(table[codes]).view(np.dtype((np.void, 8 * count)))
    entries = entries.reshape(-1)
    entries.flags.writeable = False
    return entries


def _blocked(m: np.ndarray, block_size: int) -> np.ndarray:
    """``m`` as ``(rows, n_blocks, block_size)``, zero-padded to whole blocks."""
    rows, cols = m.shape
    pad = -cols % block_size
    if pad:
        m = np.pad(m, ((0, 0), (0, pad)))
    return m.reshape(rows, (cols + pad) // block_size, block_size)


_GROUP_VALUES = 1 << 16  # values per row group; its temporaries stay in cache


def _row_groups(rows: int, row_values: int) -> list[slice]:
    """Consecutive slices of whole rows, about ``_GROUP_VALUES`` values each."""
    step = max(1, _GROUP_VALUES // max(row_values, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _floor_log2_ratio(block_max: np.ndarray, cmax: float) -> np.ndarray:
    """Exact floor(log2(block_max / cmax)) without division rounding."""
    f, exp = np.frexp(block_max)
    g, h = math.frexp(cmax)
    exp -= h
    exp -= f < g
    exp[block_max == 0.0] = -_E8M0_BIAS
    np.maximum(exp, -_E8M0_BIAS, out=exp)
    return np.minimum(exp, _E8M0_BIAS, out=exp)


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
    halves = np.where(block_max == 0.0, np.uint16(1), bits).view(np.float16)
    return halves, halves.astype(np.float64)


def _block_scales(spec: FormatSpec, block_max: np.ndarray):
    if spec.scale_kind == "e8m0":
        return _e8m0_scales(block_max, spec.codec.cmax)
    return _fp16_scales(block_max, spec.codec.cmax)


def _round_blocks(m: np.ndarray, spec: FormatSpec):
    """Shared scale/round stage for one row group.

    Returns (block values on the codec grid before rescaling, float scales,
    stored scales).
    """
    blocked = _blocked(m, spec.block_size)
    grid = np.abs(blocked)
    stored, scales = _block_scales(spec, grid.max(axis=2))
    if spec.scale_kind == "e8m0":
        # 2^-e is exact, so the product is the correctly rounded quotient
        np.multiply(blocked, 1.0 / scales[:, :, None], out=grid)
    else:
        np.divide(blocked, scales[:, :, None], out=grid)
    return spec.codec.round_values(grid), scales, stored


def quantize_blockwise(m, spec: FormatSpec) -> QuantizedTensor:
    """Encode a matrix into packed codes and per-block scales."""
    m = as_matrix(m)
    rows, cols = m.shape
    _, (scales_shape, scales_dtype) = spec.stored_arrays((rows, cols))
    stored = np.empty(scales_shape, dtype=scales_dtype)
    if spec.is_passthrough:  # the tensor copies the values it is given
        return QuantizedTensor((rows, cols), spec, m, stored)
    padded = scales_shape[1] * spec.block_size
    codes = np.empty((rows, padded), dtype=np.uint8)
    for group in _row_groups(rows, padded):
        grid, _, stored[group] = _round_blocks(m[group], spec)
        codes[group] = spec.codec.encode_values(grid).reshape(len(grid), -1)
    packed = _pack_codes(codes, spec.codec.width)
    return QuantizedTensor((rows, cols), spec, packed, stored)


def _codes_per_lookup(t: QuantizedTensor) -> int:
    """How many adjacent codes of a tensor one table lookup decodes: a
    whole packed byte's when the width divides 8 and the rows of ``padded
    = n_blocks * block_size`` codes fill whole bytes, a pair when the rows
    fill whole words of a width that does not, else one."""
    width = t.spec.codec.width
    padded = t.n_blocks * t.spec.block_size
    if 8 % width == 0:
        return 8 // width if padded * width % 8 == 0 else 1
    return 2 if padded % _word_layout(width)[1] == 0 else 1


def _decode_tile(codec: IntCodec | MinifloatCodec, fields: np.ndarray,
                 out: np.ndarray) -> None:
    """Look a tile's fields up into ``out``, a C-contiguous ``(rows, n)``
    float64 array: row ``i`` of ``fields`` holds the ``n`` codes of row
    ``i`` as lookup fields of ``n / fields.shape[1]`` codes each (its
    packed bytes, when a field is one byte)."""
    n = out.shape[1]
    lookup = _code_table(codec, n // fields.shape[1] if n else 1)
    # take copies a tile's indices to intp, never the matrix's
    np.take(lookup, fields, out=out.view(lookup.dtype), mode="clip")


def _lookup_fields(t: QuantizedTensor) -> np.ndarray:
    """The ``(rows, n_blocks * block_size / count)`` lookup fields of
    ``count = _codes_per_lookup(t)`` codes each of a tensor: its packed
    bytes when a field is one byte, else unpacked one row group at a time."""
    count = _codes_per_lookup(t)
    width = count * t.spec.codec.width
    if width == 8:
        return t.codes
    rows = t.shape[0]
    n = t.n_blocks * t.spec.block_size // count
    fields = np.empty((rows, n), dtype=_codes_dtype(width))
    for group in _row_groups(rows, n * count):
        block = fields[group]
        _unpack_codes(t.codes[group], width, len(block), n, block)
    return fields


def _check_codes(t: QuantizedTensor) -> None:
    """Refuse, with :class:`FormatError`, a tensor that holds a code whose
    value is NaN in the codec's table, the padded tail included: each row
    group's lookup fields, unpacked and dropped when they must be, are
    compared in each code slot with each such pattern."""
    if t.spec.is_passthrough:
        return
    codec = t.spec.codec
    table, message = codec.decode_table()
    invalid = np.flatnonzero(np.isnan(table))
    if not invalid.size:
        return
    count = _codes_per_lookup(t)
    width = count * codec.width
    dtype = _codes_dtype(width)
    # each slot's mask and each invalid pattern in that slot, in the
    # fields' dtype: int64 operands would promote every comparison
    slots = [(dtype.type(((1 << codec.width) - 1) << shift),
              (invalid << shift).astype(dtype))
             for shift in range(0, width, codec.width)]
    n = t.n_blocks * t.spec.block_size // count
    for group in _row_groups(t.shape[0], n):  # about _GROUP_VALUES fields each
        codes = t.codes[group]
        fields = codes if width == 8 else _unpack_codes(codes, width, len(codes), n)
        for mask, patterns in slots:
            slot = fields & mask
            if any((slot == pattern).any() for pattern in patterns):
                raise FormatError(message)


def _decoded_groups(t: QuantizedTensor, out: np.ndarray | None = None):
    """Yield ``(rows, values)`` for consecutive row groups of a tensor:
    ``values`` holds the ``(rows_g, cols)`` decoded values of the slice
    ``rows``, multiplied by their block scales (a passthrough tensor's
    values copied).  The groups share one buffer of about ``_GROUP_VALUES``
    values, which the caller may overwrite: a group's values are only
    valid until the next is yielded.  When the rows have no padded tail and
    ``out``, a C-contiguous ``(rows, cols)`` float64 array, is given, each
    group is decoded into its own rows of ``out`` instead.  Each group's
    scales are converted from its stored scales when its turn comes."""
    rows, cols = t.shape
    spec = t.spec
    padded = cols if spec.is_passthrough else t.n_blocks * spec.block_size
    groups = _row_groups(rows, padded)
    in_place = out is not None and padded == cols
    if not in_place:
        buffer = np.empty(min(groups[0].stop, rows) * padded if groups else 0)
    for group in groups:
        codes = t.codes[group]
        tile = (out[group] if in_place
                else buffer[:len(codes) * padded].reshape(len(codes), padded))
        if spec.is_passthrough:
            tile[...] = codes
        else:
            _decode_tile(spec.codec, t._fields[group], tile)
            grid = tile.reshape(len(codes), t.n_blocks, spec.block_size)
            grid *= _scale_values(spec, t.scales[group])[:, :, None]
        yield group, tile[:, :cols]


def dequantize(t: QuantizedTensor) -> np.ndarray:
    """Decode a quantized tensor back to float64 values: a new C-contiguous
    ``(rows, cols)`` array, the one matrix-sized array the call holds.  The
    codes are decoded one row group at a time, into the result's rows when
    they have no padded tail, else into a buffer of about ``_GROUP_VALUES``
    values whose real columns are copied out, so the padded tail of the
    rows is never stored for the whole matrix."""
    out = np.empty(t.shape)
    for group, values in _decoded_groups(t, out):
        if values.base is not out:  # decoded into the shared buffer
            out[group] = values
    return out


def _slab_blocks(spec: FormatSpec, rows: int) -> int:
    """Block columns per slab of ``rows`` rows: about ``_GROUP_VALUES``
    values, and a multiple of the blocks whose codes fill whole packed
    words, so every slab but a row's last starts and ends on a word."""
    per_word = _word_layout(spec.codec.width)[1]
    unit = per_word // math.gcd(per_word, spec.block_size)
    blocks = max(1, _GROUP_VALUES // max(rows * spec.block_size, 1))
    return -(-blocks // unit) * unit


def matmul_dequantized(x, t: QuantizedTensor) -> np.ndarray:
    """``x @ dequantize(t)`` up to rounding, for a finite 2-D ``x`` with one
    column per row of ``t`` (else :class:`NumericError` or
    :class:`ShapeError`).

    When ``x`` has at most an eighth as many rows as a block has values,
    the block scales go into the activations instead of the decoded codes:
    block ``b`` of the result is ``(x * s[:, b]) @ T[:, b]``, where ``T``
    holds the unscaled code values and ``s`` the scales, and all blocks run
    as one batched matmul.  Otherwise, and for passthrough, this is ``x @
    dequantize(t)``.  The choice is a cost model: scaling ``x`` touches
    ``m * rows * n_blocks`` values where scaling ``T`` touches ``rows *
    n_blocks * block_size``, but the fold also trades one matmul for
    ``n_blocks`` narrow ones, which run several times slower per
    multiply-add.  The fold decodes the codes a slab of block columns at a
    time and never holds the decoded matrix, so it also spares the memory
    traffic of writing and rereading it.  Measured on 1024 x 1024 tensors
    (2-vCPU Xeon, numpy 2.4.6 with OpenBLAS, on a shared host), the fold
    stopped paying at 12 to 14 rows for blocks of 64 and 8 to 12 for
    blocks of 32, and at ``m = block_size - 1`` it took about twice as
    long as decoding with the scales.  The rule stays at an eighth of a
    block (8 and 4 rows), where the fold is 1.3 to 2 times as fast:
    moving it would change the last bits of every product with fp16
    scales whose row count crosses it.  Either way only the order of the
    sums may differ, except that a product with an fp16 scale rounds once
    more when folded (e8m0 scales are powers of two, so folding them is
    exact).
    """
    return dequantized_product(as_matrix(x, "activations"), t)


def dequantized_product(x: np.ndarray, t: QuantizedTensor) -> np.ndarray:
    """:func:`matmul_dequantized` of a 2-D float64 ``x`` that is not
    checked for finiteness: a caller that checks its own result, as
    ``forward`` does, passes on what an earlier product overflowed to."""
    rows, cols = t.shape
    if x.shape[1] != rows:
        raise ShapeError(f"activations have {x.shape[1]} columns, tensor has {rows} rows")
    spec = t.spec
    if spec.is_passthrough or 8 * len(x) > spec.block_size:
        return x @ dequantize(t)
    n_blocks, size = t.n_blocks, spec.block_size
    # (n_blocks, rows, m): block b's scales times the activations, transposed
    scaled_x = np.multiply(t.scale_values().T[:, :, None], x.T, order="C")
    y = np.empty((n_blocks, size, len(x)))  # y.T, block by block
    step = _slab_blocks(spec, rows)
    buffer = np.empty(rows * min(step, n_blocks) * size)
    fields, count = t._fields, _codes_per_lookup(t)
    for first in range(0, n_blocks, step):
        last = min(first + step, n_blocks)
        n = (last - first) * size
        slab = buffer[:rows * n].reshape(rows, n)
        # the slab starts on a word, and ends on one or at the rows' end
        _decode_tile(spec.codec, fields[:, first * size // count:last * size // count],
                     slab)
        blocks = slab.reshape(rows, last - first, size).transpose(1, 2, 0)
        np.matmul(blocks, scaled_x[first:last], out=y[first:last])
    return y.transpose(2, 0, 1).reshape(len(x), n_blocks * size)[:, :cols]


def _check_out(out, shape: tuple[int, int]) -> None:
    """Refuse ``out`` unless it is a writeable float64 array of ``shape``."""
    if not isinstance(out, np.ndarray) or out.dtype != np.float64:
        raise ParameterError("out must be a float64 numpy array")
    if out.shape != shape:
        raise ShapeError(f"out has shape {out.shape}, expected {shape}")
    if not out.flags.writeable:
        raise ParameterError("out must be writeable")


def _destination(m: np.ndarray, out) -> np.ndarray:
    """``out`` checked as a destination for a result of ``m``'s shape, or a
    new array when ``out`` is None."""
    if out is None:
        return np.empty(m.shape)
    _check_out(out, m.shape)
    if np.may_share_memory(out, m):
        raise ParameterError("out must not overlap the input")
    return out


def fake_quant(m, spec: FormatSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Project a matrix onto the quantizer grid: dequantize(quantize(m)).

    The result goes into ``out`` when it is given (a writeable float64 array
    of ``m``'s shape that shares no memory with ``m``) and is returned;
    with or without ``out`` it is the same, bit for bit.  Idempotent:
    applying it twice equals applying it once, bit-exactly.
    """
    m = as_matrix(m)
    out = _destination(m, out)
    if spec.is_passthrough:
        np.copyto(out, m)
        return out
    rows, cols = m.shape
    for group in _row_groups(rows, cols + -cols % spec.block_size):
        out[group] = _fake_quant_group(m[group], spec)
    return out


def _fake_quant_group(m: np.ndarray, spec: FormatSpec) -> np.ndarray:
    """:func:`fake_quant` of one row group, as a view of its block grid."""
    grid, scales, _ = _round_blocks(m, spec)
    grid *= scales[:, :, None]
    return grid.reshape(len(grid), -1)[:, :m.shape[1]]
