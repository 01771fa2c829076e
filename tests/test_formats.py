import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loraq import (
    PASSTHROUGH,
    FormatError,
    FormatSpec,
    IntCodec,
    MinifloatCodec,
    ParameterError,
    QuantizedTensor,
    ShapeError,
    UnknownFormatError,
    dequantize,
    fake_quant,
    make_format,
    quantize_blockwise,
    registry_names,
)
from loraq import formats
from loraq.formats import _minifloat_tables, _pack_codes, _unpack_codes
from oracles import (
    RawTensor,
    decode_codes,
    decode_element,
    decoded_blocks,
    encode_element,
    int_test_format,
    materialized_matmul,
    minifloat_test_format,
)

ALL_FORMATS = ["SINT4", "MXINT4", "MXINT8", "MXFP4e2", "MXFP6e2", "MXFP8e4"]


def _codebook(codec: MinifloatCodec) -> np.ndarray:
    """Non-negative representable values of a minifloat codec, ascending."""
    mdiv = float(1 << codec.mantissa_bits)
    out = []
    for e in range(1 << codec.exp_bits):
        for m in range(1 << codec.mantissa_bits):
            if codec.exp_bits == 4 and e == 15 and m == 7:
                continue
            if e == 0:
                out.append(2.0 ** (1 - codec.bias) * m / mdiv)
            else:
                out.append(2.0 ** (e - codec.bias) * (1 + m / mdiv))
    return np.array(sorted(out))


def _table_round(codec: MinifloatCodec, scaled: np.ndarray):
    """Reference rounder: nearest entry of the value table, ties to the even code.

    This is the lookup the codec used before it rounded by arithmetic;
    returns (codes, values).
    """
    values, codes, _ = _minifloat_tables(codec.exp_bits, codec.mantissa_bits, codec.bias)
    mag = np.abs(scaled)
    idx = np.searchsorted(values, mag)
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx, len(values) - 1)
    d_lo = mag - values[lo]
    d_hi = values[hi] - mag
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & ((codes[hi] & 1) == 0))
    chosen = np.where(pick_hi, hi, lo)
    out_codes = codes[chosen]
    out_values = values[chosen]
    negative = (scaled < 0) & (out_values != 0)
    sign_bit = np.uint8(1 << (codec.width - 1))
    out_codes = np.where(negative, out_codes | sign_bit, out_codes)
    return out_codes.astype(np.uint8), np.where(negative, -out_values, out_values)


def _frexp_encode(codec: MinifloatCodec, values: np.ndarray) -> np.ndarray:
    """Reference encoder: exponent field from ``frexp``, mantissa from ``ldexp``.

    This is the encoder the codec used before it looked codes up by their
    float64 bit field.  With the exponent clamped at the smallest normal's
    binade, the integer significand ``|v| / 2^(e - mantissa_bits)`` is the
    mantissa field plus ``2^mantissa_bits`` for a normal and the field alone
    for a subnormal.
    """
    mag = np.abs(values)
    _, exp = np.frexp(mag)
    exp[mag == 0.0] = 2 - codec.bias  # frexp gives 0 there, not the minimum
    np.maximum(exp, 2 - codec.bias, out=exp)
    significand = np.ldexp(mag, codec.mantissa_bits + 1 - exp)
    codes = (exp + (codec.bias - 2)) << codec.mantissa_bits
    codes += significand.astype(codes.dtype)
    codes[values < 0] |= 1 << (codec.width - 1)
    return codes.astype(np.uint8)


def _bitwise_pack(codes: np.ndarray, width: int) -> np.ndarray:
    """Reference packer: one byte per bit, then ``packbits``.

    This is the packer the codec used before it packed whole words.
    """
    rows, n = codes.shape
    if width == 8:
        return np.ascontiguousarray(codes, dtype=np.uint8)
    bits = ((codes[:, :, None] >> np.arange(width, dtype=np.uint8)) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(rows, n * width), axis=1, bitorder="little")


def _bitwise_unpack(packed: np.ndarray, width: int, rows: int, n: int) -> np.ndarray:
    """Reference unpacker: ``unpackbits``, then a weighted sum over the bits."""
    if width == 8:
        return packed.reshape(rows, n).copy()
    bits = np.unpackbits(packed.reshape(rows, -1), axis=1, bitorder="little",
                         count=n * width)
    weights = (1 << np.arange(width)).astype(np.uint16)
    return (bits.reshape(rows, n, width) * weights).sum(axis=2).astype(np.uint8)


def _reference_decode(codec, codes: np.ndarray) -> np.ndarray:
    """Reference decoder: ``np.where`` for integers, the NaN-marked value
    table for minifloats; raises FormatError on an invalid pattern."""
    if isinstance(codec, IntCodec):
        half = 1 << (codec.bits - 1)
        c = codes.astype(np.int64)
        if np.any(c == half):
            raise FormatError("invalid int code")
        return np.where(c >= half, c - (1 << codec.bits), c).astype(np.float64)
    _, _, decode = _minifloat_tables(codec.exp_bits, codec.mantissa_bits, codec.bias)
    out = decode[codes.astype(np.intp)]
    if np.isnan(out).any():
        raise FormatError("invalid minifloat code")
    return out


def _reference_dequantize(t) -> np.ndarray:
    """``dequantize`` through the reference unpacker and decoder."""
    rows, cols = t.shape
    spec = t.spec
    if spec.is_passthrough:
        return t.codes.astype(np.float64)
    padded = t.n_blocks * spec.block_size
    codes = _bitwise_unpack(t.codes, spec.codec.width, rows, padded)
    values = _reference_decode(spec.codec, codes)
    values = values.reshape(rows, t.n_blocks, spec.block_size)
    values = values * t.scale_values()[:, :, None]
    return values.reshape(rows, padded)[:, :cols]


def _rounded(codec, x: np.ndarray):
    """The codec's own path: (codes, values) for the unscaled input ``x``."""
    values = codec.round_values(x.copy())
    return codec.encode_values(values), values


MINIFLOATS = {"e2m1": MinifloatCodec(2, 1, 1), "e2m3": MinifloatCodec(2, 3, 1),
              "e4m3": MinifloatCodec(4, 3, 7)}


def _edge_inputs(codec: MinifloatCodec) -> np.ndarray:
    book = _codebook(codec)
    mids = (book[:-1] + book[1:]) / 2.0  # exact: few significant bits
    cmax = codec.cmax
    beyond = np.array([np.nextafter(cmax, np.inf), cmax * 1.01, cmax * 1.5,
                       cmax * 2.0, cmax * 1e3, 1e300, np.finfo(np.float64).max])
    smallest_normal = 2.0 ** (1 - codec.bias)
    subnormals = np.concatenate([
        book[book < smallest_normal],
        [5e-324, 1e-310, np.finfo(np.float64).tiny, smallest_normal / 1024],
    ])
    mags = np.concatenate([book, mids, np.nextafter(mids, 0.0),
                           np.nextafter(mids, np.inf), beyond, subnormals])
    return np.concatenate([mags, -mags, [0.0, -0.0]])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind", sorted(MINIFLOATS))
class TestMinifloatOracle:
    def test_edges_match_table_rounder(self, kind):
        codec = MINIFLOATS[kind]
        x = _edge_inputs(codec)
        ref_codes, ref_values = _table_round(codec, x)
        codes, values = _rounded(codec, x)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(_bits(values), _bits(ref_values))

    def test_random_values_match_table_rounder(self, kind):
        codec = MINIFLOATS[kind]
        rng = np.random.default_rng(2024)
        n = 1_000_000
        # log-uniform magnitudes from deep in the subnormals to past saturation
        low = -(codec.bias + codec.mantissa_bits + 4)
        x = rng.choice([-1.0, 1.0], n) * codec.cmax * np.exp2(rng.uniform(low, 2.0, n))
        ref_codes, ref_values = _table_round(codec, x)
        codes, values = _rounded(codec, x)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(_bits(values), _bits(ref_values))

    def test_nan_pattern_and_negative_zero_never_emitted(self, kind):
        codec = MINIFLOATS[kind]
        codes, values = _rounded(codec, _edge_inputs(codec))
        sign_bit = 1 << (codec.width - 1)
        assert not np.any(codes == sign_bit)
        assert not np.any(_bits(values) == _bits(np.array([-0.0]))[0])
        if kind == "e4m3":
            assert not np.any((codes & 0x7F) == 0x7F)


@pytest.mark.parametrize("bits", [4, 8])
def test_int_codec_matches_clip_of_rint(bits):
    codec = IntCodec(bits)
    rng = np.random.default_rng(bits)
    x = np.concatenate([rng.normal(size=100_000) * codec.cmax,
                        np.arange(-2 * codec.cmax, 2 * codec.cmax + 1, 0.5),
                        [0.0, -0.0, -0.25, 1e300, -1e300]])
    codes, values = _rounded(codec, x)
    expected = np.clip(np.rint(x), -codec.cmax, codec.cmax)
    assert np.array_equal(_bits(values), _bits(expected))
    assert np.array_equal(decode_codes(codec, codes), expected)


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_encode_of_decode_is_identity_on_valid_codes(name):
    codec = make_format(name).codec
    every = np.arange(1 << codec.width, dtype=np.uint8)
    valid = []
    for code in every:
        try:
            value = decode_codes(codec, np.array([code], dtype=np.uint8))[0]
        except FormatError:
            continue
        if value == 0.0 and code != 0:
            continue  # a zero with the sign bit set; encoding emits +0 only
        valid.append(code)
    valid = np.array(valid, dtype=np.uint8)
    codes, _ = _rounded(codec, decode_codes(codec, valid))
    assert np.array_equal(codes, valid)


# the bit layouts of the OCP MX v1.0 elements: FP4 e2m1, FP6 e2m3 and e3m2, FP8 e4m3
# and e5m2 (whose top exponent this codec spends on values, not on inf and NaN)
ENCODED = {"e2m1": MinifloatCodec(2, 1, 1), "e2m3": MinifloatCodec(2, 3, 1),
           "e3m2": MinifloatCodec(3, 2, 3), "e4m3": MinifloatCodec(4, 3, 7),
           "e5m2": MinifloatCodec(5, 2, 15)}


@pytest.mark.parametrize("kind", sorted(ENCODED))
class TestBitFieldEncoder:
    def test_every_code_matches_the_frexp_encoder(self, kind):
        codec = ENCODED[kind]
        _, _, decode = _minifloat_tables(codec.exp_bits, codec.mantissa_bits, codec.bias)
        valid = np.flatnonzero(~np.isnan(decode))
        values = decode[valid]
        codes = codec.encode_values(values)
        assert np.array_equal(codes, _frexp_encode(codec, values))
        # the code itself, but a zero with the sign bit set encodes as +0
        assert np.array_equal(codes, np.where(values == 0.0, 0, valid))

    def test_random_on_grid_values_match_the_frexp_encoder(self, kind):
        codec = ENCODED[kind]
        rng = np.random.default_rng(31)
        n = 200_000
        low = -(codec.bias + codec.mantissa_bits + 4)
        x = rng.choice([-1.0, 1.0], n) * codec.cmax * np.exp2(rng.uniform(low, 1.0, n))
        values = codec.round_values(x).reshape(400, 500)[:, ::3]  # not contiguous
        assert np.array_equal(codec.encode_values(values), _frexp_encode(codec, values))


OUT_SHAPES = [(5, 64), (7, 72), (3, 5), (300, 333)]  # the last spans row groups


@pytest.mark.parametrize("shape", OUT_SHAPES, ids=str)
@pytest.mark.parametrize("name", [*ALL_FORMATS, "fp16-passthrough"])
def test_fake_quant_into_out_is_byte_equal(name, shape):
    spec = make_format(name)
    m = np.random.default_rng(32).standard_t(df=4, size=shape) * 10.0
    expected = fake_quant(m, spec)
    for buf in (np.full(shape, np.nan), np.full(shape, np.nan, order="F")):
        assert fake_quant(m, spec, out=buf) is buf
        assert np.array_equal(_bits(buf), _bits(expected))


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_row_groups_do_not_change_the_result(monkeypatch, name):
    spec = make_format(name)
    m = np.random.default_rng(33).standard_t(df=4, size=(37, 72))
    whole = fake_quant(m, spec)
    codes = quantize_blockwise(m, spec)
    monkeypatch.setattr(formats, "_GROUP_VALUES", 1)  # one row per group
    assert np.array_equal(_bits(fake_quant(m, spec)), _bits(whole))
    assert quantize_blockwise(m, spec) == codes


class TestFakeQuantOutRefused:
    def setup_method(self):
        self.spec = make_format("MXINT4")
        self.m = np.random.default_rng(34).normal(size=(4, 64))

    def test_out_is_the_input(self):
        with pytest.raises(ParameterError):
            fake_quant(self.m, self.spec, out=self.m)

    def test_out_overlaps_the_input(self):
        both = np.random.default_rng(35).normal(size=(6, 64))
        with pytest.raises(ParameterError):
            fake_quant(both[:4], self.spec, out=both[2:])

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            fake_quant(self.m, self.spec, out=np.empty((4, 63)))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_wrong_dtype(self, dtype):
        with pytest.raises(ParameterError):
            fake_quant(self.m, self.spec, out=np.empty((4, 64), dtype=dtype))

    def test_not_an_array(self):
        with pytest.raises(ParameterError):
            fake_quant(self.m, self.spec, out=[[0.0] * 64] * 4)

    def test_read_only(self):
        out = np.empty((4, 64))
        out.flags.writeable = False
        with pytest.raises(ParameterError):
            fake_quant(self.m, self.spec, out=out)


class TestCodecParameters:
    @pytest.mark.parametrize("args", [(2, 1, -2000), (5, -2, 1), (0, 3, 1),
                                      (2, 1, 1023), (2, 1, -1021), (2**40, 1, 1)])
    def test_unbuildable_minifloat_is_refused(self, args):
        with pytest.raises(ParameterError):
            MinifloatCodec(*args)

    def test_one_bit_int_is_refused(self):
        with pytest.raises(ParameterError):
            IntCodec(1)

    @pytest.mark.parametrize("bias", [-1020, 1022])  # the ends of e2m1's range
    def test_extreme_biases_encode_every_code(self, bias):
        codec = MinifloatCodec(2, 1, bias)
        _, _, decode = _minifloat_tables(2, 1, bias)
        values = decode[:8]  # the non-negative codes
        assert np.all(np.isfinite(values))
        assert np.array_equal(codec.encode_values(values), np.arange(8))
        assert np.array_equal(codec.encode_values(-values[1:]), np.arange(9, 16))


class TestRegistry:
    def test_exactly_six_formats(self):
        assert sorted(registry_names()) == sorted(ALL_FORMATS)

    def test_sint4_parameters(self):
        spec = make_format("SINT4")
        assert spec.block_size == 64
        assert spec.scale_kind == "fp16"
        assert spec.codec == IntCodec(4)
        assert spec.bits_per_value == 4

    def test_mx_parameters(self):
        for name, block, codec, bits in [
            ("MXINT4", 32, IntCodec(4), 4),
            ("MXINT8", 32, IntCodec(8), 8),
            ("MXFP4e2", 32, MinifloatCodec(2, 1, 1), 4),
            ("MXFP6e2", 32, MinifloatCodec(2, 3, 1), 6),
            ("MXFP8e4", 32, MinifloatCodec(4, 3, 7), 8),
        ]:
            spec = make_format(name)
            assert spec.block_size == block
            assert spec.scale_kind == "e8m0"
            assert spec.codec == codec
            assert spec.bits_per_value == bits

    def test_value_equal_across_calls(self):
        for name in ALL_FORMATS:
            assert make_format(name) == make_format(name)

    @pytest.mark.parametrize("codec", [IntCodec(16), MinifloatCodec(5, 3, 15)])
    def test_codes_wider_than_a_byte_are_refused(self, codec):
        with pytest.raises(ParameterError):
            FormatSpec("wide", 32, "e8m0", codec)

    def test_unknown_name(self):
        with pytest.raises(UnknownFormatError):
            make_format("INT3")

    def test_passthrough_reachable_but_unregistered(self):
        spec = make_format("fp16-passthrough")
        assert spec is PASSTHROUGH
        assert spec.bits_per_value == 16
        assert "fp16-passthrough" not in registry_names()

    def test_test_formats_not_registered(self):
        spec = int_test_format(4, 4)
        assert spec.name not in registry_names()


class TestHandExamples:
    def test_int4_block4_scale_and_codes(self):
        spec = int_test_format(4, 4)
        t = quantize_blockwise(np.array([[1.0, -2.0, 3.0, -4.0]]), spec)
        # scale 2^-1 stored as byte -1 + 127
        assert t.scales.tolist() == [[126]]
        assert t.scale_values().tolist() == [[0.5]]
        # codes [2, -4, 6, -7] packed two nibbles per byte, LSB first
        assert t.codes.tolist() == [[0xC2, 0x96]]

    def test_int4_block4_round_trip(self):
        spec = int_test_format(4, 4)
        t = quantize_blockwise(np.array([[1.0, -2.0, 3.0, -4.0]]), spec)
        assert dequantize(t).tolist() == [[1.0, -2.0, 3.0, -3.5]]

    def test_e2m1_block4(self):
        spec = minifloat_test_format("e2m1", 4)
        t = quantize_blockwise(np.array([[0.5, 1.0, 1.5, 6.0]]), spec)
        assert t.scales.tolist() == [[127]]  # scale 2^0
        assert t.codes.tolist() == [[0x21, 0x73]]
        assert dequantize(t).tolist() == [[0.5, 1.0, 1.5, 6.0]]

    def test_fake_quant_int4_block4(self):
        spec = int_test_format(4, 4)
        out = fake_quant(np.array([[0.5, 1.0, -2.0, 4.0]]), spec)
        assert out.tolist() == [[0.5, 1.0, -2.0, 3.5]]

    def test_zero_matrix_sint4(self):
        spec = make_format("SINT4")
        t = quantize_blockwise(np.zeros((2, 64)), spec)
        assert np.all(t.codes == 0)
        # smallest positive fp16 scale, bit pattern 0x0001
        assert np.all(t.scales.view(np.uint16) == 1)
        assert np.all(dequantize(t) == 0.0)

    def test_zero_matrix_round_trips(self):
        for name in ALL_FORMATS:
            spec = make_format(name)
            t = quantize_blockwise(np.zeros((3, 40)), spec)
            assert np.all(dequantize(t) == 0.0)


class TestElementCodecs:
    def test_zero_encodes_to_plus_zero(self):
        codec = MinifloatCodec(2, 1, 1)
        assert encode_element(0.0, codec, 1.0) == 0
        assert encode_element(-0.0, codec, 1.0) == 0
        assert decode_element(0, codec, 1.0) == 0.0

    def test_e2m1_nearest(self):
        codec = MinifloatCodec(2, 1, 1)
        code = encode_element(5.2, codec, 1.0)
        assert decode_element(code, codec, 1.0) == 6.0

    def test_e2m1_tie_to_even(self):
        codec = MinifloatCodec(2, 1, 1)
        # 5.0 sits exactly between 4 (mantissa 0, even) and 6 (mantissa 1)
        code = encode_element(5.0, codec, 1.0)
        assert decode_element(code, codec, 1.0) == 4.0

    def test_int_tie_to_even(self):
        codec = IntCodec(4)
        assert decode_element(encode_element(2.5, codec, 1.0), codec, 1.0) == 2.0
        assert decode_element(encode_element(3.5, codec, 1.0), codec, 1.0) == 4.0
        assert decode_element(encode_element(-2.5, codec, 1.0), codec, 1.0) == -2.0

    def test_e4m3_max_and_saturation(self):
        codec = MinifloatCodec(4, 3, 7)
        assert codec.cmax == 448.0
        top = encode_element(448.0, codec, 1.0)
        assert decode_element(top, codec, 1.0) == 448.0
        assert encode_element(500.0, codec, 1.0) == top

    def test_e2m3_codebook(self):
        codec = MinifloatCodec(2, 3, 1)
        assert codec.cmax == 7.5
        book = _codebook(codec)
        assert book[0] == 0.0 and book[1] == 0.125 and book[-1] == 7.5

    def test_negative_symmetry(self):
        for codec in (IntCodec(4), IntCodec(8), MinifloatCodec(2, 1, 1),
                      MinifloatCodec(2, 3, 1), MinifloatCodec(4, 3, 7)):
            for v in (0.3, 1.7, 2.4, 5.9):
                pos = decode_element(encode_element(v, codec, 1.0), codec, 1.0)
                neg = decode_element(encode_element(-v, codec, 1.0), codec, 1.0)
                assert neg == -pos

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, v):
        for codec in (IntCodec(4), MinifloatCodec(4, 3, 7)):
            with pytest.raises(ParameterError):
                encode_element(v, codec, 1.0)

    def test_invalid_int_code_rejected(self):
        with pytest.raises(FormatError):
            decode_element(0b1000, IntCodec(4), 1.0)

    def test_invalid_e4m3_nan_pattern_rejected(self):
        with pytest.raises(FormatError):
            decode_element(0x7F, MinifloatCodec(4, 3, 7), 1.0)

    def test_decode_is_exact_inverse(self):
        codec = MinifloatCodec(4, 3, 7)
        book = _codebook(codec)
        for v in book:
            code = encode_element(float(v), codec, 1.0)
            assert decode_element(code, codec, 1.0) == v


@pytest.mark.parametrize("name", ALL_FORMATS)
class TestIdempotence:
    def test_fake_quant_idempotent(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for shape in [(1, 7), (5, 32), (16, 100), (33, 65)]:
            m = rng.normal(size=shape) * rng.uniform(0.01, 100.0)
            once = fake_quant(m, spec)
            twice = fake_quant(once, spec)
            assert np.array_equal(once, twice)

    def test_reencode_reproduces_codes_and_scales(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(hash(name) % 2**31)
        m = rng.standard_t(df=3, size=(9, 70)) * 5.0
        t1 = quantize_blockwise(m, spec)
        t2 = quantize_blockwise(dequantize(t1), spec)
        assert t1 == t2

    def test_fake_quant_matches_quantize_then_dequantize(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(1234)
        m = rng.normal(size=(6, 50))
        assert np.array_equal(fake_quant(m, spec), dequantize(quantize_blockwise(m, spec)))


@pytest.mark.parametrize("name", ALL_FORMATS)
class TestBlockInvariants:
    def test_saturation_bound(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(99)
        m = rng.standard_t(df=2, size=(8, 96)) * 10.0
        t = quantize_blockwise(m, spec)
        values = dequantize(t)
        scales = t.scale_values()
        block = spec.block_size
        for r in range(m.shape[0]):
            for b in range(t.n_blocks):
                chunk = values[r, b * block:(b + 1) * block]
                assert np.abs(chunk).max() <= scales[r, b] * spec.codec.cmax + 1e-15

    def test_per_block_error_bound(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(17)
        m = rng.normal(size=(6, 64)) * 3.0
        t = quantize_blockwise(m, spec)
        values = dequantize(t)
        scales = t.scale_values()
        codec = spec.codec
        if isinstance(codec, MinifloatCodec):
            book = _codebook(codec)
            grid = np.concatenate([-book[::-1], book])
        else:
            grid = np.arange(-codec.cmax, codec.cmax + 1)
        block = spec.block_size
        for r in range(m.shape[0]):
            for b in range(t.n_blocks):
                scale = scales[r, b]
                lo = b * block
                chunk = m[r, lo:lo + block]
                got = values[r, lo:lo + block]
                for v, q in zip(chunk, got):
                    if abs(v) > scale * codec.cmax:
                        # saturated: clamped exactly to the top of the grid
                        assert q == np.sign(v) * scale * codec.cmax
                    else:
                        scaled_grid = grid * scale
                        k = int(np.argmin(np.abs(scaled_grid - v)))
                        neighbors = np.abs(scaled_grid - v)
                        # error is at most half the local grid step
                        step = np.partition(neighbors, 1)[1] + neighbors[k]
                        assert abs(v - q) <= step / 2.0 + 1e-15

    def test_block_independence(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(23)
        m = rng.normal(size=(4, spec.block_size * 3))
        t1 = quantize_blockwise(m, spec)
        m2 = m.copy()
        m2[1, spec.block_size:2 * spec.block_size] *= 17.0
        t2 = quantize_blockwise(m2, spec)
        assert np.array_equal(t1.scales[0], t2.scales[0])
        assert np.array_equal(t1.scales[2:], t2.scales[2:])
        assert t1.scales[1, 0] == t2.scales[1, 0]
        assert t1.scales[1, 2] == t2.scales[1, 2]
        assert np.array_equal(t1.codes[0], t2.codes[0])
        assert np.array_equal(t1.codes[2:], t2.codes[2:])

    def test_padding_decodes_to_zero(self, name):
        spec = make_format(name)
        cols = spec.block_size + 3
        m = np.ones((2, cols))
        t = quantize_blockwise(m, spec)
        assert t.pad_count == spec.block_size - 3
        assert dequantize(t).shape == (2, cols)
        # re-encoding after a round trip keeps the zero padding codes
        assert quantize_blockwise(dequantize(t), spec) == t


class TestPackUnpack:
    @pytest.mark.parametrize("name,width", [("MXFP4e2", 4), ("MXFP6e2", 6), ("MXFP8e4", 8)])
    def test_round_trip_bit_exact(self, name, width):
        spec = make_format(name)
        assert spec.codec.width == width
        rng = np.random.default_rng(width)
        m = rng.normal(size=(7, 45))
        t = quantize_blockwise(m, spec)
        again = quantize_blockwise(dequantize(t), spec)
        assert np.array_equal(t.codes, again.codes)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_pack_matches_bitwise_oracle(self, width):
        rng = np.random.default_rng(100 + width)
        for rows in (1, 3):
            for n in range(0, 26):  # every remainder of n * width modulo a word
                codes = rng.integers(0, 1 << width, size=(rows, n), dtype=np.uint8)
                got = _pack_codes(codes, width)
                want = _bitwise_pack(codes, width)
                assert got.dtype == np.uint8 and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (rows, n)
                # each row is padded to a whole byte with zero bits
                assert np.array_equal(_unpack_codes(got, width, rows, n), codes)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_unpack_matches_bitwise_oracle(self, width):
        rng = np.random.default_rng(200 + width)
        for rows in (1, 3):
            for n in range(0, 26):
                # arbitrary bytes, so the bits padding a row need not be zero
                packed = rng.integers(0, 256, size=(rows, -(-(n * width) // 8)),
                                      dtype=np.uint8)
                got = _unpack_codes(packed, width, rows, n)
                want = _bitwise_unpack(packed, width, rows, n)
                assert got.dtype == np.uint8 and got.shape == (rows, n)
                assert np.array_equal(got, want), (rows, n)

    @pytest.mark.parametrize("name", [*ALL_FORMATS, PASSTHROUGH.name])
    def test_dequantize_matches_reference_decoder(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(len(name))
        for shape in [(1, 1), (3, 31), (5, 65), (9, 100)]:
            m = rng.standard_t(df=3, size=shape) * rng.uniform(0.01, 100.0)
            t = quantize_blockwise(m, spec)
            got = dequantize(t)
            assert got.dtype == np.float64 and got.shape == shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(
                _reference_dequantize(t)).tobytes()

    def test_rows_pack_independently(self):
        spec = minifloat_test_format("e2m3", 4)  # 6-bit codes
        m = np.ones((3, 4))
        t = quantize_blockwise(m, spec)
        # 4 codes x 6 bits = 24 bits = 3 bytes per row
        assert t.codes.shape == (3, 3)
        assert np.array_equal(t.codes[0], t.codes[1])

    def test_corrupt_length_detected(self):
        spec = int_test_format(4, 4)
        t = quantize_blockwise(np.ones((2, 4)), spec)
        with pytest.raises(FormatError):
            dequantize(dataclasses.replace(t, codes=t.codes[:, :1]))


class TestConstruction:
    """A tensor checks its arrays against the layout once, when it is built,
    and derives its pad count from the shape."""

    @pytest.mark.parametrize("name,change", [
        ("MXINT4", lambda t: {"scales": t.scales.astype(np.int64)}),
        ("SINT4", lambda t: {"scales": t.scales.astype(np.uint8)}),
        ("SINT4", lambda t: {"scales": t.scales.astype(np.float32)}),
        ("SINT4", lambda t: {"scales": t.scales.view(np.uint16)}),
        ("SINT4", lambda t: {"scales": t.scales[:, :1]}),
        ("MXINT4", lambda t: {"scales": t.scales.reshape(-1)}),
        ("SINT4", lambda t: {"codes": t.codes[:, :-1]}),
        ("MXFP6e2", lambda t: {"codes": t.codes[:-1]}),
        ("MXINT4", lambda t: {"codes": np.vstack([t.codes, t.codes[:1]])}),
        ("MXINT8", lambda t: {"codes": t.codes.astype(np.int16)}),
        ("MXINT8", lambda t: {"codes": t.codes.tolist()}),
        ("fp16-passthrough", lambda t: {"codes": t.codes[:, :-1]}),
        ("fp16-passthrough", lambda t: {"scales": np.zeros((3, 1), np.uint16)}),
    ], ids=["int64-scales", "fp16-as-uint8", "fp16-as-float32", "fp16-as-uint16",
            "too-few-blocks",
            "flat-scales", "short-code-row", "missing-code-row", "extra-code-row",
            "int16-codes", "list-codes", "short-payload", "passthrough-scales"])
    def test_arrays_that_do_not_match_the_layout_are_refused(self, name, change):
        t = quantize_blockwise(np.random.default_rng(7).normal(size=(3, 72)),
                               make_format(name))
        with pytest.raises(FormatError):
            dataclasses.replace(t, **change(t))

    def test_pad_count_is_derived_from_the_shape(self):
        t = quantize_blockwise(np.ones((2, 72)), make_format("SINT4"))
        rebuilt = QuantizedTensor(t.shape, t.spec, t.codes, t.scales)
        assert rebuilt == t and rebuilt.pad_count == 56
        assert quantize_blockwise(np.ones((2, 72)), PASSTHROUGH).pad_count == 0
        with pytest.raises(TypeError):
            QuantizedTensor(t.shape, t.spec, t.codes, t.scales, pad_count=0)

    def test_passthrough_tensor_owns_its_values(self):
        m = np.random.default_rng(32).normal(size=(3, 5))
        want = m.copy()
        t = quantize_blockwise(m, PASSTHROUGH)
        m[0, 0] = 99.0
        assert np.array_equal(dequantize(t), want)

    def test_equality_compares_bytes(self):
        # -0.0 == 0.0 as values, but the stored bytes differ
        negative = quantize_blockwise(np.array([[-0.0, 1.0]]), PASSTHROUGH)
        assert negative != quantize_blockwise(np.array([[0.0, 1.0]]), PASSTHROUGH)
        assert negative == quantize_blockwise(np.array([[-0.0, 1.0]]), PASSTHROUGH)


def _with_code(t, row: int, col: int, code: int) -> RawTensor:
    """``t``'s arrays, unchecked, with one element code replaced, packed by
    the reference packer."""
    width = t.spec.codec.width
    rows = t.shape[0]
    padded = t.n_blocks * t.spec.block_size
    codes = _bitwise_unpack(t.codes, width, rows, padded)
    codes[row, col] = code
    return dataclasses.replace(RawTensor.of(t), codes=_bitwise_pack(codes, width))


@pytest.mark.parametrize("name,pattern", [
    ("SINT4", 0b1000), ("MXINT4", 0b1000), ("MXINT8", 0x80),
    ("MXFP8e4", 0x7F), ("MXFP8e4", 0xFF),
])
class TestInvalidPatterns:
    """A tensor that holds an int ``-2^(k-1)`` or e4m3 NaN pattern cannot
    be built."""

    def test_inside_the_matrix(self, name, pattern):
        spec = make_format(name)
        t = quantize_blockwise(np.ones((3, 40)), spec)
        with pytest.raises(FormatError):
            _with_code(t, 1, 17, pattern).built()

    def test_in_a_blocks_padded_tail(self, name, pattern):
        spec = make_format(name)
        cols = spec.block_size + 3
        t = quantize_blockwise(np.ones((2, cols)), spec)
        assert t.pad_count > 0
        with pytest.raises(FormatError):
            _with_code(t, 1, t.n_blocks * spec.block_size - 1, pattern).built()

    def test_decode_codes_refuses_it(self, name, pattern):
        codec = make_format(name).codec
        codes = np.array([[0, pattern, 1]], dtype=np.uint8)
        with pytest.raises(FormatError):
            decode_codes(codec, codes)


class TestFixedPoints:
    def test_on_grid_matrix_is_fixed(self):
        spec = minifloat_test_format("e2m1", 4)
        # block max 6.0 keeps scale at 2^0, all entries representable
        m = np.array([[0.5, -1.5, 3.0, 6.0], [2.0, 4.0, -6.0, 1.0]])
        assert np.array_equal(fake_quant(m, spec), m)

    def test_passthrough_identity(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(5, 9))
        assert np.array_equal(fake_quant(m, PASSTHROUGH), m)
        t = quantize_blockwise(m, PASSTHROUGH)
        assert np.array_equal(dequantize(t), m)


class TestScaleRules:
    def test_e8m0_byte_is_biased_exponent(self):
        spec = int_test_format(4, 4)
        t = quantize_blockwise(np.array([[12.0, 0.0, 0.0, 0.0]]), spec)
        # floor(log2(12/7)) = 0 -> byte 127
        assert t.scales[0, 0] == 127
        t = quantize_blockwise(np.array([[14.0, 0.0, 0.0, 0.0]]), spec)
        # 14/7 = 2 exactly -> exponent 1 -> byte 128
        assert t.scales[0, 0] == 128

    def test_e8m0_zero_block_uses_minimum(self):
        spec = int_test_format(4, 4)
        t = quantize_blockwise(np.zeros((1, 4)), spec)
        assert t.scales[0, 0] == 0  # exponent -127

    def test_fp16_scale_never_below_ratio(self):
        spec = make_format("SINT4")
        rng = np.random.default_rng(41)
        m = rng.normal(size=(4, 128)) * 10
        t = quantize_blockwise(m, spec)
        scales = t.scale_values()
        blocked = np.abs(m).reshape(4, 2, 64).max(axis=2)
        assert np.all(scales >= blocked / 7.0)
        # one float16 ulp above at most
        assert np.all(scales.astype(np.float16) == scales.astype(np.float16))

    def test_fp16_scale_round_trips_via_bit_pattern(self):
        spec = make_format("SINT4")
        m = np.linspace(-3, 5, 64)[None, :]
        t = quantize_blockwise(m, spec)
        assert t.scales.dtype == np.float16
        assert np.array_equal(t.scale_values(), t.scales.astype(np.float64))


def _word_dequantize(t) -> np.ndarray:
    """The decoder before byte tables: every code unpacked by the word path
    (``_unpack_codes``), then decoded by ``decode_codes``."""
    rows, cols = t.shape
    spec = t.spec
    padded = t.n_blocks * spec.block_size
    codes = _unpack_codes(t.codes, spec.codec.width, rows, padded)
    values = decode_codes(spec.codec, codes).reshape(rows, t.n_blocks, spec.block_size)
    values *= t.scale_values()[:, :, None]
    return values.reshape(rows, padded)[:, :cols]


def _decoded_or_error(decode, t):
    """The bytes of ``decode(t)``, or the message of the FormatError it raises."""
    try:
        return np.ascontiguousarray(decode(t)).tobytes()
    except FormatError as exc:
        return f"FormatError: {exc}"


def _built_or_error(decode, raw: RawTensor):
    """The bytes of ``decode`` of the tensor built from ``raw``, or the
    message of the FormatError that building it raises; a tensor that is
    built must decode without raising."""
    try:
        t = raw.built()
    except FormatError as exc:
        return f"FormatError: {exc}"
    return np.ascontiguousarray(decode(t)).tobytes()


# every element width a codec can have, integer and minifloat
DECODE_CODECS = {**{f"int{bits}": IntCodec(bits) for bits in range(2, 9)}, **MINIFLOATS}
# block sizes 3 and 5 give rows an odd code count, so 2- and 4-bit rows
# can end mid-byte and take the word path
DECODE_BLOCKS = [1, 3, 4, 5, 8, 32]


def _spec(codec, block_size: int, scale_kind: str = "e8m0") -> FormatSpec:
    return FormatSpec(f"test-w{codec.width}-b{block_size}", block_size, scale_kind, codec)


def _random_codes(spec, rows: int, cols: int, rng) -> RawTensor:
    """A tensor's arrays, unchecked: arbitrary code bytes (invalid patterns
    and nonzero bits past a row's last code included) and arbitrary finite
    scales."""
    n_blocks = -(-cols // spec.block_size)
    row_bytes = -(-(n_blocks * spec.block_size * spec.codec.width) // 8)
    if spec.scale_kind == "e8m0":
        scales = rng.integers(0, 256, size=(rows, n_blocks), dtype=np.uint8)
    else:
        scales = rng.uniform(1e-3, 1e3, size=(rows, n_blocks)).astype(np.float16)
    return RawTensor(
        shape=(rows, cols), spec=spec,
        codes=rng.integers(0, 256, size=(rows, row_bytes), dtype=np.uint8),
        scales=scales)


class TestByteTableDecode:
    """``dequantize`` is byte-equal to the word-path decoder it replaced."""

    @pytest.mark.parametrize("name", [*ALL_FORMATS, PASSTHROUGH.name])
    def test_registry_formats(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(50)
        for shape in [(1, 1), (3, 31), (5, 65), (9, 100), (300, 333)]:
            t = quantize_blockwise(rng.standard_t(df=3, size=shape) * 7.0, spec)
            want = (_reference_dequantize(t) if spec.is_passthrough
                    else _word_dequantize(t))
            assert _bits(dequantize(t)).tobytes() == _bits(want).tobytes(), shape

    @pytest.mark.parametrize("block_size", DECODE_BLOCKS)
    @pytest.mark.parametrize("kind", sorted(DECODE_CODECS))
    def test_every_width_and_block(self, kind, block_size):
        rng = np.random.default_rng(block_size)
        for scale_kind in ("e8m0", "fp16"):
            spec = _spec(DECODE_CODECS[kind], block_size, scale_kind)
            for shape in [(1, 1), (2, 7), (4, 33), (3, 70)]:
                t = quantize_blockwise(rng.standard_t(df=3, size=shape), spec)
                got = dequantize(t)
                assert got.shape == shape
                want = _word_dequantize(t)
                assert _bits(got).tobytes() == _bits(want).tobytes(), (scale_kind, shape)

    @pytest.mark.parametrize("kind", sorted(DECODE_CODECS))
    def test_random_code_bytes(self, kind):
        codec = DECODE_CODECS[kind]
        rng = np.random.default_rng(codec.width)
        outcomes = set()
        for draw in range(120):
            spec = _spec(codec, DECODE_BLOCKS[draw % len(DECODE_BLOCKS)],
                         ("e8m0", "fp16")[draw % 2])
            raw = _random_codes(spec, int(rng.integers(1, 4)), int(rng.integers(1, 13)),
                                rng)
            want = _decoded_or_error(_word_dequantize, raw)
            assert _built_or_error(dequantize, raw) == want, (draw, raw.shape)
            outcomes.add(isinstance(want, str))
        has_invalid = bool(np.isnan(codec.decode_table()[0]).any())
        # codecs with an invalid pattern met it in some draws and not in others
        assert outcomes == ({False, True} if has_invalid else {False})

    @pytest.mark.parametrize("codec,pattern", [
        (IntCodec(2), 0b10), (IntCodec(4), 0b1000), (IntCodec(8), 0x80),
        (MinifloatCodec(4, 3, 7), 0x7F), (MinifloatCodec(4, 3, 7), 0xFF),
    ], ids=["int2", "int4", "int8", "e4m3", "-e4m3"])
    @pytest.mark.parametrize("block_size", [4, 5])
    def test_invalid_pattern_in_every_slot(self, codec, pattern, block_size):
        # every code slot of a byte (the low and the high nibble for 4-bit
        # codes) and every code of the padded tail
        spec = _spec(codec, block_size)
        cols = 2 * block_size + 1
        padded = 3 * block_size
        valid = quantize_blockwise(np.ones((2, cols)), spec)
        for col in range(padded):
            raw = _with_code(valid, 1, col, pattern)
            want = _decoded_or_error(_word_dequantize, raw)
            assert want.startswith("FormatError"), col
            assert _built_or_error(dequantize, raw) == want, col

    @pytest.mark.parametrize("codec,block_size,cols,word_path", [
        (IntCodec(4), 4, 8, False),  # whole bytes: one lookup per byte
        (IntCodec(4), 3, 3, True),  # a row of 3 codes ends mid-byte
        (IntCodec(2), 5, 10, True),  # 10 codes of 2 bits: 2.5 bytes
        (IntCodec(2), 4, 8, False),
        (MinifloatCodec(2, 3, 1), 4, 8, True),  # 6 bits never divide 8
        (MinifloatCodec(4, 3, 7), 3, 3, False),  # 8-bit codes are the bytes
    ])
    def test_word_path_only_where_a_row_ends_mid_byte(self, monkeypatch, codec,
                                                      block_size, cols, word_path):
        spec = _spec(codec, block_size)
        valid = quantize_blockwise(np.random.default_rng(51).normal(size=(3, cols)), spec)
        want = _word_dequantize(valid)
        calls = []

        def counting(*args):
            calls.append(args)
            return _unpack_codes(*args)

        monkeypatch.setattr(formats, "_unpack_codes", counting)
        # the check when the tensor is built and its first decode alike
        t = RawTensor.of(valid).built()
        assert _bits(dequantize(t)).tobytes() == _bits(want).tobytes()
        assert bool(calls) == word_path

    def test_row_groups_do_not_change_the_result(self, monkeypatch):
        spec = make_format("SINT4")
        t = quantize_blockwise(np.random.default_rng(52).normal(size=(37, 72)), spec)
        whole = dequantize(t)
        monkeypatch.setattr(formats, "_GROUP_VALUES", 1)  # one row per group
        assert _bits(dequantize(t)).tobytes() == _bits(whole).tobytes()

    def test_byte_tables_are_read_only(self):
        for codec in (IntCodec(4), MinifloatCodec(2, 1, 1), IntCodec(8)):
            table = formats._code_table(codec, 8 // codec.width)
            assert table.shape == (256,) and not table.flags.writeable


# element widths that do not divide 8, so rows are read as words
PAIR_CODECS = [IntCodec(3), IntCodec(5), IntCodec(6), IntCodec(7),
               MinifloatCodec(2, 3, 1), MinifloatCodec(3, 2, 3),
               MinifloatCodec(2, 2, 1), MinifloatCodec(3, 3, 3)]


class TestPairDecode:
    """Rows that fill whole words decode two codes per lookup; rows that end
    mid-word decode code by code.  Both equal the one-element decoder."""

    @pytest.mark.parametrize("whole_words", [True, False], ids=["whole", "mid-word"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_element_decoder(self, whole_words, data):
        codec = data.draw(st.sampled_from(PAIR_CODECS), label="codec")
        per_word = formats._word_layout(codec.width)[1]
        block_size = data.draw(st.integers(1, 12), label="block_size")
        n_blocks = data.draw(st.integers(1, 4), label="n_blocks")
        padded = n_blocks * block_size
        assume((padded % per_word == 0) == whole_words)
        rows = data.draw(st.integers(1, 5), label="rows")
        cols = data.draw(st.integers(padded - block_size + 1, padded), label="cols")
        scale_kind = data.draw(st.sampled_from(["e8m0", "fp16"]), label="scale_kind")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << codec.width, size=(rows, padded), dtype=np.uint8)
        if data.draw(st.booleans(), label="valid codes only"):
            codes[np.isnan(codec.decode_table()[0])[codes]] = 0
        if scale_kind == "e8m0":
            stored = rng.integers(0, 256, size=(rows, n_blocks), dtype=np.uint8)
        else:
            stored = rng.uniform(1e-3, 1e3, size=(rows, n_blocks)).astype(np.float16)
        raw = RawTensor((rows, cols), _spec(codec, block_size, scale_kind),
                        _bitwise_pack(codes, codec.width), stored)
        scales = np.repeat(raw.scale_values(), block_size, axis=1)
        try:
            want = np.array([[decode_element(int(c), codec, s) for c, s in zip(cr, sr)]
                             for cr, sr in zip(codes, scales)])[:, :cols]
        except FormatError as exc:
            want = f"FormatError: {exc}"
        widths = []

        def recording(packed, width, *args):
            widths.append(width)
            return _unpack_codes(packed, width, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_unpack_codes", recording)
            got = _built_or_error(dequantize, raw)
        assert got == (want if isinstance(want, str) else _bits(want).tobytes())
        # a pair is one field of twice the width, when the tensor is built
        # and when it is decoded
        assert set(widths) == {2 * codec.width if whole_words else codec.width}

    def test_pair_tables_are_read_only(self):
        for codec in (IntCodec(3), MinifloatCodec(2, 3, 1), IntCodec(7)):
            table = formats._code_table(codec, 2)
            assert table.shape == (1 << 2 * codec.width,) and not table.flags.writeable
            assert table.dtype.itemsize == 16


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# blocks of 11 leave 77 codes per row, so 6-bit rows end mid-word; blocks
# of 16 leave 80, whole words
MATMUL_SPECS = {**{name: make_format(name) for name in ALL_FORMATS},
                "int6-b11-fp16": _spec(IntCodec(6), 11, "fp16"),
                "e2m3-b16": _spec(MinifloatCodec(2, 3, 1), 16)}


class TestRowGroupDecoder:
    """``dequantize`` decodes through one row-group buffer and is pinned bit
    for bit to the padded whole-matrix decode (``oracles.decoded_blocks``)
    it replaced."""

    @staticmethod
    def _check(t):
        want = decoded_blocks(t)
        got = dequantize(t)
        assert got.dtype == np.float64 and got.shape == t.shape
        assert got.flags.c_contiguous and got.flags.owndata
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("name", [*ALL_FORMATS, PASSTHROUGH.name])
    def test_registry_formats(self, name):
        spec = make_format(name)
        rng = np.random.default_rng(53)
        for shape in [(1, 1), (3, 31), (5, 72), (300, 333), (1100, 72)]:
            self._check(quantize_blockwise(rng.standard_t(df=3, size=shape), spec))

    @pytest.mark.parametrize("block_size", [32, 64])
    @pytest.mark.parametrize("codec", [IntCodec(4), MinifloatCodec(2, 3, 1)],
                             ids=["int4", "e2m3"])
    def test_padded_rows(self, monkeypatch, codec, block_size):
        # 72 columns leave 24 or 56 padded codes per row; the groups of 1 and
        # of 3 rows end where the groups of the default size do not
        rng = np.random.default_rng(block_size)
        for scale_kind in ("e8m0", "fp16"):
            spec = _spec(codec, block_size, scale_kind)
            for rows in (1, 7, 1100):
                t = quantize_blockwise(rng.standard_t(df=3, size=(rows, 72)), spec)
                assert t.pad_count > 0
                self._check(t)
        for values in (1, 3 * 96):
            monkeypatch.setattr(formats, "_GROUP_VALUES", values)
            self._check(t)

    @pytest.mark.parametrize("name", ["SINT4", "MXFP6e2", PASSTHROUGH.name])
    def test_no_rows(self, name):
        t = quantize_blockwise(np.empty((0, 72)), make_format(name))
        self._check(t)

    def test_groups_convert_their_own_scales(self):
        # the whole tensor's scales as float64 take 8 bytes a block, 2 MB
        # here; one group's buffer and lookup indices take 0.75 MB
        t = _random_codes(make_format("MXFP4e2"), 8192, 1024,
                          np.random.default_rng(57)).built()
        tracemalloc.start()
        try:
            for _ in formats._decoded_groups(t):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * t.scales.size

    @pytest.mark.parametrize("col", [17, 71, 72], ids=["inside", "last", "padded-tail"])
    @pytest.mark.parametrize("name", ["SINT4", "MXINT4"])
    def test_invalid_int4_code(self, name, col):
        # the pattern 0b1000 in row 690, in a later row group than the
        # first of either format, refused when the tensor is built
        spec = make_format(name)
        valid = quantize_blockwise(np.random.default_rng(55).normal(size=(700, 72)), spec)
        raw = _with_code(valid, 690, col, 0b1000)
        with pytest.raises(FormatError) as want:
            decoded_blocks(raw)
        with pytest.raises(FormatError) as got:
            raw.built()
        assert str(got.value) == str(want.value)


class TestMatmulDequantized:
    """``matmul_dequantized(x, t)`` is ``x @ dequantize(t)`` up to rounding,
    folding the block scales into ``x`` only up to an eighth of a block of
    rows."""

    @pytest.mark.parametrize("name", [*MATMUL_SPECS, PASSTHROUGH.name])
    def test_matches_the_decoded_product(self, name):
        spec = MATMUL_SPECS.get(name, PASSTHROUGH)
        rng = np.random.default_rng(54)
        t = quantize_blockwise(rng.standard_t(df=3, size=(40, 72)), spec)
        x = rng.standard_t(df=5, size=(70, 40))
        eighth = spec.block_size // 8
        for m in sorted({1, 2, eighth, eighth + 1, spec.block_size, 70} - {0}):
            want = x[:m] @ dequantize(t)
            got = formats.matmul_dequantized(x[:m], t)
            assert got.shape == want.shape
            assert _rel(got, want) <= 1e-12, m

    @pytest.mark.parametrize("name", ["SINT4", "MXINT4", "MXFP6e2", PASSTHROUGH.name])
    def test_folds_up_to_an_eighth_of_a_block_of_rows(self, monkeypatch, name):
        spec = make_format(name)
        t = quantize_blockwise(np.random.default_rng(55).normal(size=(20, 40)), spec)
        calls = []

        def counting(tensor):
            calls.append(tensor)
            return dequantize(tensor)

        monkeypatch.setattr(formats, "dequantize", counting)
        eighth = spec.block_size // 8
        for m in sorted({1, eighth, eighth + 1, spec.block_size - 1} - {0}):
            calls.clear()
            formats.matmul_dequantized(np.ones((m, 20)), t)
            folded = 8 * m <= spec.block_size and not spec.is_passthrough
            assert len(calls) == (0 if folded else 1), m

    def test_e8m0_fold_multiplies_exactly(self):
        # a power-of-two scale changes no product, so one row of one block
        # gives the decoded product's bits
        t = quantize_blockwise(np.random.default_rng(56).normal(size=(1, 32)),
                               make_format("MXFP4e2"))
        x = np.array([[3.0 ** 0.5]])
        assert _bits(formats.matmul_dequantized(x, t)).tobytes() == \
            _bits(x @ dequantize(t)).tobytes()

    @pytest.mark.parametrize("kind", ["int4", "int6", "e4m3"])
    def test_invalid_codes_raise_what_dequantize_raises(self, kind):
        # the tensor is refused when it is built, with the padded decode's
        # message, and a tensor that is built folds without raising
        codec = DECODE_CODECS[kind]
        rng = np.random.default_rng(57)
        outcomes = set()
        for draw in range(60):
            # blocks of 8 and 32 values, so one row of x folds
            spec = _spec(codec, (8, 32)[draw % 2], ("e8m0", "fp16")[draw // 2 % 2])
            raw = _random_codes(spec, 3, int(rng.integers(1, 40)), rng)
            x = np.ones((1, 3))
            want = _decoded_or_error(lambda r: x @ decoded_blocks(r), raw)
            got = _built_or_error(lambda t: formats.matmul_dequantized(x, t), raw)
            if isinstance(want, str):  # the FormatError's message
                assert got == want
            outcomes.add(isinstance(want, str))
        assert outcomes == {False, True}

    def test_shape_mismatch_is_refused(self):
        t = quantize_blockwise(np.ones((4, 8)), make_format("MXINT4"))
        with pytest.raises(ShapeError):
            formats.matmul_dequantized(np.ones((1, 5)), t)


def _counting_tiles(monkeypatch) -> list:
    """Record the ``(rows, n)`` shape of every tile ``formats`` decodes, on
    a tensor's first decode and on later ones alike."""
    tiles = []
    decode_tile = formats._decode_tile

    def counting(codec, fields, out):
        tiles.append(out.shape)
        return decode_tile(codec, fields, out)

    monkeypatch.setattr(formats, "_decode_tile", counting)
    return tiles


class TestSlabFold:
    """The scale fold decodes one slab of whole block columns at a time and
    gives the bits of the fold that decoded the whole matrix first."""

    @pytest.mark.parametrize("name", MATMUL_SPECS)
    def test_many_slabs_match_the_materialized_fold(self, monkeypatch, name):
        spec = MATMUL_SPECS[name]
        rng = np.random.default_rng(58)
        t = quantize_blockwise(rng.standard_t(df=3, size=(40, 300)), spec)
        x = rng.standard_t(df=5, size=(8, 40))
        tiles = _counting_tiles(monkeypatch)
        # the fewest blocks per slab: one, or the blocks that fill a word
        monkeypatch.setattr(formats, "_GROUP_VALUES", 1)
        for m in range(1, 9):
            want = materialized_matmul(x[:m], t)
            tiles.clear()
            got = formats.matmul_dequantized(x[:m], t)
            assert _bits(got).tobytes() == _bits(want).tobytes(), m
            if 8 * m <= spec.block_size:
                assert len(tiles) >= 3, m
                assert {rows for rows, _ in tiles} == {40}

    @pytest.mark.parametrize("name", ["SINT4", "MXFP6e2", "int6-b11-fp16"])
    def test_no_rows(self, name):
        t = quantize_blockwise(np.ones((0, 50)), MATMUL_SPECS[name])
        got = formats.matmul_dequantized(np.ones((1, 0)), t)
        assert got.shape == (1, 50) and not got.any()

    @pytest.mark.parametrize("name,pattern", [
        ("SINT4", 0b1000), ("MXINT8", 0x80), ("MXFP8e4", 0x7F),
        ("int6-b11-fp16", 0b100000),
    ])
    def test_invalid_code_in_the_last_slab(self, monkeypatch, name, pattern):
        spec = MATMUL_SPECS[name]
        valid = quantize_blockwise(np.random.default_rng(59).normal(size=(6, 300)), spec)
        # the last code of the padded tail, in the last of several slabs,
        # and in the last row group the check reads
        raw = _with_code(valid, 4, valid.n_blocks * spec.block_size - 1, pattern)
        with pytest.raises(FormatError) as want:
            decoded_blocks(raw)
        tiles = _counting_tiles(monkeypatch)
        monkeypatch.setattr(formats, "_GROUP_VALUES", 1)
        assert len(range(0, raw.n_blocks, formats._slab_blocks(spec, 6))) >= 3
        with pytest.raises(FormatError) as got:
            raw.built()
        assert str(got.value) == str(want.value)
        assert tiles == []  # refused before any tile is decoded

    def test_batch_one_never_holds_the_decoded_matrix(self):
        # numpy reports its buffers to tracemalloc; the materialized fold
        # peaked above rows * padded * 8 bytes
        t = quantize_blockwise(np.random.default_rng(60).normal(size=(1024, 1024)),
                               make_format("SINT4"))
        x = np.random.default_rng(61).normal(size=(1, 1024))
        tracemalloc.start()
        try:
            formats.matmul_dequantized(x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * t.n_blocks * t.spec.block_size * 8 / 4


# one invalid pattern of each kind: a 4-bit and an 8-bit integer, the e4m3
# NaN, and a 6-bit integer whose 77-code rows end mid-word
INVALID_CODES = [("SINT4", 0b1000), ("MXINT8", 0x80), ("MXFP8e4", 0x7F),
                 ("int6-b11-fp16", 0b100000)]


class TestKeptFields:
    """A tensor's codes are checked once, when it is built, and its lookup
    fields are unpacked by its first decode and kept: later folds and
    row-group decodes unpack nothing, check nothing and give the same
    bits."""

    @pytest.mark.parametrize("fold_first", [True, False], ids=["fold", "rows"])
    @pytest.mark.parametrize("name", MATMUL_SPECS)
    def test_later_decodes_repeat_the_first(self, monkeypatch, name, fold_first):
        spec = MATMUL_SPECS[name]
        rng = np.random.default_rng(62)
        m = rng.standard_t(df=3, size=(40, 300))
        x = rng.standard_t(df=5, size=(1, 40))
        monkeypatch.setattr(formats, "_GROUP_VALUES", 1)  # many slabs and groups

        def fold(t):
            return _bits(formats.matmul_dequantized(x, t)).tobytes()

        def rows(t):
            return _bits(dequantize(t)).tobytes()

        first, second = (fold, rows) if fold_first else (rows, fold)
        t = quantize_blockwise(m, spec)
        want = {first: first(t), second: second(t)}
        # each is a fresh tensor's first decode
        assert want == {first: first(quantize_blockwise(m, spec)),
                        second: second(quantize_blockwise(m, spec))}
        calls = []

        def recording(helper):
            original = getattr(formats, helper)

            def record(*args):
                calls.append(helper)
                return original(*args)
            monkeypatch.setattr(formats, helper, record)

        recording("_unpack_codes")  # unpacks the fields of a first decode
        recording("_check_codes")  # runs when a tensor is built
        tiles = _counting_tiles(monkeypatch)
        for _ in range(2):
            assert {first: first(t), second: second(t)} == want
        assert calls == [] and len(tiles) >= 4

    def test_codes_are_read_only(self):
        codes = np.zeros((2, 48), dtype=np.uint8)
        codes[0, 0] = 1  # the smallest e2m3 subnormal, 1/8
        t = QuantizedTensor((2, 64), make_format("MXFP6e2"), codes,
                            np.full((2, 2), 127, dtype=np.uint8))
        assert dequantize(t)[0, 0] == 0.125
        with pytest.raises(ValueError, match="read-only"):
            t.codes[0, 0] = 2
        codes[0, 0] = 2  # the caller's array stays writeable, and apart
        assert dequantize(t)[0, 0] == 0.125
        with pytest.raises(ValueError, match="read-only"):
            t.scales[0, 0] = 128

    def test_a_tensor_built_on_a_view_keeps_its_codes(self):
        # a write into the base of the view the tensor was built on puts an
        # invalid pattern, 0b1000, in both nibbles of the base's first byte
        base = np.full((2, 64), 0x11, dtype=np.uint8)
        t = QuantizedTensor((2, 64), make_format("SINT4"), base[:, :32],
                            np.ones((2, 1), dtype=np.float16))
        want = dequantize(t).tobytes()
        base[0, 0] = 0x88
        assert dequantize(t).tobytes() == want

    @pytest.mark.parametrize("name,pattern", INVALID_CODES)
    def test_a_replaced_copy_is_checked_anew(self, name, pattern):
        spec = MATMUL_SPECS[name]
        valid = quantize_blockwise(np.random.default_rng(60).normal(size=(6, 300)), spec)
        formats.matmul_dequantized(np.ones((1, 6)), valid)
        dequantize(valid)
        raw = _with_code(valid, 2, 150, pattern)
        with pytest.raises(FormatError) as want:
            decoded_blocks(raw)
        with pytest.raises(FormatError) as got:
            dataclasses.replace(valid, codes=raw.codes)
        assert str(got.value) == str(want.value)

    def test_copies_are_built_anew(self):
        t = quantize_blockwise(np.random.default_rng(61).normal(size=(5, 70)),
                               make_format("MXFP6e2"))
        want = dequantize(t).tobytes()
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and not twin.codes.flags.writeable
            assert dequantize(twin).tobytes() == want


# float16 bit patterns of scales outside (0, inf), with the ids of
# test_bundle_io.py::test_fp16_scale_must_be_finite_and_positive
FP16_OUTSIDE = {"+inf": 0x7C00, "-inf": 0xFC00, "nan": 0x7E00, "+0": 0x0000,
                "-0": 0x8000, "-1": 0xBC00}


# the ways a tensor is made from ``t``, with its field ``name`` holding
# ``array``: built, or replaced, with it, or copied from a tensor that holds
# it past the constructor (as no caller can), which must be built anew
BUILDS = {
    "constructor": lambda t, name, array: QuantizedTensor(
        t.shape, t.spec, **{"codes": t.codes, "scales": t.scales, name: array}),
    "replace": lambda t, name, array: dataclasses.replace(t, **{name: array}),
    "copy": lambda t, name, array: copy.copy(_tampered(t, name, array)),
    "deepcopy": lambda t, name, array: copy.deepcopy(_tampered(t, name, array)),
    "pickle": lambda t, name, array: pickle.loads(pickle.dumps(_tampered(t, name, array))),
}


def _tampered(t: QuantizedTensor, name: str, array: np.ndarray) -> QuantizedTensor:
    tampered = copy.copy(t)
    object.__setattr__(tampered, name, array)
    return tampered


class TestValueDomains:
    """A tensor is valid once built: it refuses an fp16 scale that is not
    finite and positive and a passthrough value that is not finite, however
    it is made, so no decode can give an inf or a NaN."""

    @pytest.mark.parametrize("bits", FP16_OUTSIDE.values(), ids=FP16_OUTSIDE.keys())
    @pytest.mark.parametrize("how", BUILDS)
    def test_fp16_scale_must_be_finite_and_positive(self, how, bits):
        t = quantize_blockwise(np.random.default_rng(64).normal(size=(3, 70)),
                               make_format("SINT4"))
        scales = t.scales.copy()
        scales.view(np.uint16)[1, 1] = bits
        with pytest.raises(ParameterError, match="fp16 scale is not finite"):
            BUILDS[how](t, "scales", scales)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=str)
    @pytest.mark.parametrize("how", BUILDS)
    def test_passthrough_value_must_be_finite(self, how, value):
        t = quantize_blockwise(np.arange(15.0).reshape(3, 5) - 7, PASSTHROUGH)
        codes = t.codes.copy()
        codes[2, 4] = value
        with pytest.raises(ParameterError, match="passthrough value is not finite"):
            BUILDS[how](t, "codes", codes)

    @pytest.mark.parametrize("fmt", ["SINT4", "MXINT4", PASSTHROUGH.name])
    def test_arrays_are_read_only_copies(self, fmt):
        t = quantize_blockwise(np.random.default_rng(65).normal(size=(3, 70)),
                               make_format(fmt))
        for how, build in BUILDS.items():
            for name in ("codes", "scales"):
                mine = getattr(t, name).copy()
                built = build(t, name, mine)
                assert built == t, how
                kept = getattr(built, name)
                assert mine.flags.writeable and not np.may_share_memory(mine, kept)
                with pytest.raises(ValueError, match="read-only"):
                    kept[...] = 0


def _dividing_fake_quant(m: np.ndarray, spec: FormatSpec) -> np.ndarray:
    """``fake_quant`` as it was before e8m0 scales rescaled by a product:
    every block divided by its scale."""
    rows, cols = m.shape
    blocked = formats._blocked(m, spec.block_size)
    _, scales = formats._block_scales(spec, np.abs(blocked).max(axis=2))
    grid = spec.codec.round_values(blocked / scales[:, :, None])
    return (grid * scales[:, :, None]).reshape(rows, -1)[:, :cols]


class _UnroundedInt(IntCodec):
    """An int codec whose rounding keeps the scaled values as they are."""

    def round_values(self, scaled: np.ndarray) -> np.ndarray:
        return scaled


# the last spec shows the rescaled values themselves, before any rounding
RESCALED = {**{name: make_format(name) for name in ALL_FORMATS},
            "unrounded": FormatSpec("unrounded", 32, "e8m0", _UnroundedInt(4))}


@pytest.mark.parametrize("name", sorted(RESCALED))
def test_rescale_matches_the_division(name):
    # block maxima from 2^-1070 to 2^1000 reach both clamps of the e8m0
    # exponent, and small entries of a large block leave the normal range
    spec = RESCALED[name]
    rng = np.random.default_rng(53)
    m = rng.standard_t(df=2, size=(64, 96))
    m *= np.exp2(rng.integers(-1070, 1000, size=(64, 1)))
    m *= np.exp2(rng.integers(-60, 1, size=(64, 96)))
    assert np.isfinite(m).all()
    want = _dividing_fake_quant(m, spec)
    assert _bits(fake_quant(m, spec)).tobytes() == _bits(want).tobytes()
