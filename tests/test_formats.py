import numpy as np
import pytest

from loraq import (
    PASSTHROUGH,
    FormatError,
    IntCodec,
    MinifloatCodec,
    ParameterError,
    UnknownFormatError,
    decode_element,
    dequantize,
    encode_element,
    fake_quant,
    int_test_format,
    make_format,
    minifloat_test_format,
    quantize_blockwise,
    registry_names,
)
from loraq.formats import _minifloat_tables

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
    assert np.array_equal(codec.decode_codes(codes), expected)


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_encode_of_decode_is_identity_on_valid_codes(name):
    codec = make_format(name).codec
    every = np.arange(1 << codec.width, dtype=np.uint8)
    valid = []
    for code in every:
        try:
            value = codec.decode_codes(np.array([code], dtype=np.uint8))[0]
        except FormatError:
            continue
        if value == 0.0 and code != 0:
            continue  # a zero with the sign bit set; encoding emits +0 only
        valid.append(code)
    valid = np.array(valid, dtype=np.uint8)
    codes, _ = _rounded(codec, codec.decode_codes(valid))
    assert np.array_equal(codes, valid)


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
        assert np.all(t.scales == 1)
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
        t.codes = t.codes[:, :1]
        with pytest.raises(FormatError):
            dequantize(t)


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
        assert t.scales.dtype == np.uint16
        assert np.array_equal(
            t.scale_values(), t.scales.view(np.float16).astype(np.float64)
        )
