"""LRQB, LQT1 and LQS1 loading: round trips, hand-patched files that must be
refused, and fuzzed files that must either load (and, for bundles, serve
finite output) or be refused with a ``LoraqError``."""

import dataclasses
import json
import os
import re
import struct
import tempfile
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraq import (
    CorruptFileError,
    ChannelStats,
    LoraqError,
    QuantizedTensor,
    assemble_layer,
    forward,
    load_bundle,
    load_stats,
    load_tensor,
    make_format,
    reconstruct_weight,
    registry_names,
    save_bundle,
    save_stats,
    save_tensor,
)

_HEADER = 4 + 2 + 4  # magic, version u16, manifest length u32


def _bundle(q1="SINT4", q2="MXINT4", gamma=True, rows=12):
    rng = np.random.default_rng(0)
    w = rng.standard_t(df=5, size=(rows, 72))  # 72 columns: padded last block
    stats = ChannelStats(rng.uniform(0.5, 30.0, size=rows), sample_count=8)
    return assemble_layer(w, make_format(q1), make_format(q2), rank=3,
                          calibration=stats if gamma else None,
                          absorb_steps=2, rotation_steps=1)


def _saved(tmp_path, **kwargs) -> bytes:
    path = tmp_path / "b.lrqb"
    save_bundle(path, _bundle(**kwargs))
    return path.read_bytes()


def _chunk_offsets(data: bytes) -> dict[str, int]:
    """Offset of each chunk's tag, walked from the manifest's chunk table."""
    (manifest_len,) = struct.unpack_from("<I", data, 6)
    manifest = json.loads(data[_HEADER:_HEADER + manifest_len])
    offsets, at = {}, _HEADER + manifest_len
    for chunk in manifest["chunks"]:
        offsets[chunk["tag"]] = at
        at += 4 + 8 + chunk["length"]
    return offsets


def _payload(data: bytes, tag: str) -> int:
    return _chunk_offsets(data)[tag] + 4 + 8


def _with_manifest(data: bytes, edit) -> bytes:
    """``data`` with its manifest passed through ``edit`` and re-encoded."""
    (manifest_len,) = struct.unpack_from("<I", data, 6)
    manifest = json.loads(data[_HEADER:_HEADER + manifest_len])
    edit(manifest)
    patched = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return (data[:6] + struct.pack("<I", len(patched)) + patched
            + data[_HEADER + manifest_len:])


def _rechunked(data: bytes, edit) -> bytes:
    """``data`` with its ``(tag, payload)`` chunk list passed through ``edit``
    and the manifest's chunk table to match."""
    (manifest_len,) = struct.unpack_from("<I", data, 6)
    manifest = json.loads(data[_HEADER:_HEADER + manifest_len])
    chunks, at = [], _HEADER + manifest_len
    for chunk in manifest["chunks"]:
        chunks.append((chunk["tag"], data[at + 12:at + 12 + chunk["length"]]))
        at += 12 + chunk["length"]
    chunks = edit(chunks)
    table = [{"tag": tag, "length": len(payload)} for tag, payload in chunks]
    body = b"".join(tag.encode() + struct.pack("<Q", len(payload)) + payload
                    for tag, payload in chunks)
    return _with_manifest(data[:_HEADER + manifest_len],
                          lambda m: m.update(chunks=table)) + body


def _with_chunk(data: bytes, tag: str, payload: bytes | None) -> bytes:
    """``data`` with chunk ``tag`` holding ``payload``, or dropped for None,
    and the manifest's chunk table to match."""
    return _rechunked(data, lambda chunks: [
        (t, payload if t == tag else kept) for t, kept in chunks
        if t != tag or payload is not None])


def _load_patched(tmp_path, data: bytes):
    path = tmp_path / "patched.lrqb"
    path.write_bytes(data)
    return load_bundle(path)


# every registry q1 with every q2, passthrough included, with and without gamma
ROUND_TRIPS = [(q1, q2, gamma) for q1 in registry_names()
               for q2 in (*registry_names(), "fp16-passthrough")
               for gamma in (True, False)]


@pytest.mark.parametrize("q1,q2,gamma", ROUND_TRIPS)
def test_round_trip_is_bit_exact(tmp_path, q1, q2, gamma):
    original = _bundle(q1, q2, gamma)
    path = tmp_path / "b.lrqb"
    save_bundle(path, original)
    bundle = _load_patched(tmp_path, path.read_bytes())
    assert bundle == original
    again = tmp_path / "again.lrqb"
    save_bundle(again, bundle)
    assert again.read_bytes() == path.read_bytes()
    assert np.all(np.isfinite(reconstruct_weight(bundle)))


# codecs whose value tables are not finite, normal float64 values, or that
# have no value besides zero; each keeps the element width of the format
UNBUILDABLE = {
    "bias -2000": ({"kind": "minifloat", "exp_bits": 2, "mantissa_bits": 1,
                    "bias": -2000}, 4),
    "mantissa_bits -2": ({"kind": "minifloat", "exp_bits": 5, "mantissa_bits": -2,
                          "bias": 1}, 4),
    "exp_bits 0": ({"kind": "minifloat", "exp_bits": 0, "mantissa_bits": 3,
                    "bias": 1}, 4),
    "exp_bits 2^40": ({"kind": "minifloat", "exp_bits": 2**40, "mantissa_bits": 1,
                       "bias": 1}, 4),
    "int bits 1": ({"kind": "int", "bits": 1}, 1),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_unbuildable_codec_is_refused(tmp_path, case):
    codec, width = UNBUILDABLE[case]

    def edit(manifest):
        manifest["meta"]["q1"].update({"codec": codec, "bits_per_value": width})

    data = _with_manifest(_saved(tmp_path, q1="MXFP4e2", q2="MXINT4"), edit)
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


# format descriptions that name a buildable codec but disagree with it
MISDESCRIBED = {
    "passthrough scale_kind bogus": ("q2", {"scale_kind": "bogus"}),
    "passthrough scale_kind e8m0": ("q2", {"scale_kind": "e8m0"}),
    "passthrough bits_per_value 3": ("q2", {"bits_per_value": 3}),
    "passthrough bits_per_value '16'": ("q2", {"bits_per_value": "16"}),
    "int4 bits_per_value 8": ("q1", {"bits_per_value": 8}),
}


@pytest.mark.parametrize("case", sorted(MISDESCRIBED))
def test_misdescribed_format_is_refused(tmp_path, case):
    which, patch = MISDESCRIBED[case]
    data = _with_manifest(
        _saved(tmp_path, q1="MXINT4", q2="fp16-passthrough", gamma=False),
        lambda m: m["meta"][which].update(patch))
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


@pytest.mark.parametrize("key", ["act_format", "lowrank_act_format"])
@pytest.mark.parametrize("value", [[1], 7, {"name": "MXINT8"}, True, "BOGUS"])
def test_activation_format_must_be_a_name_or_null(tmp_path, key, value):
    data = _with_manifest(_saved(tmp_path), lambda m: m["meta"].update({key: value}))
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


@pytest.mark.parametrize("key", ["act_format", "lowrank_act_format"])
def test_activation_format_name_loads(tmp_path, key):
    data = _with_manifest(_saved(tmp_path), lambda m: m["meta"].update({key: "MXINT8"}))
    assert getattr(_load_patched(tmp_path, data).meta, key) == "MXINT8"


@pytest.mark.parametrize("bits", [0x7C00, 0xFC00, 0x7E00, 0x0000, 0x8000, 0xBC00],
                         ids=["+inf", "-inf", "nan", "+0", "-0", "-1"])
def test_fp16_scale_must_be_finite_and_positive(tmp_path, bits):
    data = bytearray(_saved(tmp_path))
    struct.pack_into("<H", data, _payload(data, "PSCL"), bits)
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, bytes(data))
    assert info.value.offset == _chunk_offsets(data)["PSCL"]


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -2.0])
def test_gamma_entries_must_be_finite_and_positive(tmp_path, value):
    data = bytearray(_saved(tmp_path))
    struct.pack_into("<d", data, _payload(data, "GAMA") + 8 * 5, value)
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, bytes(data))
    assert info.value.offset == _chunk_offsets(data)["GAMA"]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("tag", ["LCOD", "RCOD"])
def test_passthrough_payload_must_be_finite(tmp_path, tag, value):
    data = bytearray(_saved(tmp_path, q1="MXINT4", q2="fp16-passthrough", gamma=False))
    struct.pack_into("<d", data, _payload(data, tag) + 8 * 2, value)
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, bytes(data))
    assert info.value.offset == _chunk_offsets(data)[tag]


@pytest.mark.parametrize("which,tag,pad", [
    ("residual", "PCOD", 0),  # SINT4 over 72 columns pads 56
    ("residual", "PCOD", 8),
    ("left", "LCOD", 1),  # MXINT4 over rank 3 pads 29
    ("right", "RCOD", 0),  # MXINT4 over 72 columns pads 24
])
def test_pad_count_must_match_the_shape(tmp_path, which, tag, pad):
    data = _with_manifest(_saved(tmp_path), lambda m: m["pad"].update({which: pad}))
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _chunk_offsets(data)[tag]


@pytest.mark.parametrize("key,value", [
    ("rank", 0), ("rank", -3), ("shape", [0, 72]), ("shape", [12, 0]),
    ("shape", [-12, 72]),
])
def test_rank_and_shape_below_one_are_refused(tmp_path, key, value):
    data = _with_manifest(_saved(tmp_path), lambda m: m["meta"].update({key: value}))
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


_PLAN = ["PCOD", "PSCL", "LCOD", "LSCL", "RCOD", "RSCL"]


def test_missing_chunk_is_refused(tmp_path):
    data = _with_chunk(_saved(tmp_path, gamma=False), "RSCL", None)
    with pytest.raises(CorruptFileError, match=re.escape(
            f"manifest lists chunks {_PLAN[:-1]}, expected {_PLAN}")) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


def test_promised_gamma_chunk_must_be_present(tmp_path):
    data = _with_manifest(_saved(tmp_path, gamma=False), lambda m: m.update(gamma=True))
    with pytest.raises(CorruptFileError, match=re.escape(
            f"manifest lists chunks {_PLAN}, expected {[*_PLAN, 'GAMA']}")) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


# chunk lists that a reader taking chunks by tag in any order loads; the
# repeated PCOD holds other codes, so the loaded bundle would differ
NOT_THE_PLAN = {
    "reordered": lambda chunks: [chunks[1], chunks[0], *chunks[2:]],
    "unknown tag": lambda chunks: [*chunks[:2], ("XTRA", b"\0" * 8), *chunks[2:]],
    "PCOD twice": lambda chunks: [*chunks, ("PCOD", bytes(len(chunks[0][1])))],
}


@pytest.mark.parametrize("case", sorted(NOT_THE_PLAN))
def test_chunk_table_must_follow_the_plan(tmp_path, case):
    data = _rechunked(_saved(tmp_path), NOT_THE_PLAN[case])
    with pytest.raises(CorruptFileError, match="manifest lists chunks") as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


def test_gamma_chunk_must_hold_one_value_per_row(tmp_path):
    data = _with_chunk(_saved(tmp_path, rows=16), "GAMA", struct.pack("<d", 1.0))
    with pytest.raises(CorruptFileError,
                       match="gamma chunk holds 8 bytes, expected 128") as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _chunk_offsets(data)["GAMA"]


def test_short_scale_chunk_is_refused(tmp_path):
    # MXINT4 over rank 3 stores one e8m0 scale byte per row of the left factor
    data = _saved(tmp_path, rows=16)
    short = data[_payload(data, "LSCL"):_payload(data, "LSCL") + 15]
    data = _with_chunk(data, "LSCL", short)
    with pytest.raises(CorruptFileError,
                       match="scale chunk holds 15 bytes, expected 16") as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _chunk_offsets(data)["LSCL"]


def _float_length(manifest, tag):
    [chunk] = [c for c in manifest["chunks"] if c["tag"] == tag]
    chunk["length"] = float(chunk["length"])


# manifest counts and toggles that are not JSON integers or booleans; each
# loaded at a bare int() or bool() as the value it truncates or tests true to
NOT_JSON_COUNTS = {
    "rank 3.9": lambda m: m["meta"].update(rank=3.9),
    "shape 12.7": lambda m: m["meta"].update(shape=[12.7, 72]),
    "residual pad 56.4": lambda m: m["pad"].update(residual=56.4),
    "q1 bits 4.9": lambda m: m["meta"]["q1"]["codec"].update(bits=4.9),
    "q1 bits '4'": lambda m: m["meta"]["q1"]["codec"].update(bits="4"),
    "seed 1.5": lambda m: m["meta"].update(seed=1.5),
    "rank_requested '3'": lambda m: m["meta"].update(rank_requested="3"),
    "chunk length as a float": lambda m: _float_length(m, "RSCL"),
    "optimized_lr 'false'": lambda m: m["meta"].update(optimized_lr="false"),
    "gamma 'false'": lambda m: m.update(gamma="false"),
}


@pytest.mark.parametrize("case", sorted(NOT_JSON_COUNTS))
def test_counts_and_toggles_must_be_json_integers_and_booleans(tmp_path, case):
    data = _with_manifest(_saved(tmp_path), NOT_JSON_COUNTS[case])
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


def _chunk_tag(manifest, tag, value):
    [chunk] = [c for c in manifest["chunks"] if c["tag"] == tag]
    chunk["tag"] = value


# manifest names, numbers and objects without their JSON type, refused at
# the manifest rather than taken through a bare str(), float() or dict()
NOT_JSON_TYPED = {
    "q1 name 5": lambda m: m["meta"]["q1"].update(name=5),
    "lowrank_q2_mse true": lambda m: m["meta"].update(lowrank_q2_mse=True),
    "lowrank_q2_mse 'nan'": lambda m: m["meta"].update(lowrank_q2_mse="nan"),
    "lowrank_q2_mse NaN": lambda m: m["meta"].update(lowrank_q2_mse=float("nan")),
    "lowrank_q2_mse Infinity": lambda m: m["meta"].update(lowrank_q2_mse=float("inf")),
    "absorb as pairs": lambda m: m["meta"].update(absorb=[["steps", 1]]),
    "rotation as pairs": lambda m: m["meta"].update(rotation=[["steps", 1]]),
    "absorb best_loss NaN": lambda m: m["meta"]["absorb"].update(best_loss=float("nan")),
    "absorb steps 1.5": lambda m: m["meta"]["absorb"].update(steps=1.5),
    "absorb without final_loss": lambda m: m["meta"]["absorb"].pop("final_loss"),
    "absorb with an extra key": lambda m: m["meta"]["absorb"].update(note=float("nan")),
    "rotation init_loss Infinity": lambda m: m["meta"]["rotation"].update(
        init_loss=float("inf")),
    "smoothing alpha_mig NaN": lambda m: m["meta"]["smoothing"].update(
        alpha_mig=float("nan")),
    "smoothing search_score '1'": lambda m: m["meta"]["smoothing"].update(
        search_score="1"),
    "smoothing source null": lambda m: m["meta"]["smoothing"].update(source=None),
    "chunk tag 5": lambda m: _chunk_tag(m, "PCOD", 5),
}


@pytest.mark.parametrize("case", sorted(NOT_JSON_TYPED))
def test_names_numbers_and_objects_must_have_their_json_type(tmp_path, case):
    data = _with_manifest(_saved(tmp_path), NOT_JSON_TYPED[case])
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


def test_grid_searched_bundle_resaves_to_its_bytes(tmp_path):
    # its smoothing summary holds a search score where a stats one holds null
    rng = np.random.default_rng(3)
    w = rng.standard_t(df=5, size=(12, 72))
    original = assemble_layer(w, make_format("SINT4"), make_format("MXINT4"), rank=3,
                              calibration=rng.normal(size=(16, 12)),
                              absorb_steps=1, rotation_steps=1)
    assert original.meta.smoothing["source"] == "grid-search"
    path = tmp_path / "b.lrqb"
    save_bundle(path, original)
    again = tmp_path / "again.lrqb"
    save_bundle(again, _load_patched(tmp_path, path.read_bytes()))
    assert again.read_bytes() == path.read_bytes()


def test_manifest_integer_beyond_the_parser_limit_is_refused(tmp_path):
    # json.loads raises a plain ValueError for over 4300 digits; it escaped
    data = _saved(tmp_path)
    (manifest_len,) = struct.unpack_from("<I", data, 6)
    manifest = data[_HEADER:_HEADER + manifest_len]
    patched = manifest.replace(b'"seed":0', b'"seed":' + b"9" * 5000)
    assert patched != manifest
    data = (data[:6] + struct.pack("<I", len(patched)) + patched
            + data[_HEADER + manifest_len:])
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


def test_rebuilt_tensors_round_trip(tmp_path):
    # a tensor built from its arrays alone derives the pad count it is saved with
    bundle = _bundle()
    rebuilt = {name: QuantizedTensor(t.shape, t.spec, t.codes, t.scales)
               for name in ("residual", "lowrank_left", "lowrank_right")
               for t in [getattr(bundle, name)]}
    path = tmp_path / "rebuilt.lrqb"
    save_bundle(path, dataclasses.replace(bundle, **rebuilt))
    assert load_bundle(path) == bundle


@pytest.mark.parametrize("shape", [[12], [], 12])
def test_malformed_manifest_shape_is_refused(tmp_path, shape):
    data = _with_manifest(_saved(tmp_path),
                          lambda m: m["meta"].update({"shape": shape}))
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _HEADER


def test_version_zero_is_refused(tmp_path):
    data = bytearray(_saved(tmp_path))
    struct.pack_into("<H", data, 4, 0)
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, bytes(data))
    assert info.value.offset == 4


FUZZED = [("SINT4", "MXINT4", True), ("MXFP4e2", "MXFP8e4", True),
          ("MXINT4", "fp16-passthrough", False)]


@lru_cache(maxsize=None)
def _saved_bytes(case) -> bytes:
    q1, q2, gamma = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.lrqb")
        save_bundle(path, _bundle(q1, q2, gamma))
        with open(path, "rb") as fh:
            return fh.read()


def _load_bytes(data: bytes, loader=load_bundle):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed")
        with open(path, "wb") as fh:
            fh.write(data)
        return loader(path)


@pytest.mark.parametrize("case", FUZZED, ids=str)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_bundle_is_refused(case, data):
    raw = _saved_bytes(case)
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(LoraqError):
        _load_bytes(raw[:cut])


@pytest.mark.parametrize("case", FUZZED, ids=str)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_byte_flipped_bundle_serves_finite_output_or_is_refused(case, data):
    raw = bytearray(_saved_bytes(case))
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
        min_size=1, max_size=3))
    for at, mask in flips:
        raw[at] ^= mask
    try:
        bundle = _load_bytes(bytes(raw))
        x = np.random.default_rng(0).normal(size=(2, bundle.meta.shape[0]))
        y = forward(bundle, x)
    except LoraqError:
        return
    assert np.all(np.isfinite(y))


def _file_bytes(save, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved")
        save(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


_rng = np.random.default_rng(3)
SMALL_FILES = {
    "LQT1-f64": (_file_bytes(save_tensor, _rng.normal(size=(3, 5)), "f64"), load_tensor),
    "LQT1-f32": (_file_bytes(save_tensor, _rng.normal(size=(4, 2)), "f32"), load_tensor),
    "LQS1": (_file_bytes(save_stats, ChannelStats(_rng.uniform(0.5, 9.0, size=7),
                                                  sample_count=11)), load_stats),
}


@pytest.mark.parametrize("case", sorted(SMALL_FILES))
def test_small_files_round_trip(case):
    raw, loader = SMALL_FILES[case]
    loaded = _load_bytes(raw, loader)
    if loader is load_stats:
        assert _file_bytes(save_stats, loaded) == raw
    else:
        assert _file_bytes(save_tensor, loaded, case[-3:]) == raw


def test_tensor_refusals_name_their_field_and_offset():
    raw = SMALL_FILES["LQT1-f64"][0]  # 3 x 5 float64 after a 21-byte header
    fields = [(4, "tensor magic", 0), (5, "element kind", 4), (13, "row count", 5),
              (21, "column count", 13), (len(raw), "tensor payload", 21)]
    for cut in range(len(raw)):
        _, what, offset = next(field for field in fields if cut < field[0])
        with pytest.raises(CorruptFileError,
                           match=f"^truncated while reading {what} at offset {offset}$") as info:
            _load_bytes(raw[:cut], load_tensor)
        assert info.value.offset == offset
    with pytest.raises(CorruptFileError, match="^3 trailing bytes after tensor payload$") as info:
        _load_bytes(raw + b"xyz", load_tensor)
    assert info.value.offset == len(raw)


def test_tensor_header_is_checked_before_the_payload_is_allocated():
    # 2^20 x 2^20 float64 declared on a file with no payload: refused with a
    # traced peak of a few kilobytes, not the 8 TB the header asks for
    raw = b"LQT1" + struct.pack("<BQQ", 8, 1 << 20, 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFileError, match="tensor payload at offset 21"):
            _load_bytes(raw, load_tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("cols", [1 << 63, (1 << 64) - 1])
def test_an_empty_tensor_too_wide_for_an_array_is_refused(cols):
    raw = b"LQT1" + struct.pack("<BQQ", 8, 0, cols)
    with pytest.raises(CorruptFileError, match="too large") as info:
        _load_bytes(raw, load_tensor)
    assert info.value.offset == 5


@pytest.mark.parametrize("kind", ["f64", "f32"])
def test_load_tensor_holds_the_payload_once(tmp_path, kind):
    # an f64 payload is read straight into the result; an f32 one is cast
    w = np.random.default_rng(70).normal(size=(1024, 1024))
    path = tmp_path / "w.lqt"
    save_tensor(path, w, kind)
    loaded = []
    tracemalloc.start()
    try:
        loaded.append(load_tensor(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = w.size * (8 if kind == "f64" else 4)
    assert peak < (1.1 if kind == "f64" else 3.1) * payload
    (got,) = loaded
    assert got.dtype == np.float64 and got.flags.writeable and got.flags.owndata
    assert got.tobytes() == (w if kind == "f64" else w.astype(np.float32)).astype(
        np.float64).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -2.0], ids=["nan", "inf", "negative"])
def test_stats_maxima_must_be_finite_and_non_negative(value):
    raw = bytearray(SMALL_FILES["LQS1"][0])
    payload = 4 + 8 + 8  # magic, sample count, channel count
    struct.pack_into("<d", raw, payload + 8 * 3, value)
    with pytest.raises(CorruptFileError) as info:
        _load_bytes(bytes(raw), load_stats)
    assert info.value.offset == payload


@pytest.mark.parametrize("case", sorted(SMALL_FILES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_tensor_or_stats_file_is_refused(case, data):
    raw, loader = SMALL_FILES[case]
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(LoraqError):
        _load_bytes(raw[:cut], loader)


@pytest.mark.parametrize("case", sorted(SMALL_FILES))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_byte_flipped_tensor_or_stats_file_loads_or_is_refused(case, data):
    raw, loader = SMALL_FILES[case]
    flipped = bytearray(raw)
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
        min_size=1, max_size=3))
    for at, mask in flips:
        flipped[at] ^= mask
    try:
        loaded = _load_bytes(bytes(flipped), loader)
    except LoraqError:
        return
    values = loaded.activation_max if loader is load_stats else loaded
    assert values.dtype == np.float64
    assert values.ndim == (1 if loader is load_stats else 2)
