"""LRQB loading: round trips, and hand-patched files that must be refused."""

import json
import struct

import numpy as np
import pytest

from loraq import (
    CorruptFileError,
    ChannelStats,
    assemble_layer,
    load_bundle,
    make_format,
    reconstruct_weight,
    save_bundle,
)

_HEADER = 4 + 2 + 4  # magic, version u16, manifest length u32


def _bundle(q1="SINT4", q2="MXINT4", gamma=True):
    rng = np.random.default_rng(0)
    w = rng.standard_t(df=5, size=(12, 72))  # 72 columns: padded last block
    stats = ChannelStats(rng.uniform(0.5, 30.0, size=12), sample_count=8)
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


def _load_patched(tmp_path, data: bytes):
    path = tmp_path / "patched.lrqb"
    path.write_bytes(data)
    return load_bundle(path)


@pytest.mark.parametrize("q1,q2,gamma", [
    ("SINT4", "MXINT4", True),
    ("MXFP4e2", "MXFP8e4", True),
    ("MXINT4", "fp16-passthrough", False),
])
def test_round_trip_is_bit_exact(tmp_path, q1, q2, gamma):
    data = _saved(tmp_path, q1=q1, q2=q2, gamma=gamma)
    bundle = _load_patched(tmp_path, data)
    again = tmp_path / "again.lrqb"
    save_bundle(again, bundle)
    assert again.read_bytes() == data
    assert np.all(np.isfinite(reconstruct_weight(bundle)))


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


@pytest.mark.parametrize("which,tag,pad", [
    ("residual", "PCOD", 0),  # SINT4 over 72 columns pads 56
    ("residual", "PCOD", 8),
    ("left", "LCOD", 1),  # MXINT4 over rank 3 pads 29
    ("right", "RCOD", 0),  # MXINT4 over 72 columns pads 24
])
def test_pad_count_must_match_the_shape(tmp_path, which, tag, pad):
    data = _saved(tmp_path)
    (manifest_len,) = struct.unpack_from("<I", data, 6)
    manifest = json.loads(data[_HEADER:_HEADER + manifest_len])
    manifest["pad"][which] = pad
    patched = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    data = (data[:6] + struct.pack("<I", len(patched)) + patched
            + data[_HEADER + manifest_len:])
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, data)
    assert info.value.offset == _chunk_offsets(data)[tag]


def test_version_zero_is_refused(tmp_path):
    data = bytearray(_saved(tmp_path))
    struct.pack_into("<H", data, 4, 0)
    with pytest.raises(CorruptFileError) as info:
        _load_patched(tmp_path, bytes(data))
    assert info.value.offset == 4
