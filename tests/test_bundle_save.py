"""A bundle that loading would refuse never reaches a file: its float
values cannot be built, and saving refuses its manifest before it opens
the file, so a refused save leaves no file behind and an existing one
byte-for-byte as it was.  The same holds for an LQT1 float32 file whose
entries float32 cannot hold."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from loraq import (
    PASSTHROUGH,
    ChannelStats,
    CorruptFileError,
    FormatSpec,
    IntCodec,
    ParameterError,
    assemble_layer,
    load_bundle,
    make_format,
    save_bundle,
    save_tensor,
)


def _bundle(q1=None, act_format=None, rank=3, q2=None):
    rng = np.random.default_rng(0)
    w = rng.standard_t(df=5, size=(12, 72))
    stats = ChannelStats(rng.uniform(0.5, 30.0, size=12), sample_count=8)
    return assemble_layer(w, q1 or make_format("SINT4"), q2 or make_format("MXINT4"),
                          rank=rank, calibration=stats, absorb_steps=2, rotation_steps=1,
                          act_format=act_format)


def _with_meta(bundle, **changes):
    return dataclasses.replace(bundle, meta=dataclasses.replace(bundle.meta, **changes))


def _with_gamma(value):
    bundle = _bundle()
    gamma = bundle.gamma.copy()
    gamma[5] = value
    return dataclasses.replace(bundle, gamma=gamma)


def _with_value(name: str, array: str, value, q2=None):
    """A bundle whose tensor ``name`` holds ``value`` in its first ``array`` entry."""
    bundle = _bundle(q2=q2)
    tensor = getattr(bundle, name)
    values = getattr(tensor, array).copy()
    values[0, 0] = value
    return dataclasses.replace(
        bundle, **{name: dataclasses.replace(tensor, **{array: values})})


# bundles that assemble (or are built from one that did) but whose manifest
# load_bundle would refuse as corrupt
UNLOADABLE = {
    "unregistered act_format": lambda: _bundle(
        act_format=FormatSpec("MYINT8", 32, "e8m0", IntCodec(8))),
    "custom q1": lambda: _bundle(q1=FormatSpec("custom", 32, "e8m0", IntCodec(4))),
    "SINT4-named e8m0 q1": lambda: _bundle(q1=FormatSpec("SINT4", 64, "e8m0", IntCodec(4))),
    "rank True": lambda: _with_meta(_bundle(rank=1), rank=True),  # equals 1
    "seed 1.5": lambda: _with_meta(_bundle(), seed=1.5),
    "lowrank_q2_mse NaN": lambda: _with_meta(_bundle(), lowrank_q2_mse=float("nan")),
    "lowrank_q2_mse inf": lambda: _with_meta(_bundle(), lowrank_q2_mse=float("inf")),
}

# bundles with a float value out of its domain, which load_bundle would
# refuse as corrupt: they cannot be built
UNBUILDABLE = {
    "gamma 0": lambda: _with_gamma(0.0),
    "gamma NaN": lambda: _with_gamma(np.nan),
    "gamma all 0": lambda: dataclasses.replace(_bundle(), gamma=np.zeros(12)),
    "fp16 scale inf": lambda: _with_value("residual", "scales", np.inf),
    "fp16 scale 0": lambda: _with_value("residual", "scales", 0.0),
    "passthrough NaN": lambda: _with_value("lowrank_left", "codes", np.nan, PASSTHROUGH),
}


@pytest.mark.parametrize("existing", [None, b"kept bytes"], ids=["absent", "existing"])
@pytest.mark.parametrize("case", sorted([*UNLOADABLE, *UNBUILDABLE]))
def test_save_refuses_what_load_refuses(tmp_path, case, existing):
    path = tmp_path / "b.lrqb"
    if existing is not None:
        path.write_bytes(existing)
    if case in UNBUILDABLE:  # refused before there is a bundle to save
        with pytest.raises(ParameterError, match="is not finite"):
            UNBUILDABLE[case]()
    else:
        bundle = UNLOADABLE[case]()
        with pytest.raises(ParameterError, match="would not load"):
            save_bundle(path, bundle)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


def _chunk_payload(data: bytes, tag: str) -> tuple[int, int]:
    """``(offset of the tag, offset of the payload)`` of chunk ``tag``,
    walked from the manifest's chunk table."""
    (manifest_len,) = struct.unpack_from("<I", data, 6)
    at = 10 + manifest_len  # magic, version u16, manifest length u32, manifest
    for chunk in json.loads(data[10:at])["chunks"]:
        if chunk["tag"] == tag:
            return at, at + 4 + 8
        at += 4 + 8 + chunk["length"]
    raise KeyError(tag)


# the saved bytes that UNBUILDABLE's bundles would have: (q2, chunk, struct
# format of an entry, entries patched, value)
FLOAT_CHUNKS = {
    "gamma 0": (None, "GAMA", "<d", [5], 0.0),
    "gamma NaN": (None, "GAMA", "<d", [5], np.nan),
    "gamma all 0": (None, "GAMA", "<d", range(12), 0.0),
    "fp16 scale inf": (None, "PSCL", "<e", [0], np.inf),
    "fp16 scale 0": (None, "PSCL", "<e", [0], 0.0),
    "passthrough NaN": (PASSTHROUGH, "LCOD", "<d", [0], np.nan),
}


@pytest.mark.parametrize("case", FLOAT_CHUNKS)
def test_load_refuses_the_float_chunks_save_refuses(tmp_path, case):
    # written by patching a saved bundle's bytes, each file is refused as
    # corrupt at the chunk's tag
    q2, tag, fmt, entries, value = FLOAT_CHUNKS[case]
    path = tmp_path / "b.lrqb"
    save_bundle(path, _bundle(q2=q2))
    data = bytearray(path.read_bytes())
    tag_at, payload_at = _chunk_payload(data, tag)
    for entry in entries:
        struct.pack_into(fmt, data, payload_at + entry * struct.calcsize(fmt), value)
    path.write_bytes(data)
    with pytest.raises(CorruptFileError, match="is not finite") as info:
        load_bundle(path)
    assert info.value.offset == tag_at


@pytest.mark.parametrize("value", [1e39, -1e39, 3.4028236e38])
def test_f32_tensor_refuses_entries_beyond_float32(tmp_path, value):
    path = tmp_path / "t.lqt"
    with pytest.raises(ParameterError, match="float32"):
        save_tensor(path, np.array([[1.0, value]]), kind="f32")
    assert not path.exists()


def test_f32_tensor_keeps_the_largest_float32(tmp_path):
    path = tmp_path / "t.lqt"
    largest = float(np.finfo(np.float32).max)
    save_tensor(path, np.array([[largest, -largest]]), kind="f32")
    assert path.stat().st_size == 4 + 1 + 16 + 8
