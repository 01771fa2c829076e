"""Saving refuses, before it opens the file, a manifest that loading would
refuse: a refused save leaves no file behind and an existing one
byte-for-byte as it was.  The same holds for an LQT1 float32 file whose
entries float32 cannot hold."""

import dataclasses

import numpy as np
import pytest

from loraq import (
    ChannelStats,
    FormatSpec,
    IntCodec,
    ParameterError,
    assemble_layer,
    make_format,
    save_bundle,
    save_tensor,
)


def _bundle(q1=None, act_format=None, rank=3):
    rng = np.random.default_rng(0)
    w = rng.standard_t(df=5, size=(12, 72))
    stats = ChannelStats(rng.uniform(0.5, 30.0, size=12), sample_count=8)
    return assemble_layer(w, q1 or make_format("SINT4"), make_format("MXINT4"),
                          rank=rank, calibration=stats, absorb_steps=2, rotation_steps=1,
                          act_format=act_format)


def _with_meta(bundle, **changes):
    return dataclasses.replace(bundle, meta=dataclasses.replace(bundle.meta, **changes))


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


@pytest.mark.parametrize("existing", [None, b"kept bytes"], ids=["absent", "existing"])
@pytest.mark.parametrize("case", sorted(UNLOADABLE))
def test_save_refuses_what_load_refuses(tmp_path, case, existing):
    path = tmp_path / "b.lrqb"
    if existing is not None:
        path.write_bytes(existing)
    bundle = UNLOADABLE[case]()
    with pytest.raises(ParameterError, match="would not load"):
        save_bundle(path, bundle)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


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
