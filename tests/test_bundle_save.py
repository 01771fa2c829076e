"""Saving refuses, before it opens the file, a manifest or a float chunk
that loading would refuse: a refused save leaves no file behind and an
existing one byte-for-byte as it was.  The same holds for an LQT1 float32
file whose entries float32 cannot hold."""

import dataclasses

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
    bundle_io,
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
    # float chunks out of their domain
    "gamma 0": lambda: _with_gamma(0.0),
    "gamma NaN": lambda: _with_gamma(np.nan),
    "gamma all 0": lambda: dataclasses.replace(_bundle(), gamma=np.zeros(12)),
    "fp16 scale inf": lambda: _with_value("residual", "scales", np.inf),
    "fp16 scale 0": lambda: _with_value("residual", "scales", 0.0),
    "passthrough NaN": lambda: _with_value("lowrank_left", "codes", np.nan, PASSTHROUGH),
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


FLOAT_CHUNKS = ["gamma 0", "gamma NaN", "gamma all 0", "fp16 scale inf", "fp16 scale 0",
                "passthrough NaN"]


@pytest.mark.parametrize("case", FLOAT_CHUNKS)
def test_load_refuses_the_float_chunks_save_refuses(tmp_path, monkeypatch, case):
    # written with the check off, each file is refused as corrupt at load
    path = tmp_path / "b.lrqb"
    with monkeypatch.context() as patched:
        patched.setattr(bundle_io, "_bad_values", lambda what, values: None)
        save_bundle(path, UNLOADABLE[case]())
    with pytest.raises(CorruptFileError, match="not finite"):
        load_bundle(path)


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
