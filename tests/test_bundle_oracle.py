"""Byte-identity oracle: ``save_bundle`` output on a fixed corpus.

The sha256 of every bundle below was recorded before the refactor of the
code it exercises: the staged pipeline, and for the 8-bit low-rank branches
the arithmetic minifloat rounder.  A refactor that keeps these hashes keeps
every byte of every bundle.  Floating-point results depend on the numpy
build and on the BLAS kernels, so the test skips on any other numpy or BLAS
version.
"""

import hashlib

import numpy as np
import pytest

from loraq import (
    assemble_layer,
    bundle_io,
    cli,
    compute_channel_stats,
    make_format,
    save_stats,
    save_tensor,
)

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"

# (q1, q2, optimized_lr, rotations) -> sha256 of the saved bundle
ASSEMBLED = {
    ("SINT4", "SINT4", True, True):
        "2662f008822ed198e7da966a47b01d8c79f86adb8e3e43c26f0e7dca0d864ef8",
    ("SINT4", "SINT4", False, False):
        "a7cac3af51c872ea349242e004c624f2d7364a4e228b2e7feb5ae8191848592a",
    ("MXINT4", "MXINT4", True, True):
        "6f8c1e82bbbf64d5c7ce481895db25c44ade3ec16273968306ee6309272ece64",
    ("MXINT4", "MXINT4", False, False):
        "7c244a00cec5e423017552c8884835e7cf2e594301fef77f2db7df64435d6ab2",
    ("MXFP4e2", "MXFP6e2", True, True):
        "aa92d20797581cbf9e0e4f9f8ab1e503e5ef0974b40caa37e88b0b30d142f074",
    ("MXFP4e2", "MXFP6e2", False, False):
        "5f029a6dbee21f06fd4fad0b76a3238fbc53144abac1fee73ffca7bda3e33b6c",
    # the 8-bit low-rank branches (W8A8 in the paper's mixed-precision pairs)
    ("SINT4", "MXINT8", True, True):
        "ffd625ab4d78b3d53b76dfc9d88a898dd8a1dc4352dec7b39e4261ef505204e5",
    ("MXFP4e2", "MXFP8e4", True, True):
        "a463cdd29522606b9f54490cc423269e7acdfb80be877153d2d106671ee8170a",
}

# calibration file kind -> sha256 of the bundle ``loraq quantize --stats`` wrote
CALIBRATED = {
    "LQT1": "7ed12a6ff703b59374a41a377ed2bbeed437af6d8296f8b8545d557f37099d7b",
    "LQS1": "01b66b5843297b5e81f4764225896a89440fef6a4d15d3b0f9e6fbd40721580d",
}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas['name']} {blas.get('version', '?')}"


pytestmark = pytest.mark.skipif(
    (np.__version__, _blas()) != (RECORDED_NUMPY, RECORDED_BLAS),
    reason=f"hashes were recorded with numpy {RECORDED_NUMPY} and "
    f"{RECORDED_BLAS}; this is numpy {np.__version__} and {_blas()}",
)


def _weight(seed: int) -> np.ndarray:
    # heavy tails, and 72 columns so that MX rows end in a padded block
    return np.random.default_rng(seed).standard_t(df=5, size=(40, 72))


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(ASSEMBLED), ids=str)
def test_assembled_bundle_bytes(case, tmp_path):
    q1, q2, optimized, rotated = case
    bundle = assemble_layer(_weight(0), make_format(q1), make_format(q2), rank=8,
                            optimized_lr=optimized, rotations=rotated, seed=5,
                            absorb_steps=6, rotation_steps=4)
    path = tmp_path / "b.lrqb"
    bundle_io.save_bundle(path, bundle)
    assert _sha(path) == ASSEMBLED[case]


@pytest.mark.parametrize("kind", sorted(CALIBRATED))
def test_calibrated_quantize_bytes(kind, tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(64, 40))
    x[:, 3] *= 30.0
    calibration = tmp_path / "cal"
    if kind == "LQT1":
        save_tensor(calibration, x)
    else:
        save_stats(calibration, compute_channel_stats(x))
    weight = tmp_path / "w.lqt"
    save_tensor(weight, _weight(2))
    out = tmp_path / "w.lrqb"
    code = cli.main(["quantize", str(weight), "--stats", str(calibration),
                     "--q1", "SINT4", "--q2", "MXINT4", "--rank", "6", "--steps", "5",
                     "--rot-steps", "3", "--seed", "9", "--out", str(out),
                     "--machine"])
    assert code == 0
    assert _sha(out) == CALIBRATED[kind]
