"""Byte-identity oracle: ``save_bundle`` and ``forward`` output on a fixed
corpus.

The sha256 of every bundle below was recorded before the refactor of the
code it exercises: the staged pipeline, and for the 8-bit low-rank branches
the arithmetic minifloat rounder.  The ``forward`` hashes were recorded with
the factored low-rank branch ``(x @ L) @ R``, whose summation order differs
from the dense ``x @ (L @ R)``; the decode under them (word-based
unpacking, the byte-table lookup) kept the hashes of the dense association
unchanged.  The three cases with a SINT4 residual were re-recorded when a
batch smaller than a block began to fold the block scales into the
activations (``formats.matmul_dequantized``): their fp16 scales are not
powers of two, so ``(x * s) @ T`` rounds differently from ``x @ (s * T)``,
by at most 1.7e-16 relative on their batch-1 outputs without activation
quantization.  The e8m0 scales of the other five are powers of two, which
makes the fold exact, and their hashes held.  The two cases with a
full-precision low-rank branch were recorded while a passthrough tensor
still held its float64 values as a byte matrix.  A refactor that
keeps these hashes keeps every byte of every bundle and of every layer
output.  Floating-point results depend on the numpy build and on the BLAS
kernels, so the test skips on any other numpy or BLAS version.
"""

import hashlib

import numpy as np
import pytest

from loraq import (
    assemble_layer,
    bundle_io,
    cli,
    compute_channel_stats,
    forward,
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
    # full-precision low-rank branches, stored as float64 values
    ("MXINT4", "fp16-passthrough", True, True):
        "c2cb6ae72160fe373e1c65c0df954125b4236cf4d3ef55ef30cfe918304f3637",
    ("SINT4", "fp16-passthrough", False, False):
        "bac1a6eb1461884104a75f1dc8ef90a1c1b0a2c191fcb3e68058c6bdca7c8800",
}

# (q1, q2, optimized_lr, rotations) -> sha256 of the ``forward`` outputs of the
# bundle above at batch 1 and 64, without and then with MXINT8 activations
FORWARD = {
    ("SINT4", "SINT4", True, True):
        "f5ab5936754d782f458c7bb9d79fe25f8017e99d72925ec211775e2cdfa7c5fd",
    ("SINT4", "SINT4", False, False):
        "4cf57a22f1122d60ee7dc79f93a450a4adf8abbaa27d7d6f10826650ae94102b",
    ("MXINT4", "MXINT4", True, True):
        "aa348e42eca9ef8fa7b5820a65c3a4841660d71264a3c6e96561d3fec442e0ff",
    ("MXINT4", "MXINT4", False, False):
        "89880b89d233c2f57517acad25396128498bb852a04ea0f57690a693dbcec9f2",
    ("MXFP4e2", "MXFP6e2", True, True):
        "41f936b35e026786edc6c1d14e084d05d730c94b34b3010ef1e0c2cc6e92b516",
    ("MXFP4e2", "MXFP6e2", False, False):
        "6d2939ac3f93ea395f4afe0993ad53808d691584d2664493407c941cf30049dd",
    ("SINT4", "MXINT8", True, True):
        "588d2d75d1372dfde3f7e3fe75bf681fafd3160c2fb7c4e9bd812dc6e4a8ca7c",
    ("MXFP4e2", "MXFP8e4", True, True):
        "9e4d63d9627033410347bfc19875b92bc6f76e0c8060e895a9ab8b37dff226db",
    ("MXINT4", "fp16-passthrough", True, True):
        "9f133842adba1fa8f9ed28a67a9fe021a7a53e28e178b049e4c1d4ba8b5e0412",
    ("SINT4", "fp16-passthrough", False, False):
        "35eca32ccc300679f1984d51eb23bb2aa7722cb6ecd4a2d6955ebb56b1f93c06",
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


def _assembled(case):
    q1, q2, optimized, rotated = case
    return assemble_layer(_weight(0), make_format(q1), make_format(q2), rank=8,
                          optimized_lr=optimized, rotations=rotated, seed=5,
                          absorb_steps=6, rotation_steps=4)


@pytest.mark.parametrize("case", sorted(ASSEMBLED), ids=str)
def test_assembled_bundle_bytes(case, tmp_path):
    bundle = _assembled(case)
    path = tmp_path / "b.lrqb"
    bundle_io.save_bundle(path, bundle)
    assert _sha(path) == ASSEMBLED[case]


@pytest.mark.parametrize("case", sorted(FORWARD), ids=str)
def test_forward_output_bytes(case):
    bundle = _assembled(case)
    x = np.random.default_rng(3).standard_t(df=5, size=(64, 40))
    digest = hashlib.sha256()
    for act in (None, make_format("MXINT8")):
        for rows in (1, 64):
            y = forward(bundle, x[:rows], act)
            digest.update(np.ascontiguousarray(y).tobytes())
    assert digest.hexdigest() == FORWARD[case]


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
