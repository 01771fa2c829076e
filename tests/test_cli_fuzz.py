"""Structured fuzzing of the JSON the CLI takes from outside: each leaf of a
bundle manifest, and each ``quantize --config`` key, replaced by a value of
another JSON type.  Every run must either exit 0 with strict JSON on stdout
or exit 2-5 with a last stderr line ``error: [E_XXX] ...``."""

import contextlib
import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraq import (
    PASSTHROUGH,
    assemble_layer,
    cli,
    compute_channel_stats,
    make_format,
    save_bundle,
    save_stats,
    save_tensor,
)

VALUES = [0, -1, 2**40, 1.5, 1e308, -0.0, "", "x", True, False, None, [], {}, [1, 2]]
# (q1, q2, smoothed and recording MXINT8 activations)
PAIRS = [("SINT4", "MXFP6e2", True), ("MXINT4", PASSTHROUGH.name, False),
         ("MXFP4e2", "SINT4", False)]
_ERROR_LINE = re.compile(r"error: \[E_[A-Z]+\] ")


def _format(name: str):
    return PASSTHROUGH if name == PASSTHROUGH.name else make_format(name)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv) -> None:
    code, out, err = _run(argv)
    if code == 0:
        json.loads(out, parse_constant=_refuse)
    else:
        assert 2 <= code <= 5, err
        assert _ERROR_LINE.match(err.strip().splitlines()[-1]), err


def _leaves(node, path=()):
    """The path of every leaf of a JSON tree: a scalar or an empty container."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


def _split(data: bytes) -> tuple[dict, bytes]:
    """A bundle's manifest and the chunks after it."""
    (size,) = struct.unpack_from("<I", data, 6)
    return json.loads(data[10:10 + size]), data[10 + size:]


def _join(head: bytes, manifest: dict, chunks: bytes) -> bytes:
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return head[:6] + struct.pack("<I", len(body)) + body + chunks


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A work directory holding the weight ``w.lqt``, the bytes of one
    bundle of it per pair, and every ``(pair, leaf)`` of their manifests."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(70)
    w = rng.standard_t(df=5, size=(24, 40))
    save_tensor(root / "w.lqt", w)
    stats = compute_channel_stats(rng.normal(size=(8, 24)))
    save_stats(root / "x.lqs", stats)
    bundles = {}
    for q1, q2, smoothed in PAIRS:
        bundle = assemble_layer(w, _format(q1), _format(q2), rank=4, absorb_steps=2,
                                rotation_steps=1, calibration=stats if smoothed else None,
                                act_format=make_format("MXINT8") if smoothed else None)
        save_bundle(root / "b.lrqb", bundle)
        bundles[q1, q2] = (root / "b.lrqb").read_bytes()
    cases = [(pair, leaf) for pair, data in bundles.items()
             for leaf in _leaves(_split(data)[0])]
    return root, bundles, cases


def test_corpus_covers_every_manifest_part(corpus):
    _, bundles, cases = corpus
    tops = {leaf[0] for _, leaf in cases}
    assert tops == {"meta", "pad", "gamma", "chunks"}
    metas = {leaf[1] for _, leaf in cases if leaf[0] == "meta"}
    assert {"q1", "q2", "absorb", "rotation", "smoothing", "shape"} <= metas
    assert len(cases) > 120


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data(), value=st.sampled_from(VALUES))
def test_manifest_leaf_of_another_type(corpus, data, value):
    # the bundle must load and inspect cleanly or be refused as corrupt, and
    # so must evaluate, which reconstructs it and checks the matmul bound
    root, bundles, cases = corpus
    pair, leaf = data.draw(st.sampled_from(cases))
    manifest, chunks = _split(bundles[pair])
    node = manifest
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = root / "patched.lrqb"
    path.write_bytes(_join(bundles[pair], manifest, chunks))
    _assert_contract(["inspect", str(path), "--machine"])
    _assert_contract(["evaluate", str(path), str(root / "w.lqt"), "--machine"])


# A short run; each quantize setting in turn is added or replaced.
_CONFIG = {"q1": "SINT4", "q2": "MXINT4", "rank": 4, "steps": 2, "rot_steps": 1,
           "act_format": "MXINT8", "stats": "x.lqs", "out": "o.lrqb"}
_SETTINGS = sorted(a.dest for a in cli.build_parser()[1]["quantize"]._actions
                   if a.option_strings and a.dest not in cli._NOT_SETTINGS)


@pytest.mark.filterwarnings("ignore::loraq.RankCapWarning")  # a rank of 2^40 is capped
@settings(max_examples=100, deadline=None, derandomize=True)
@given(key=st.sampled_from(_SETTINGS), value=st.sampled_from(VALUES))
def test_config_key_of_another_type(corpus, key, value):
    root = corpus[0]
    config = dict(_CONFIG, **{key: value})
    if key == "budget" and value is not None:
        del config["rank"]
    path = root / "cfg.json"
    path.write_text(json.dumps(config))
    # a step count is the run's length, and 2^40 steps would run for years:
    # the flags win over the file, whose value is still type-checked
    steps = ["--steps", "2", "--rot-steps", "1"] if key in ("steps", "rot_steps") else []
    with contextlib.chdir(root):
        _assert_contract(["quantize", "w.lqt", "--config", str(path), *steps, "--machine"])
