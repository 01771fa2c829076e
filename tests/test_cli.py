"""The command-line contract: --machine output, exit codes and the last
stderr line, batch runs, and the ablate grid's shared stages."""

import json
import struct
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from loraq import (
    ChannelStats,
    RankCapWarning,
    absorber,
    assemble_layer,
    bundle_io,
    cli,
    compute_channel_stats,
    error_report,
    load_bundle,
    load_tensor,
    make_format,
    pipeline,
    save_stats,
    save_tensor,
    weight_error,
)

RUN = ["--q1", "SINT4", "--q2", "MXINT4", "--rank", "4", "--steps", "6",
       "--rot-steps", "3"]


def _weights(tmp_path, count=2):
    rng = np.random.default_rng(30)
    paths = []
    for i in range(count):
        path = tmp_path / f"w{i}.lqt"
        save_tensor(path, rng.standard_t(df=5, size=(24 + 8 * i, 40)))
        paths.append(str(path))
    return paths


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _last_error_line(err: str) -> str:
    return err.strip().splitlines()[-1]


def test_quantize_machine_output(tmp_path, capsys):
    inputs = _weights(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["quantize", *inputs, *RUN, "--seed", "11",
                                 "--out", str(out_dir), "--machine"])
    assert code == 0
    summaries = json.loads(out)
    assert [s["weight"] for s in summaries] == inputs
    for i, summary in enumerate(summaries):
        assert set(summary) == {"weight", "shape", "rank", "rank_requested", "q1",
                                "q2", "absorb", "rotation", "weight_err",
                                "weight_err_rel", "budget", "out"}
        assert summary["shape"] == [24 + 8 * i, 40]
        bundle = load_bundle(summary["out"])
        assert bundle.meta.seed == 11 + i
        assert (summary["weight_err"], summary["weight_err_rel"]) == weight_error(
            load_tensor(inputs[i]), bundle)


@pytest.mark.parametrize("command,stage", [("quantize", "assemble_layer"),
                                           ("ablate", "ablate_layer")])
def test_weights_load_one_at_a_time(tmp_path, capsys, monkeypatch, command, stage):
    # each weight is read when its turn comes, after the last one is freed
    inputs = _weights(tmp_path, count=3)
    events, loaded = [], []
    load, run = bundle_io.load_tensor, getattr(cli, stage)

    def loading(path):
        alive = sum(ref() is not None for ref in loaded)
        events.append(("load", Path(path).name, alive))
        w = load(path)
        loaded.append(weakref.ref(w))
        return w

    def running(w, *args, **kwargs):
        events.append((stage, w.shape[0]))
        return run(w, *args, **kwargs)

    monkeypatch.setattr(bundle_io, "load_tensor", loading)
    monkeypatch.setattr(cli, stage, running)
    code, _, _ = _run(capsys, [command, *inputs, *RUN, *(
        ["--out", str(tmp_path / "out")] if command == "quantize" else [])])
    assert code == 0
    assert events == [event for i in range(3) for event in
                      (("load", f"w{i}.lqt", 0), (stage, 24 + 8 * i))]


def test_a_missing_later_input_fails_after_the_earlier_bundles(tmp_path, capsys):
    [first] = _weights(tmp_path, 1)
    missing = str(tmp_path / "missing.lqt")
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, ["quantize", first, missing, *RUN, "--out", str(out)])
    assert code == 3 and stdout == ""
    assert _last_error_line(err).startswith("error: [E_FORMAT]")
    assert load_bundle(out / "w0.lrqb").meta.shape == (24, 40)
    assert not (out / "missing.lrqb").exists()


def test_batch_run_writes_the_bytes_of_single_runs(tmp_path, capsys):
    # weight i of a batch is quantized with seed + i, exactly as alone
    inputs = _weights(tmp_path, count=3)
    code, _, _ = _run(capsys, ["quantize", *inputs, *RUN, "--seed", "5", "--out",
                               str(tmp_path / "batch")])
    assert code == 0
    for i, path in enumerate(inputs):
        single = tmp_path / f"single{i}.lrqb"
        code, _, _ = _run(capsys, ["quantize", path, *RUN, "--seed", str(5 + i),
                                   "--out", str(single)])
        assert code == 0
        batch = tmp_path / "batch" / Path(path).with_suffix(".lrqb").name
        assert batch.read_bytes() == single.read_bytes()


def _snapshot(root: Path) -> dict:
    return {str(p): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_inputs_of_one_name_exit_2(tmp_path, capsys):
    # both bundles went to out/w.lrqb with exit 0: the first one was lost
    rng = np.random.default_rng(34)
    inputs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        inputs.append(str(tmp_path / sub / "w.lqt"))
        save_tensor(inputs[-1], rng.normal(size=(24, 40)))
    before = _snapshot(tmp_path)
    code, out, err = _run(capsys, ["quantize", *inputs, *RUN, "--out",
                                   str(tmp_path / "out"), "--machine"])
    assert code == 2
    assert out == ""
    assert _last_error_line(err) == (
        f"error: [E_CONFIG] the bundles of {inputs[0]} and {inputs[1]} would both be "
        f"{tmp_path / 'out' / 'w.lrqb'}")
    assert _snapshot(tmp_path) == before
    assert not (tmp_path / "out").exists()


def test_input_named_like_its_bundle_exits_2(tmp_path, capsys):
    # an LQT1 input x.lrqb, run without --out, was overwritten by its bundle
    weight = tmp_path / "x.lrqb"
    save_tensor(weight, np.random.default_rng(35).normal(size=(24, 40)))
    before = _snapshot(tmp_path)
    code, out, err = _run(capsys, ["quantize", str(weight), *RUN, "--machine"])
    assert code == 2
    assert out == ""
    assert _last_error_line(err) == (
        f"error: [E_CONFIG] the bundle of {weight} would overwrite the input {weight}")
    assert _snapshot(tmp_path) == before


def test_bundle_over_the_stats_file_exits_2(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    stats = tmp_path / "s.lqs"
    save_stats(stats, compute_channel_stats(np.random.default_rng(36).normal(size=(8, 24))))
    before = _snapshot(tmp_path)
    code, _, err = _run(capsys, ["quantize", weight, *RUN, "--stats", str(stats),
                                 "--out", str(stats)])
    assert code == 2
    assert _last_error_line(err).startswith("error: [E_CONFIG] the bundle of ")
    assert _snapshot(tmp_path) == before


def test_huge_rotation_learning_rate_runs_clean(tmp_path, capsys):
    # the rotation's skew projection overflowed: numpy warned, and the run
    # failed with exit 5 blaming "matrix contains non-finite entries"
    code, out, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN,
                                   "--rot-lr", "1e308", "--machine"])
    assert (code, err) == (0, "")
    [summary] = json.loads(out)
    assert summary["rotation"]["best_loss"] <= summary["rotation"]["init_loss"]


@pytest.mark.parametrize("command", ["quantize", "ablate"])
def test_heap_is_trimmed_before_each_layer(tmp_path, capsys, monkeypatch, command):
    cli._trim_heap()
    events = []
    svd = absorber.truncated_svd
    monkeypatch.setattr(cli, "_trim_heap", lambda: events.append("trim"))
    monkeypatch.setattr(absorber, "truncated_svd",
                        lambda *args: events.append("svd") or svd(*args))
    code, _, _ = _run(capsys, [command, *_weights(tmp_path), *RUN])
    assert code == 0
    assert events == ["trim", "svd"] * 2


def test_ablate_cells_match_independent_runs(tmp_path, capsys, monkeypatch):
    inputs = _weights(tmp_path)
    calls = {"svd": 0, "absorb": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(absorber, "truncated_svd",
                        counting("svd", absorber.truncated_svd))
    monkeypatch.setattr(pipeline, "optimize_factors",
                        counting("absorb", pipeline.optimize_factors))
    code, out, _ = _run(capsys, ["ablate", *inputs, *RUN, "--machine"])
    assert code == 0
    assert calls == {"svd": len(inputs), "absorb": len(inputs)}

    result = json.loads(out)
    assert result["weights"] == inputs
    weights = [load_tensor(p) for p in inputs]
    q1, q2 = make_format("SINT4"), make_format("MXINT4")
    for cell in result["cells"]:
        errs = []
        for i, w in enumerate(weights):
            bundle = assemble_layer(w, q1, q2, rank=4, absorb_steps=6,
                                    rotation_steps=3, seed=4 + i,
                                    optimized_lr=cell["optimized_lr"],
                                    rotations=cell["rotations"])
            errs.append(weight_error(w, bundle))
        assert cell["mean_weight_err"] == float(np.mean([e for e, _ in errs]))
        assert cell["mean_weight_err_rel"] == float(np.mean([r for _, r in errs]))
    assert [(c["optimized_lr"], c["rotations"]) for c in result["cells"]] == [
        (True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("extra", [
    ["--budget", "64", "--rank", "4"],
    ["--lr-act-format", "MXINT8"],
])
def test_usage_errors_exit_2(tmp_path, capsys, extra):
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *extra])
    assert code == 2
    assert _last_error_line(err).startswith("error: [E_CONFIG] ")


def test_help_exits_0(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage: loraq")


def test_zero_budget_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), "--budget", "0"])
    assert code == 2
    assert _last_error_line(err) == "error: [E_CONFIG] budget must be positive, got 0"


def test_missing_input_exits_3(tmp_path, capsys):
    code, _, err = _run(capsys, ["quantize", str(tmp_path / "absent.lqt"), *RUN])
    assert code == 3
    assert _last_error_line(err).startswith("error: [E_FORMAT] ")


@pytest.mark.parametrize("command", ["quantize", "ablate"])
@pytest.mark.parametrize("shape", [(0, 0), (0, 8), (8, 0)])
def test_empty_weight_exits_4(tmp_path, capsys, command, shape):
    weight = tmp_path / "empty.lqt"
    save_tensor(weight, np.empty(shape))
    with warnings.catch_warnings():
        # refused before the default budget's rank is capped to the empty side
        warnings.simplefilter("error", RankCapWarning)
        code, _, err = _run(capsys, [command, str(weight)])
    assert code == 4
    assert _last_error_line(err) == (
        f"error: [E_SHAPE] weight has no rows or no columns: shape {shape}")


def test_svd_failure_exits_5(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError reaches the CLI only as a ConvergenceError
    def fail(*_, **__):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN])
    assert code == 5
    assert _last_error_line(err) == (
        "error: [E_NUMERIC] SVD did not converge for shape (24, 40)")


def test_removed_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr_act_format": "MXINT8"}))
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), "--config",
                                 str(config)])
    assert code == 2
    assert _last_error_line(err) == "error: [E_CONFIG] unknown config keys: lr_act_format"


def test_non_lqt1_input_exits_3(tmp_path, capsys):
    stats = tmp_path / "stats.lqs"
    save_stats(stats, compute_channel_stats(np.ones((3, 8))))
    code, _, err = _run(capsys, ["quantize", str(stats), *RUN])
    assert code == 3
    assert _last_error_line(err).startswith("error: [E_FORMAT] ")


def test_evaluate_shape_mismatch_exits_4(tmp_path, capsys):
    small, large = _weights(tmp_path)
    bundle = tmp_path / "small.lrqb"
    assert _run(capsys, ["quantize", small, *RUN, "--out", str(bundle)])[0] == 0
    code, _, err = _run(capsys, ["evaluate", str(bundle), large, "--machine"])
    assert code == 4
    assert _last_error_line(err).startswith("error: [E_SHAPE] ")


def _bundle_file(tmp_path, capsys, weight):
    bundle = tmp_path / "w.lrqb"
    assert _run(capsys, ["quantize", weight, *RUN, "--out", str(bundle)])[0] == 0
    return str(bundle)


def test_evaluate_machine_output(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    bundle = _bundle_file(tmp_path, capsys, weight)
    activations = tmp_path / "x.lqt"
    save_tensor(activations, np.random.default_rng(31).normal(size=(6, 24)))
    code, out, _ = _run(capsys, ["evaluate", bundle, weight, "--activations",
                                 str(activations), "--act-format", "MXINT8",
                                 "--machine"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"weight_err", "weight_err_rel", "weight_err_smoothed",
                           "matmul_err", "matmul_err_rel", "bound_rhs",
                           "residual_mse", "lowrank_q2_mse", "bound_slack"}
    assert all(isinstance(v, float) and np.isfinite(v) for v in report.values())
    assert report["matmul_err"] <= report["bound_rhs"]
    assert (report["weight_err"], report["weight_err_rel"]) == weight_error(
        load_tensor(weight), load_bundle(bundle))
    assert report["bound_slack"] == report["bound_rhs"] - report["matmul_err"]


def test_evaluate_text_output(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    bundle = _bundle_file(tmp_path, capsys, weight)
    code, out, _ = _run(capsys, ["evaluate", bundle, weight])
    assert code == 0
    report = error_report(load_tensor(weight), np.eye(24), load_bundle(bundle))
    assert out.splitlines() == [
        *(f"{key}: {value:.12e}" for key, value in report.to_dict().items()),
        f"bound_slack: {report.bound_rhs - report.matmul_err:.12e}",
        "bound holds: matmul_err <= bound_rhs",
    ]


@pytest.mark.parametrize("act", [None, "MXINT4"])
def test_evaluate_reports_the_slack_of_the_bound(tmp_path, capsys, act):
    [weight] = _weights(tmp_path, 1)
    bundle = _bundle_file(tmp_path, capsys, weight)
    x = np.random.default_rng(33).standard_t(df=3, size=(16, 24))
    activations = tmp_path / "x.lqt"
    save_tensor(activations, x)
    flags = [] if act is None else ["--act-format", act]
    code, out, _ = _run(capsys, ["evaluate", bundle, weight, "--activations",
                                 str(activations), *flags, "--machine"])
    assert code == 0
    report = json.loads(out)
    want = error_report(load_tensor(weight), x, load_bundle(bundle),
                        None if act is None else make_format(act))
    assert {key: report[key] for key in want.to_dict()} == want.to_dict()
    assert report["bound_slack"] == want.bound_rhs - want.matmul_err
    w_norm = np.linalg.norm(load_tensor(weight))
    assert report["bound_slack"] >= -1e-12 * (1 + np.linalg.norm(x) * w_norm)


def test_inspect_machine_output(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    bundle = _bundle_file(tmp_path, capsys, weight)
    code, out, _ = _run(capsys, ["inspect", bundle, "--machine"])
    assert code == 0
    info = json.loads(out)
    assert set(info) == {"meta", "gamma", "chunks", "budget"}
    assert info["meta"] == load_bundle(bundle).meta.to_dict()
    assert info["gamma"] is False
    assert set(info["chunks"]) == {"residual_code_bytes", "residual_scale_count",
                                   "left_code_bytes", "right_code_bytes"}
    assert set(info["budget"]) == {"payload_bits_per_channel",
                                   "budget_bits_per_channel",
                                   "scale_bits_per_channel_left", "total_scale_bits"}


def test_inspect_counts_the_bytes_of_a_passthrough_payload(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    bundle = tmp_path / "w.lrqb"
    assert _run(capsys, ["quantize", weight, *RUN, "--q2", "fp16-passthrough",
                         "--out", str(bundle)])[0] == 0
    code, out, _ = _run(capsys, ["inspect", str(bundle), "--machine"])
    assert code == 0
    (d, n), rank = load_tensor(weight).shape, 4
    chunks = json.loads(out)["chunks"]
    # float64 values: eight bytes each
    assert chunks["left_code_bytes"] == d * rank * 8
    assert chunks["right_code_bytes"] == rank * n * 8


def test_evaluate_non_finite_weight_exits_5(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    bundle = _bundle_file(tmp_path, capsys, weight)
    w = load_tensor(weight)
    w[3, 5] = np.inf
    broken = tmp_path / "inf.lqt"
    # save_tensor refuses non-finite entries, so write the LQT1 layout directly
    broken.write_bytes(b"LQT1" + struct.pack("<BQQ", 8, *w.shape)
                       + w.astype("<f8").tobytes())
    assert np.isinf(load_tensor(broken)[3, 5])  # the loader accepts them
    code, _, err = _run(capsys, ["evaluate", bundle, str(broken), "--machine"])
    assert code == 5
    assert _last_error_line(err).startswith("error: [E_NUMERIC] ")


def test_evaluate_overflowed_figures_exit_5(tmp_path, capsys):
    # finite activations whose products overflow: no Infinity or NaN reaches
    # the --machine JSON
    [weight] = _weights(tmp_path, 1)
    bundle = _bundle_file(tmp_path, capsys, weight)
    activations = tmp_path / "huge.lqt"
    save_tensor(activations, np.full((4, 24), 1e300))
    code, out, err = _run(capsys, ["evaluate", bundle, weight, "--activations",
                                   str(activations), "--machine"])
    assert code == 5
    assert out == ""
    assert _last_error_line(err).startswith("error: [E_NUMERIC] ")


def _quantize_smoothed(tmp_path, capsys, kind: str):
    """``quantize --stats`` of finite inputs whose smoothing overflows, so
    that no setting is at fault: statistics (``kind`` LQS1) whose fixed
    (0.5, 0.5) gamma = act_max^0.5 / row_max^0.5 overflows on a row whose
    largest entry is the smallest subnormal, or activations (LQT1) and
    weights near 1e200, whose products overflow at every grid point."""
    rng = np.random.default_rng(31)
    weight, calibration = tmp_path / "w.lqt", tmp_path / "cal"
    if kind == "LQS1":
        w = rng.normal(size=(64, 64))
        w[5] = 0.0
        w[5, 3] = 5e-324
        maxima = np.abs(rng.normal(size=64))
        maxima[5] = 1.7e308
        save_stats(calibration, ChannelStats(maxima, sample_count=16))
    else:
        w = rng.normal(size=(64, 64)) * 1e200
        save_tensor(calibration, rng.normal(size=(16, 64)) * 1e200)
    save_tensor(weight, w)
    return _run(capsys, ["quantize", str(weight), *RUN, "--stats", str(calibration),
                         "--out", str(tmp_path / "b.lrqb")])


def test_smoothing_overflow_exits_5(tmp_path, capsys):
    code, out, err = _quantize_smoothed(tmp_path, capsys, "LQS1")
    assert code == 5
    assert out == ""
    assert _last_error_line(err).startswith(
        "error: [E_NUMERIC] the smoothing vector at migration strengths (0.5, 0.5) ")


def test_smoothing_with_no_finite_score_exits_5(tmp_path, capsys):
    code, out, err = _quantize_smoothed(tmp_path, capsys, "LQT1")
    assert code == 5
    assert out == ""
    assert _last_error_line(err).startswith(
        "error: [E_NUMERIC] no migration strengths of the 121-point grid ")


def test_smoothing_skips_grid_points_that_overflow(tmp_path, capsys):
    # gamma overflows or underflows at some grid points, (0.1, 1.0) among
    # them, and (0, 0) always gives gamma = 1: the search picks among the
    # points that score
    rng = np.random.default_rng(31)
    weight, activations = tmp_path / "tiny.lqt", tmp_path / "huge.lqt"
    save_tensor(weight, rng.normal(size=(64, 64)) * 1e-300)
    save_tensor(activations, rng.normal(size=(16, 64)) * 1e300)
    out_path = tmp_path / "b.lrqb"
    code, _, _ = _run(capsys, ["quantize", str(weight), *RUN, "--stats",
                               str(activations), "--out", str(out_path)])
    assert code == 0
    smoothing = load_bundle(out_path).meta.smoothing
    assert smoothing["source"] == "grid-search"
    assert np.isfinite(smoothing["search_score"])


def _patched_bundle(tmp_path, capsys, meta_patch, *extra) -> str:
    """A bundle file quantized from one weight, its manifest's ``meta`` then
    updated by ``meta_patch`` (which may reach into ``q1`` or ``q2``).
    ``extra`` flags follow ``RUN``, so they override it."""
    [weight] = _weights(tmp_path, 1)
    bundle = tmp_path / "patched.lrqb"
    assert _run(capsys, ["quantize", weight, *RUN, *extra, "--out", str(bundle)])[0] == 0
    data = bundle.read_bytes()
    (size,) = struct.unpack_from("<I", data, 6)
    manifest = json.loads(data[10:10 + size])
    meta_patch(manifest["meta"])
    patched = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    bundle.write_bytes(data[:6] + struct.pack("<I", len(patched)) + patched
                       + data[10 + size:])
    return str(bundle)


@pytest.mark.parametrize("patch", [{"scale_kind": "bogus"}, {"bits_per_value": 3}])
def test_inspect_misdescribed_passthrough_exits_3(tmp_path, capsys, patch):
    bundle = _patched_bundle(tmp_path, capsys, lambda meta: meta["q2"].update(patch),
                             "--q2", "fp16-passthrough")
    code, _, err = _run(capsys, ["inspect", bundle])
    assert code == 3
    assert _last_error_line(err).startswith("error: [E_FORMAT] ")


def _emptied_chunks(path: str, prefixes: str, pad: dict) -> None:
    """Rewrite the bundle at ``path`` with every chunk whose tag starts with
    one of ``prefixes`` empty, its manifest entry and header included, and
    the manifest's pad counts updated by ``pad``."""
    with open(path, "rb") as fh:
        data = fh.read()
    (size,) = struct.unpack_from("<I", data, 6)
    manifest = json.loads(data[10:10 + size])
    manifest["pad"].update(pad)
    chunks, at = [], 10 + size
    for entry in manifest["chunks"]:
        payload = data[at + 12:at + 12 + entry["length"]]
        at += 12 + entry["length"]
        if entry["tag"][0] in prefixes:
            payload, entry["length"] = b"", 0
        chunks.append(entry["tag"].encode() + struct.pack("<Q", len(payload)) + payload)
    patched = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(data[:6] + struct.pack("<I", len(patched)) + patched + b"".join(chunks))


@pytest.mark.parametrize("patch,emptied,pad", [
    ({"rank": 0}, "LR", {"left": 0}), ({"shape": [0, 40]}, "PL", {}),
])
def test_inspect_empty_manifest_shape_exits_3(tmp_path, capsys, patch, emptied, pad):
    # the empty tensors' chunks are empty and their pad counts match, so
    # only the rank or the shape itself can refuse the file
    bundle = _patched_bundle(tmp_path, capsys, lambda meta: meta.update(patch))
    _emptied_chunks(bundle, emptied, pad)
    code, _, err = _run(capsys, ["inspect", bundle])
    assert code == 3
    assert _last_error_line(err).startswith("error: [E_FORMAT] ")


@pytest.mark.parametrize("key,value,what", [
    ("rank", 4.5, "an integer"), ("optimized_lr", "false", "true or false"),
])
def test_inspect_non_json_count_or_toggle_exits_3(tmp_path, capsys, key, value, what):
    bundle = _patched_bundle(tmp_path, capsys, lambda meta: meta.update({key: value}))
    code, _, err = _run(capsys, ["inspect", bundle])
    assert code == 3
    assert _last_error_line(err) == (
        f"error: [E_FORMAT] manifest is missing or mistypes a field: "
        f"{key} must be {what}, got {value!r}")


def _manifest(path) -> dict:
    data = path.read_bytes()
    (size,) = struct.unpack_from("<I", data, 6)
    return json.loads(data[10:10 + size])


def test_quantize_records_the_activation_format_for_evaluate(tmp_path, capsys):
    [weight] = _weights(tmp_path, 1)
    activations = tmp_path / "x.lqt"
    save_tensor(activations, np.random.default_rng(32).normal(size=(6, 24)))
    recorded, plain = tmp_path / "recorded.lrqb", tmp_path / "plain.lrqb"
    assert _run(capsys, ["quantize", weight, *RUN, "--act-format", "MXINT8",
                         "--out", str(recorded)])[0] == 0
    assert _run(capsys, ["quantize", weight, *RUN, "--out", str(plain)])[0] == 0
    assert _manifest(recorded)["meta"]["act_format"] == "MXINT8"
    assert _manifest(plain)["meta"]["act_format"] is None

    def matmul_err(bundle, *flags):
        code, out, _ = _run(capsys, ["evaluate", str(bundle), weight, "--activations",
                                     str(activations), *flags, "--machine"])
        assert code == 0
        return json.loads(out)["matmul_err"]

    assert matmul_err(recorded) == matmul_err(recorded, "--act-format", "MXINT8")
    assert matmul_err(recorded) == matmul_err(plain, "--act-format", "MXINT8")
    assert matmul_err(recorded) != matmul_err(plain)


def test_evaluate_mistyped_act_format_exits_3(tmp_path, capsys):
    bundle = _patched_bundle(tmp_path, capsys,
                             lambda meta: meta.update({"act_format": [1]}))
    [weight] = _weights(tmp_path, 1)
    code, _, err = _run(capsys, ["evaluate", bundle, weight, "--machine"])
    assert code == 3
    assert _last_error_line(err).startswith("error: [E_FORMAT] ")


def test_evaluate_unknown_recorded_act_format_exits_3(tmp_path, capsys):
    bundle = _patched_bundle(tmp_path, capsys,
                             lambda meta: meta.update({"act_format": "BOGUS"}))
    [weight] = _weights(tmp_path, 1)
    for argv in (["inspect", bundle], ["evaluate", bundle, weight, "--machine"]):
        code, _, err = _run(capsys, argv)
        assert code == 3
        assert _last_error_line(err).startswith(
            "error: [E_FORMAT] manifest describes an unusable format: "
            "unknown format 'BOGUS'; known: ")


@pytest.mark.parametrize("value, why", [
    (np.nan, "must be finite"), (np.inf, "must be finite"), (-1.0, "cannot be negative"),
], ids=["nan", "inf", "negative"])
def test_quantize_corrupt_stats_exits_3(tmp_path, capsys, value, why):
    maxima = np.ones(24)
    maxima[5] = value
    stats = tmp_path / "bad.lqs"
    # save_stats takes a ChannelStats, which refuses these values
    stats.write_bytes(b"LQS1" + struct.pack("<QQ", 8, 24) + maxima.astype("<f8").tobytes())
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN,
                                 "--stats", str(stats)])
    assert code == 3
    assert _last_error_line(err).startswith("error: [E_FORMAT] statistics payload: ")
    assert _last_error_line(err).endswith(why)


def test_quantize_zero_row_calibration_exits_4(tmp_path, capsys):
    activations = tmp_path / "empty.lqt"
    save_tensor(activations, np.empty((0, 24)))
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN,
                                 "--stats", str(activations)])
    assert code == 4
    assert _last_error_line(err) == (
        "error: [E_SHAPE] calibration activations have no rows")


@pytest.mark.parametrize("flag", ["--lr", "--rot-lr"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_is_a_config_error(tmp_path, capsys, flag, value):
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN, flag, value])
    assert code == 2
    assert _last_error_line(err).startswith("error: [E_CONFIG] learning rate ")


def _quantize_with_config(tmp_path, capsys, settings: dict, *flags):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "w.lrqb"
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *flags,
                                 "--config", str(config), "--out", str(out)])
    return code, err, out


@pytest.mark.parametrize("key", ["optimized_lr", "rotations"])
@pytest.mark.parametrize("value", ["no", "false", 0, 1, None, [False]])
def test_config_toggle_must_be_a_json_boolean(tmp_path, capsys, key, value):
    # bool() turned every one of these but 0 and null into True
    code, err, _ = _quantize_with_config(tmp_path, capsys, {key: value}, *RUN)
    assert code == 2
    assert _last_error_line(err) == (
        f"error: [E_CONFIG] config key {key!r} must be true or false, got {value!r}")


def test_config_toggles_take_json_booleans(tmp_path, capsys):
    code, _, out = _quantize_with_config(
        tmp_path, capsys, {"optimized_lr": False, "rotations": False}, *RUN)
    assert code == 0
    meta = load_bundle(out).meta
    assert (meta.optimized_lr, meta.rotations) == (False, False)
    code, _, out = _quantize_with_config(
        tmp_path, capsys, {"optimized_lr": True, "rotations": True}, *RUN)
    assert code == 0
    meta = load_bundle(out).meta
    assert (meta.optimized_lr, meta.rotations) == (True, True)


@pytest.mark.parametrize("key,value,what", [
    ("lr", "abc", "a number"),  # a raw ValueError escaped
    ("steps", [1], "an integer"),  # a raw TypeError escaped
    ("rot_lr", {"x": 1}, "a number"),
    ("rot_steps", 2.5, "an integer"),  # int() truncated it
    ("budget", "512", "an integer"),
    ("rank", True, "an integer"),  # int(True) is 1
    ("seed", 1.0, "an integer"),
    ("lr", False, "a number"),
    ("rot_lr", float("nan"), "a finite number"),
    pytest.param("lr", 10 ** 400, "a finite number",  # a raw OverflowError escaped
                 id="lr-1e400-a finite number"),
    # format names and paths take strings
    ("out", 5, "a string"),  # a raw TypeError escaped
    ("stats", 0, "a string"),  # open(0) read and closed stdin
    ("q1", 5, "a string"),
])
def test_config_numbers_are_checked(tmp_path, capsys, key, value, what):
    settings = {"q1": "SINT4", "q2": "MXINT4", "rank": 4, "steps": 2, "rot_steps": 1}
    settings[key] = value
    if key == "budget":
        del settings["rank"]
    code, err, _ = _quantize_with_config(tmp_path, capsys, settings)
    assert code == 2
    assert _last_error_line(err) == (
        f"error: [E_CONFIG] config key {key!r} must be {what}, got {value!r}")


def test_config_numbers_are_used(tmp_path, capsys):
    settings = {"q1": "SINT4", "q2": "MXINT4", "rank": 3, "steps": 2, "lr": 1e-3,
                "rot_steps": 1, "rot_lr": 2, "seed": 4}
    code, _, out = _quantize_with_config(tmp_path, capsys, settings, "--machine")
    assert code == 0
    meta = load_bundle(out).meta
    assert (meta.rank, meta.seed) == (3, 4)
    assert (meta.absorb["steps"], meta.absorb["learning_rate"]) == (2, 1e-3)
    assert (meta.rotation["steps"], meta.rotation["learning_rate"]) == (1, 2.0)


@pytest.mark.parametrize("which,flags", [("q1", ["--q1", "MXFP4e2"]),
                                         ("q2", ["--q2", "MXFP6e2"])])
@pytest.mark.parametrize("command", ["inspect", "evaluate"])
def test_huge_minifloat_exp_bits_exits_3(tmp_path, capsys, which, flags, command):
    # 1 << exp_bits ran before any range check and raised a raw MemoryError
    bundle = _patched_bundle(
        tmp_path, capsys, lambda meta: meta[which]["codec"].update(exp_bits=2**40),
        *flags)
    weight = _weights(tmp_path, 1) if command == "evaluate" else []
    code, out, err = _run(capsys, [command, bundle, *weight, "--machine"])
    assert code == 3
    assert out == ""
    assert _last_error_line(err).startswith(
        "error: [E_FORMAT] manifest describes an unusable format: ")


def _strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("entry,key,value", [
    ("absorb", "best_loss", float("nan")), ("absorb", "init_loss", float("inf")),
    ("rotation", "final_loss", float("nan")), ("smoothing", "beta_mig", float("-inf")),
])
def test_inspect_non_finite_summary_number_exits_3(tmp_path, capsys, entry, key, value):
    # json_object took any object, and --machine printed NaN with exit 0
    stats = tmp_path / "s.lqs"
    save_stats(stats, compute_channel_stats(np.random.default_rng(31).normal(size=(8, 24))))
    bundle = _patched_bundle(tmp_path, capsys,
                             lambda meta: meta[entry].update({key: value}),
                             "--stats", str(stats))
    code, out, err = _run(capsys, ["inspect", bundle, "--machine"])
    assert code == 3
    assert out == ""
    assert _last_error_line(err) == (
        f"error: [E_FORMAT] manifest is missing or mistypes a field: "
        f"{entry}.{key} must be a finite number, got {value!r}")


def test_inspect_machine_output_is_strict_json(tmp_path, capsys):
    # a stats-smoothed bundle, whose search_score is null, and a plain one
    stats = tmp_path / "s.lqs"
    save_stats(stats, compute_channel_stats(np.random.default_rng(31).normal(size=(8, 24))))
    for extra in ([], ["--stats", str(stats)]):
        bundle = _patched_bundle(tmp_path, capsys, lambda meta: None, *extra)
        code, out, _ = _run(capsys, ["inspect", bundle, "--machine"])
        assert code == 0
        meta = _strict_json(out)["meta"]
        assert (meta["smoothing"] is None) == (not extra)


def test_evaluate_nan_lowrank_mse_exits_3(tmp_path, capsys):
    # float() took a manifest NaN, and --machine printed it with exit 0
    bundle = _patched_bundle(tmp_path, capsys,
                             lambda meta: meta.update(lowrank_q2_mse=float("nan")))
    [weight] = _weights(tmp_path, 1)
    code, _, err = _run(capsys, ["evaluate", bundle, weight, "--machine"])
    assert code == 3
    assert _last_error_line(err) == (
        "error: [E_FORMAT] manifest is missing or mistypes a field: "
        "lowrank_q2_mse must be a finite number, got nan")


@pytest.mark.parametrize("flag", [["--seed", "4"], ["--act-format", "MXINT8"],
                                  ["--no-optimize"], ["--no-rotate"]])
def test_ablate_takes_no_setting_it_ignores(tmp_path, capsys, flag):
    code, _, err = _run(capsys, ["ablate", *_weights(tmp_path, 1), *RUN, *flag])
    assert code == 2
    assert _last_error_line(err).startswith("error: [E_CONFIG] ")


def test_config_integer_beyond_the_parser_limit_exits_3(tmp_path, capsys):
    # json.load raises a plain ValueError for over 4300 digits; it escaped
    config = tmp_path / "cfg.json"
    config.write_text('{"steps": ' + "9" * 5000 + "}")
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN,
                                 "--config", str(config)])
    assert code == 3
    assert _last_error_line(err).startswith(
        f"error: [E_FORMAT] config file {config} is not valid JSON: ")


def test_ablate_config_takes_no_setting_it_ignores(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"stats": "x.lqs"}))
    code, _, err = _run(capsys, ["ablate", *_weights(tmp_path, 1), *RUN,
                                 "--config", str(config)])
    assert code == 2
    assert _last_error_line(err) == "error: [E_CONFIG] unknown config keys: stats"


# Each run setting: its flag, and the same value as a config-file value.
# Paths are relative to the working directory; rot_lr is an integer in the
# file and 10.0 from the flag.
QUANTIZE_SETTINGS = {
    "q1": (["--q1", "MXINT4"], "MXINT4"),
    "q2": (["--q2", "MXFP6e2"], "MXFP6e2"),
    "budget": (["--budget", "64"], 64),
    "rank": (["--rank", "3"], 3),
    "act_format": (["--act-format", "MXINT8"], "MXINT8"),
    "optimized_lr": (["--no-optimize"], False),
    "rotations": (["--no-rotate"], False),
    "steps": (["--steps", "3"], 3),
    "lr": (["--lr", "0.002"], 0.002),
    "rot_steps": (["--rot-steps", "5"], 5),
    "rot_lr": (["--rot-lr", "10"], 10),
    "seed": (["--seed", "7"], 7),
    "stats": (["--stats", "x.lqs"], "x.lqs"),
    "out": (["--out", "set.lrqb"], "set.lrqb"),
}
ABLATE_SETTINGS = {key: QUANTIZE_SETTINGS[key] for key in (
    "q1", "q2", "budget", "rank", "steps", "lr", "rot_steps", "rot_lr")}
SETTINGS = {"quantize": QUANTIZE_SETTINGS, "ablate": ABLATE_SETTINGS}
# flags under every run, less the one a run sets and, for budget, the rank
_BASE_FLAGS = {"rank": ["--rank", "4"], "steps": ["--steps", "2"],
               "rot_steps": ["--rot-steps", "3"]}


def test_config_keys_are_the_flag_destinations():
    _, configurable = cli.build_parser()
    for command, sub in configurable.items():
        flags = {a.dest for a in sub._actions if a.option_strings}
        assert flags - {"help", "config", "machine"} == set(SETTINGS[command])


def _outputs(capsys, command, weight, flags) -> tuple[str, bytes | None]:
    """The ``--machine`` output of one run, and for quantize its bundle's bytes."""
    code, out, err = _run(capsys, [command, weight, *flags, "--machine"])
    assert code == 0, err
    if command == "ablate":
        return out, None
    [summary] = json.loads(out)
    with open(summary["out"], "rb") as fh:
        return out, fh.read()


@pytest.mark.filterwarnings("ignore:rank 128 exceeds")  # the default budget
@pytest.mark.parametrize("command,key", [(command, key) for command in SETTINGS
                                         for key in SETTINGS[command]])
def test_config_value_acts_as_its_flag(tmp_path, capsys, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    save_stats("x.lqs", compute_channel_stats(
        np.random.default_rng(33).normal(size=(6, 24))))
    [weight] = _weights(tmp_path, 1)
    flag, value = SETTINGS[command][key]
    base = [arg for name, args in _BASE_FLAGS.items()
            if name != key and (name, key) != ("rank", "budget") for arg in args]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    unset = _outputs(capsys, command, weight, base)
    by_flag = _outputs(capsys, command, weight, [*base, *flag])
    by_file = _outputs(capsys, command, weight, [*base, "--config", str(config)])
    assert by_file == by_flag
    assert by_flag != unset
