"""The command-line contract: --machine output, exit codes and the last
stderr line, LORAQ_THREADS, and the ablate grid's shared stages."""

import json
import struct

import numpy as np
import pytest

from loraq import (
    absorber,
    assemble_layer,
    cli,
    compute_channel_stats,
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


def test_serial_and_threaded_runs_write_identical_bytes(tmp_path, capsys, monkeypatch):
    inputs = _weights(tmp_path, count=3)
    outputs = {}
    for threads in ("", "1", "3"):
        monkeypatch.setenv("LORAQ_THREADS", threads)
        out_dir = tmp_path / f"out{threads or 'unset'}"
        code, out, _ = _run(capsys, ["quantize", *inputs, *RUN, "--out",
                                     str(out_dir), "--machine"])
        assert code == 0
        summaries = json.loads(out)
        for s in summaries:
            s.pop("out")
        files = sorted(out_dir.iterdir())
        outputs[threads] = (summaries, [f.read_bytes() for f in files])
    assert outputs[""] == outputs["1"] == outputs["3"]


def test_non_integer_thread_count_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LORAQ_THREADS", "many")
    code, _, err = _run(capsys, ["quantize", *_weights(tmp_path, 1), *RUN])
    assert code == 2
    assert _last_error_line(err).startswith("error: [E_CONFIG] LORAQ_THREADS")


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
    code, out, _ = _run(capsys, ["ablate", *inputs, *RUN, "--seed", "4",
                                 "--machine"])
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
                           "residual_mse", "lowrank_q2_mse"}
    assert all(isinstance(v, float) and np.isfinite(v) for v in report.values())
    assert report["matmul_err"] <= report["bound_rhs"]
    assert (report["weight_err"], report["weight_err_rel"]) == weight_error(
        load_tensor(weight), load_bundle(bundle))


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
