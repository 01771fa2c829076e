"""Which loraq functions the traced run wraps, and the per-module metrics
derived from the spans they record.

Every metric is computed for every workload; a layer that does no work on
a workload reports 0 (for example ``smoothing.grid_search.s`` on serve).
Times are means per call unless the name says otherwise; counts are per
layer handled in a pass (a weight quantized, or a bundle served).
"""

from __future__ import annotations

import numpy as np
from loraq import absorber, bundle_io, cli, pipeline, rotation, smoothing
from loraq.formats import IntCodec, MinifloatCodec

from .tracing import Span, descendants, self_times

# (metric, figure measured when the roadmap was written) -- printed by the
# traced run so that the harness reproduces the recorded baselines.
ROADMAP_BASELINES = (
    ("absorber.step_ms.sint4_1024x1024", "about 39 ms"),
    ("formats.fake_quant.sint4_1024x1024.ms", "about 20 ms"),
    ("formats.fake_quant.mxfp4e2_1024x1024.ms", "about 102 ms"),
    ("numerics.truncated_svd.1024x1024.ms", "about 540 ms"),
    ("pipeline.forward.b1_2048x2048.ms", "about 257 ms"),
)


def _codec_kind(spec) -> str:
    if isinstance(spec.codec, IntCodec):
        return "int"
    if isinstance(spec.codec, MinifloatCodec):
        return "minifloat"
    return "passthrough"


def _shape(m, *_, **__) -> dict:
    return {"shape": list(np.shape(m))}


def _quantized(m, spec, *_, **__) -> dict:
    return {"shape": list(np.shape(m)), "values": int(np.size(m)),
            "kind": _codec_kind(spec), "fmt": spec.name}


def _optimizer(first, second, cfg, *_, **__) -> dict:
    return {"shape": list(np.shape(first)), "steps": cfg.steps,
            "fmt": cfg.quantizer.name}


def _loss_trace(result) -> dict:
    trace = result[1]
    best = int(np.argmin(trace))
    return {"init_loss": trace[0], "best_loss": trace[best], "best_index": best}


def install(tracer) -> None:
    """Wrap each public function at the attribute its callers look up."""
    for module in (absorber, rotation, smoothing, pipeline):
        tracer.wrap(module, "fake_quant", "formats.fake_quant", _quantized)
    tracer.wrap(pipeline, "quantize_blockwise", "formats.quantize_blockwise",
                _quantized)
    tracer.wrap(pipeline, "dequantize", "formats.dequantize")
    for module in (absorber, smoothing):
        tracer.wrap(module, "truncated_svd", "numerics.truncated_svd", _shape)
    tracer.wrap(rotation, "cayley_retract", "numerics.cayley_retract")
    tracer.wrap(pipeline, "optimize_factors", "absorber.optimize_factors",
                _optimizer, _loss_trace)
    for module in (absorber, pipeline):
        tracer.wrap(module, "init_factors", "absorber.init_factors")
    tracer.wrap(pipeline, "optimize_rotation", "rotation.optimize_rotation",
                _optimizer, _loss_trace)
    tracer.wrap(rotation, "rotation_grad", "rotation.rotation_grad")
    tracer.wrap(pipeline, "fuse_rotation", "rotation.fuse_rotation")
    tracer.wrap(pipeline, "grid_search_migration", "smoothing.grid_search")
    tracer.wrap(cli, "assemble_layer", "pipeline.assemble_layer")
    tracer.wrap(cli, "error_report", "pipeline.error_report")
    tracer.wrap(pipeline, "reconstruct_weight", "pipeline.reconstruct_weight")
    tracer.wrap(pipeline, "forward", "pipeline.forward",
                lambda bundle, x, *_, **__: {"batch": int(np.shape(x)[0]),
                                             "shape": list(bundle.meta.shape)})
    for attr in ("load_bundle", "load_tensor", "load_stats", "save_bundle"):
        tracer.wrap(bundle_io, attr, f"bundle_io.{attr}")
    tracer.wrap(cli, "main", lambda argv, *_, **__: f"cli.{argv[0]}")


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _mean(spans, scale: float) -> float:
    return scale * _total(spans) / len(spans) if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _is(span: Span, fmt: str, shape: tuple[int, int]) -> bool:
    return span.attrs.get("fmt") == fmt and span.attrs.get("shape") == list(shape)


def _absorb_time(spans, opt: Span) -> float:
    """optimize_factors time outside its SVD initialisation."""
    init = [s for s in descendants(spans, opt) if s.name == "absorber.init_factors"]
    return opt.duration - _total(init)


def _absorber(spans, opts) -> dict:
    steps = sum(s.attrs["steps"] for s in opts)
    step_time = sum(_absorb_time(spans, s) for s in opts)
    fq = [d for s in opts for d in descendants(spans, s)
          if d.name == "formats.fake_quant"]
    sint4 = [s for s in opts if _is(s, "SINT4", (1024, 1024))]
    return {
        "absorber.step_ms": _ratio(1e3 * step_time, steps),
        "absorber.step_ms.sint4_1024x1024": _ratio(
            1e3 * sum(_absorb_time(spans, s) for s in sint4),
            sum(s.attrs["steps"] for s in sint4)),
        "absorber.fake_quant_share": _ratio(_total(fq), step_time),
        **_optimizer_quality("absorber", opts),
    }


def _optimizer_quality(layer: str, opts) -> dict:
    """Best over initial loss, and where in the run the best iterate was."""
    return {
        f"{layer}.loss_ratio": _ratio(
            sum(_ratio(s.attrs["best_loss"], s.attrs["init_loss"]) for s in opts),
            len(opts)),
        f"{layer}.useful_step_frac": _ratio(
            sum(_ratio(s.attrs["best_index"], s.attrs["steps"]) for s in opts),
            len(opts)),
    }


def _per_step(spans, opts, name: str) -> float:
    """Calls to ``name`` per optimizer step, from the first gradient on.

    Calls made before the first ``rotation_grad`` score the starting
    iterate and are not a per-step cost.
    """
    calls = 0
    steps = 0
    for opt in opts:
        below = descendants(spans, opt)
        grads = [s.start for s in below if s.name == "rotation.rotation_grad"]
        first = min(grads) if grads else opt.start
        calls += sum(1 for s in below if s.name == name and s.start >= first)
        steps += opt.attrs["steps"]
    return _ratio(calls, steps)


def per_layer_metrics(spans: list[Span], layers: int, traced_wall: float,
                      untraced_wall: float) -> dict[str, float]:
    """Per-module metrics from the spans of the traced passes.

    ``layers`` is the number of layers the traced passes handled, the
    denominator of every per-layer count.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    get = lambda name: by_name.get(name, [])  # noqa: E731
    parent_name = {s.id: s.name for s in spans}

    fq = get("formats.fake_quant")
    fq_int = [s for s in fq if s.attrs["kind"] == "int"]
    fq_mini = [s for s in fq if s.attrs["kind"] == "minifloat"]
    forwards = get("pipeline.forward")
    deq_in_forward = [s for s in get("formats.dequantize")
                      if parent_name.get(s.parent) == "pipeline.forward"]
    svd = get("numerics.truncated_svd")
    rot = get("rotation.optimize_rotation")
    rot_steps = sum(s.attrs["steps"] for s in rot)
    grid = get("smoothing.grid_search")
    grid_svd = [d for g in grid for d in descendants(spans, g)
                if d.name == "numerics.truncated_svd"]
    reports = get("pipeline.error_report")
    clis = [s for s in spans if s.name.startswith("cli.")]
    self_time = self_times(spans)

    return {
        "formats.fake_quant.int.ms": _mean(fq_int, 1e3),
        "formats.fake_quant.minifloat.ms": _mean(fq_mini, 1e3),
        "formats.fake_quant.sint4_1024x1024.ms": _mean(
            [s for s in fq if _is(s, "SINT4", (1024, 1024))], 1e3),
        "formats.fake_quant.mxfp4e2_1024x1024.ms": _mean(
            [s for s in fq if _is(s, "MXFP4e2", (1024, 1024))], 1e3),
        "formats.fake_quant.mvalues_per_s": _ratio(
            sum(s.attrs["values"] for s in fq) / 1e6, _total(fq)),
        "formats.fake_quant.calls": _ratio(len(fq), layers),
        "formats.quantize_blockwise.ms": _mean(get("formats.quantize_blockwise"), 1e3),
        "formats.dequantize.ms": _mean(get("formats.dequantize"), 1e3),
        "formats.dequantize.calls_per_forward": _ratio(len(deq_in_forward),
                                                       len(forwards)),
        "numerics.truncated_svd.ms": _mean(svd, 1e3),
        "numerics.truncated_svd.1024x1024.ms": _mean(
            [s for s in svd if s.attrs["shape"] == [1024, 1024]], 1e3),
        "numerics.truncated_svd.calls": _ratio(len(svd), layers),
        "numerics.cayley_retract.calls_per_step": _per_step(
            spans, rot, "numerics.cayley_retract"),
        **_absorber(spans, get("absorber.optimize_factors")),
        "rotation.step_ms": _ratio(1e3 * _total(rot), rot_steps),
        "rotation.fake_quant_calls_per_step": _per_step(
            spans, rot, "formats.fake_quant"),
        **_optimizer_quality("rotation", rot),
        "smoothing.grid_search.s": _mean(grid, 1.0),
        "smoothing.svd_share": _ratio(_total(grid_svd), _total(grid)),
        "pipeline.assemble_layer.s": _mean(get("pipeline.assemble_layer"), 1.0),
        "pipeline.error_report.quantize.s": _mean(
            [s for s in reports if parent_name.get(s.parent) == "cli.quantize"], 1.0),
        "pipeline.error_report.evaluate.s": _mean(
            [s for s in reports if parent_name.get(s.parent) == "cli.evaluate"], 1.0),
        "pipeline.forward.ms": _mean(forwards, 1e3),
        "pipeline.forward.b1_2048x2048.ms": _mean(
            [s for s in forwards
             if s.attrs["batch"] == 1 and s.attrs["shape"] == [2048, 2048]], 1e3),
        "bundle_io.load_bundle.ms": _mean(get("bundle_io.load_bundle"), 1e3),
        "bundle_io.load_tensor.ms": _mean(get("bundle_io.load_tensor"), 1e3),
        "bundle_io.save_bundle.ms": _mean(get("bundle_io.save_bundle"), 1e3),
        "cli.overhead_s": _ratio(sum(self_time[s.id] for s in clis), len(clis)),
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.coverage": _ratio(sum(self_time.values()), traced_wall),
    }
