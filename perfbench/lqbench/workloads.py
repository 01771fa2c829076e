"""The benchmark's workloads: their inputs, set-up, passes and metrics.

A quant workload repeats rounds; each round runs the in-process CLI
``loraq quantize ... --machine`` once per layer.  The serve workload builds
its bundles during set-up, then cold-starts and evaluates each one and runs
a closed loop of ``forward`` requests.  One client sends each operation when
the previous one returns, with no think time.

The end-to-end metrics in the result line are those every workload has;
README.md says what each one means on each workload.  Figures that only one
side has (per-layer quantize time, forward percentiles, cold start,
evaluate time) are printed as report lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import loraq
import numpy as np
from loraq import bundle_io, cli, pipeline
from loraq.formats import make_format

from . import checks, inputs, layers
from .stats import (
    MIN_TAIL_SAMPLES,
    Tally,
    median_of_medians,
    min_samples_for,
    percentile,
    samples_beyond,
)
from .tracing import Tracer

# A pass is not started once it would end later than this after the
# measurement began, and a serve pass sends no request after this long, so a
# much slower or failing program still exits well within the 180 s a run may
# take.
_HARD_LIMIT_S = 120.0
# Step counts keep the defaults' 2:1 absorption:rotation ratio, scaled from
# 1000/500 so that at least three rounds of a quant workload fit one run.
_STEPS, _ROT_STEPS = 4, 2
_MIN_ROUNDS = 3
# The default budget: 512 bits per channel, rank 128 at 4 bits.
_BUDGET = 512
# Rows of the activations every ``loraq evaluate`` uses.
_EVAL_ROWS = 64
# Bundles are evaluated with activations quantized to this format.
_EVAL_ACT_FORMAT = "MXINT8"
# Trace spans must account for this share of the traced wall time.
_COVERAGE_TOL = 0.05
# Serve requests alternate these batch sizes; each needs enough samples for
# its p90, and cycles through a few distinct inputs.
_BATCH_SIZES = (1, 64)
_MIN_REQUESTS = min_samples_for(90)
_TRACED_REQUESTS = 16
_REQUEST_POOL = 4
# Per bundle and serve pass.
_COLD_REPS = 3
_EVAL_REPS = 2
# What serve's set-up child leaves in the work directory.
_SERVE_PREP = "serve-setup.pickle"

now = time.perf_counter


@dataclass(frozen=True)
class Layer:
    shape: tuple[int, int]
    q1: str
    q2: str

    @property
    def label(self) -> str:
        return f"{self.shape[0]}x{self.shape[1]}-{self.q1}-{self.q2}"


@dataclass
class Prepared:
    """What set-up leaves for the passes: files, and inputs held in memory."""

    weights: list[Path]
    activations: dict[int, Path]  # evaluate activations, by input dimension
    probes: dict[int, np.ndarray]  # batch-1 inputs for cold starts
    calibration: Path | None = None
    bundle_paths: list[Path] = field(default_factory=list)
    bundles: list = field(default_factory=list)
    requests: dict[int, list[np.ndarray]] = field(default_factory=dict)


@dataclass
class Pass:
    """Timings and results of one pass, keyed by layer index where per layer."""

    wall: float = 0.0
    quantize_s: list[float] = field(default_factory=list)
    cold_s: dict[int, list[float]] = field(default_factory=dict)
    evaluate_s: dict[int, list[float]] = field(default_factory=dict)
    weight_err_rel: dict[int, float] = field(default_factory=dict)
    latency_s: dict[int, list[float]] = field(default_factory=dict)  # by batch
    blobs: list[bytes] = field(default_factory=list)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _attempt(tally: Tally, what: str, fn):
    """Run one operation at the measurement loop's boundary: an exception
    counts as a failure and the loop goes on."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - any failure is counted, not fatal
        tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


def _timed_cli(argv: list[str], tally: Tally, label: str):
    """Run one CLI command; returns (seconds, parsed --machine output) or None."""
    t0 = now()
    code, text = _run_cli(argv)
    elapsed = now() - t0
    if not tally.record(code == 0, f"{label}: {argv[0]} exited with {code}"):
        return None
    return elapsed, json.loads(text)


def _cold_start(path: Path, probe: np.ndarray, tally: Tally, label: str):
    t0 = now()
    bundle = bundle_io.load_bundle(path)
    y = pipeline.forward(bundle, probe)
    elapsed = now() - t0
    tally.record(bool(np.all(np.isfinite(y))), f"{label}: cold-start output not finite")
    return bundle, elapsed


def _probe(wl, prep: Prepared, rec: Pass, tally: Tally, i: int, bundle_path: Path,
           cold_reps: int, eval_reps: int):
    """``cold_reps`` cold starts, then ``eval_reps`` runs of ``loraq evaluate``,
    of one bundle.  Returns the bundle the last cold start loaded."""
    layer = wl.layers[i]
    label = f"{wl.name} layer {i} ({layer.label})"
    d = layer.shape[0]
    bundle = None
    for _ in range(cold_reps):
        cold = _attempt(tally, label, lambda: _cold_start(
            bundle_path, prep.probes[d], tally, label))
        if cold is not None:
            bundle = cold[0]
            rec.cold_s.setdefault(i, []).append(cold[1])
    argv = ["evaluate", str(bundle_path), str(prep.weights[i]),
            "--activations", str(prep.activations[d]),
            "--act-format", _EVAL_ACT_FORMAT, "--machine"]
    for _ in range(eval_reps):
        result = _attempt(tally, label, lambda: _timed_cli(argv, tally, label))
        if result is None:
            continue
        elapsed, report = result
        if not tally.record(checks.all_finite(report.values()),
                            f"{label}: evaluate reported a non-finite figure"):
            continue
        rec.evaluate_s.setdefault(i, []).append(elapsed)
        # the weight error does not depend on the activations, so every
        # report on these bytes (quantize's included) must agree exactly
        err = rec.weight_err_rel.setdefault(i, report["weight_err_rel"])
        tally.record(err == report["weight_err_rel"],
                     f"{label}: reports on the same bundle disagree on weight_err_rel")
    return bundle


def _save_inputs(wl, seed: int, workdir: Path) -> tuple[Prepared, list]:
    rng = np.random.default_rng(seed)
    weights = []
    dense = []
    for i, layer in enumerate(wl.layers):
        w = inputs.weight(rng, layer.shape)
        path = workdir / f"w{i}.lqt"
        bundle_io.save_tensor(path, w)
        weights.append(path)
        dense.append(w)
    prep = Prepared(weights=weights, activations={}, probes={})
    for d in sorted({layer.shape[0] for layer in wl.layers}):
        path = workdir / f"act{d}.lqt"
        bundle_io.save_tensor(path, inputs.activations(rng, _EVAL_ROWS, d))
        prep.activations[d] = path
        prep.probes[d] = inputs.activations(rng, 1, d)
    return prep, dense


def _warm_up(workdir: Path) -> None:
    """Run each code path once on a tiny layer so no first-call cost is timed."""
    rng = np.random.default_rng(0)
    path = workdir / "warmup.lqt"
    bundle_io.save_tensor(path, inputs.weight(rng, (64, 64)))
    code, _ = _run_cli(["quantize", str(path), "--budget", "64", "--steps", "1",
                        "--rot-steps", "1", "--out", str(workdir / "warmup.lrqb"),
                        "--machine"])
    if code != 0:
        raise RuntimeError(f"warm-up quantize exited with {code}")
    bundle = bundle_io.load_bundle(workdir / "warmup.lrqb")
    pipeline.forward(bundle, inputs.activations(rng, 1, 64))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class QuantWorkload:
    """Data-free (or, with calibration rows, smoothed) ``loraq quantize``."""

    name: str
    layers: tuple[Layer, ...]
    calibration_rows: int = 0  # > 0: quantize --stats with this many rows
    setup_reps: ClassVar[int] = 5

    def setup(self, seed: int, workdir: Path) -> Prepared:
        prep, _ = _save_inputs(self, seed, workdir)
        if self.calibration_rows:
            rng = np.random.default_rng([seed, 1])
            (d,) = {layer.shape[0] for layer in self.layers}
            prep.calibration = workdir / f"cal{d}.lqt"
            bundle_io.save_tensor(prep.calibration,
                                  inputs.activations(rng, self.calibration_rows, d))
        _warm_up(workdir)
        return prep

    def run_pass(self, prep: Prepared, tally: Tally, workdir: Path) -> Pass:
        """One round: quantize every layer."""
        rec = Pass()
        t_round = now()
        for i, layer in enumerate(self.layers):
            label = f"{self.name} layer {i} ({layer.label})"
            out = workdir / f"w{i}.lrqb"
            argv = ["quantize", str(prep.weights[i]), "--q1", layer.q1,
                    "--q2", layer.q2, "--budget", str(_BUDGET),
                    "--steps", str(_STEPS), "--rot-steps", str(_ROT_STEPS),
                    "--out", str(out), "--machine"]
            if prep.calibration is not None:
                argv += ["--stats", str(prep.calibration)]
            result = _attempt(tally, label, lambda: _timed_cli(argv, tally, label))
            if result is None:
                continue
            elapsed, (summary,) = result
            if not tally.record(checks.all_finite([summary["weight_err"],
                                                   summary["weight_err_rel"]]),
                                f"{label}: quantize reported a non-finite error"):
                continue
            rec.quantize_s.append(elapsed)
            rec.weight_err_rel[i] = summary["weight_err_rel"]
            rec.blobs.append(out.read_bytes())
        rec.wall = now() - t_round
        return rec

    def measure(self, prep: Prepared, tally: Tally, workdir: Path,
                seconds: float) -> list[Pass]:
        """Rounds until the next would end after ``seconds``, at least ``_MIN_ROUNDS``."""
        start = now()
        rounds: list[Pass] = []
        while True:
            rounds.append(self.run_pass(prep, tally, workdir))
            ahead = now() - start + rounds[-1].wall
            if ahead > _HARD_LIMIT_S or (len(rounds) >= _MIN_ROUNDS
                                         and ahead > seconds):
                return rounds

    def traced_pass(self, prep: Prepared, tally: Tally, workdir: Path) -> Pass:
        return self.run_pass(prep, tally, workdir)

    def metrics(self, rounds: list[Pass]) -> tuple[dict[str, float], list[str]]:
        per_layer_s = [sum(r.quantize_s) / len(r.quantize_s)
                       for r in rounds if r.quantize_s]
        metrics = {
            "op_p50_ms": 1e3 * statistics.median(per_layer_s),
            "weight_err_rel": statistics.fmean(rounds[-1].weight_err_rel.values()),
        }
        lines = [f"quantize_s_per_layer {metrics['op_p50_ms'] / 1e3:.4f} s "
                 f"(median of {len(per_layer_s)} rounds of {len(self.layers)} layers)"]
        return metrics, lines

    def gate(self, prep: Prepared, passes: list[Pass], tally: Tally,
             reference: dict | None) -> list[bytes]:
        last = passes[-1]
        tally.record(all(p.blobs == last.blobs for p in passes),
                     f"{self.name}: rounds wrote different bundle bytes")
        for i, layer in enumerate(self.layers):
            label = f"{self.name} layer {i} ({layer.label})"
            path = prep.weights[i].with_suffix(".lrqb")
            bundle = _attempt(tally, label,
                              lambda: checks.check_reload(path, tally, label))
            if bundle is not None:
                probe = inputs.activations(np.random.default_rng(i), 8, layer.shape[0])
                _attempt(tally, label,
                         lambda: checks.check_forward(bundle, probe, tally, label))
            _probe(self, prep, last, tally, i, path, cold_reps=0, eval_reps=1)
        _check_weight_err(self.name, last.weight_err_rel, len(self.layers),
                          reference, tally)
        return last.blobs


@dataclass(frozen=True)
class ServeWorkload:
    """The read side: load, forward and evaluate bundles built in set-up."""

    name: str
    layers: tuple[Layer, ...]
    setup_reps: ClassVar[int] = 1

    @property
    def request_shape(self) -> tuple[int, int]:
        """Forward requests go to the bundles of the smallest shape."""
        return min((layer.shape for layer in self.layers), key=lambda s: s[0] * s[1])

    def setup(self, seed: int, workdir: Path) -> Prepared:
        # The bundles are built in a child process, so that the dense weights
        # and SVDs of set-up do not raise this process's peak_rss_mb above
        # what the measured read side needs.  subprocess.run waits for the
        # child and kills it on a timeout or an error, so none outlives set-up.
        path = os.pathsep.join(str(Path(f).resolve().parents[1])
                               for f in (loraq.__file__, __file__))
        subprocess.run(
            [sys.executable, "-c",
             "from lqbench.workloads import serve_setup_child; serve_setup_child()"],
            input=pickle.dumps((self, seed, workdir)), check=True,
            timeout=_HARD_LIMIT_S, env={**os.environ, "PYTHONPATH": path})
        result = workdir / _SERVE_PREP
        prep = pickle.loads(result.read_bytes())
        result.unlink()
        _warm_up(workdir)
        return prep

    def run_pass(self, prep: Prepared, tally: Tally, requests: int,
                 deadline: float) -> Pass:
        """Cold starts and evaluates of every bundle, then forward requests
        until each batch size has had ``requests`` of them and ``deadline``
        has passed, or until ``_HARD_LIMIT_S`` after the pass began."""
        rec = Pass()
        t_pass = now()
        loaded = [_probe(self, prep, rec, tally, i, path, _COLD_REPS, _EVAL_REPS)
                  for i, path in enumerate(prep.bundle_paths)]
        targets = [bundle for bundle, layer in zip(loaded, self.layers)
                   if layer.shape == self.request_shape and bundle is not None]
        rec.latency_s = {bs: [] for bs in _BATCH_SIZES}
        tried = dict.fromkeys(_BATCH_SIZES, 0)
        k = 0
        while targets:
            # attempts, not successes, count toward ``requests``: a batch
            # size whose requests fail ends the loop too, and measure()
            # then fails the run for its missing p90
            if now() - t_pass > _HARD_LIMIT_S or (
                    min(tried.values()) >= requests and now() >= deadline):
                break
            bs = _BATCH_SIZES[k % len(_BATCH_SIZES)]
            bundle = targets[(k // len(_BATCH_SIZES)) % len(targets)]
            x = prep.requests[bs][k % _REQUEST_POOL]
            tried[bs] += 1
            t0 = now()
            y = _attempt(tally, f"{self.name} forward b{bs}",
                         lambda: pipeline.forward(bundle, x))
            elapsed = now() - t0
            if y is not None and tally.record(bool(np.all(np.isfinite(y))),
                                              f"{self.name} forward b{bs} not finite"):
                rec.latency_s[bs].append(elapsed)
            k += 1
        rec.wall = now() - t_pass
        return rec

    def measure(self, prep: Prepared, tally: Tally, workdir: Path,
                seconds: float) -> list[Pass]:
        rec = self.run_pass(prep, tally, _MIN_REQUESTS, now() + seconds)
        for bs, samples in rec.latency_s.items():
            tally.record(samples_beyond(len(samples), 90) >= MIN_TAIL_SAMPLES,
                         f"{self.name}: too few b{bs} requests for a p90")
        return [rec]

    def traced_pass(self, prep: Prepared, tally: Tally, workdir: Path) -> Pass:
        return self.run_pass(prep, tally, _TRACED_REQUESTS, deadline=0.0)

    def metrics(self, passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
        (rec,) = passes
        lat = rec.latency_s
        metrics = {
            "op_p50_ms": 1e3 * percentile(lat[_BATCH_SIZES[0]], 50),
            "weight_err_rel": statistics.fmean(rec.weight_err_rel.values()),
        }
        lines = [
            f"cold_start_ms {1e3 * median_of_medians(rec.cold_s.values()):.4f} ms "
            f"(median over {len(rec.cold_s)} bundles of {_COLD_REPS} each)",
            f"evaluate_s {median_of_medians(rec.evaluate_s.values()):.4f} s "
            f"(median over {len(rec.evaluate_s)} bundles of {_EVAL_REPS} each)",
        ]
        for bs, samples in lat.items():
            for q in (50, 90):
                lines.append(f"forward_b{bs}_p{q}_ms {1e3 * percentile(samples, q):.4f} ms"
                             f" (n={len(samples)}, {samples_beyond(len(samples), q)}"
                             f" beyond)")
        return metrics, lines

    def gate(self, prep: Prepared, passes: list[Pass], tally: Tally,
             reference: dict | None) -> list[bytes]:
        for i, layer in enumerate(self.layers):
            label = f"{self.name} bundle {i} ({layer.label})"
            path = prep.bundle_paths[i]
            _attempt(tally, label, lambda: checks.check_reload(
                path, tally, label, built=prep.bundles[i]))
            probe = inputs.activations(np.random.default_rng(i), 8, layer.shape[0])
            _attempt(tally, label, lambda: checks.check_forward(
                prep.bundles[i], probe, tally, label))
        _check_weight_err(self.name, passes[-1].weight_err_rel, len(self.layers),
                          reference, tally)
        return [p.read_bytes() for p in prep.bundle_paths]


def serve_setup_child() -> None:
    """Set-up's child process: reads ``(workload, seed, workdir)`` pickled on
    stdin and leaves the pickled ``Prepared`` in ``workdir``."""
    wl, seed, workdir = pickle.loads(sys.stdin.buffer.read())
    prep = _build_serve_inputs(wl, seed, workdir)
    (workdir / _SERVE_PREP).write_bytes(pickle.dumps(prep))


def _build_serve_inputs(wl: ServeWorkload, seed: int, workdir: Path) -> Prepared:
    """Serve's inputs, bundles and requests; runs in set-up's child process."""
    prep, dense = _save_inputs(wl, seed, workdir)
    for i, (layer, w) in enumerate(zip(wl.layers, dense)):
        # SVD initialisation only: the read side costs the same for any
        # factors of these shapes and formats, and set-up stays short.
        bundle = pipeline.assemble_layer(
            w, make_format(layer.q1), make_format(layer.q2), budget=_BUDGET,
            optimized_lr=False, rotations=False)
        path = workdir / f"w{i}.lrqb"
        bundle_io.save_bundle(path, bundle)
        prep.bundles.append(bundle)
        prep.bundle_paths.append(path)
    rng = np.random.default_rng([seed, 2])
    d = wl.request_shape[0]
    prep.requests = {bs: [inputs.activations(rng, bs, d) for _ in range(_REQUEST_POOL)]
                     for bs in _BATCH_SIZES}
    return prep


def _check_weight_err(name: str, errs: dict[int, float], n_layers: int,
                      reference: dict | None, tally: Tally) -> None:
    if not tally.record(len(errs) == n_layers, f"{name}: a layer has no weight error"):
        return
    if reference is None:
        return
    expected = reference["weight_err_rel"].get(name)
    if tally.record(expected is not None, f"{name}: no reference weight error"):
        checks.check_weight_err([errs[i] for i in range(n_layers)], expected,
                                reference["weight_err_tolerance"], tally, name)


WORKLOADS = {
    wl.name: wl
    for wl in (
        QuantWorkload("quant-int", (Layer((1024, 1024), "SINT4", "SINT4"),
                                    Layer((4096, 1024), "MXINT4", "MXINT4"))),
        QuantWorkload("quant-mxfp", (Layer((1024, 1024), "MXFP4e2", "MXFP6e2"),
                                     Layer((4096, 1024), "MXFP4e2", "MXFP6e2"))),
        # 256x256, not larger: the 121-point grid runs one full SVD per point,
        # so a 512x512 layer takes about 13 s and a run would hold one sample.
        QuantWorkload("quant-smooth", (Layer((256, 256), "SINT4", "SINT4"),
                                       Layer((256, 256), "SINT4", "SINT4")),
                      calibration_rows=256),
        # Requests go to the 1024x1024 bundles only: a forward on the larger
        # ones takes about 0.25 s, and each batch size needs 100 requests for
        # its p90.  The larger bundles are cold-started and evaluated.
        ServeWorkload("serve", tuple(
            Layer(shape, q1, q2)
            for shape in ((1024, 1024), (2048, 2048), (4096, 1024))
            for q1, q2 in (("SINT4", "SINT4"), ("MXFP4e2", "MXFP6e2")))),
    )
}


def toy(wl):
    """The same workload on tiny layers, for the benchmark's own tests."""
    def small(layer: Layer) -> Layer:
        d, n = layer.shape
        return replace(layer, shape=(d // 32 + 16, n // 32 + 16))

    return replace(wl, layers=tuple(small(layer) for layer in wl.layers))


@dataclass
class Outcome:
    metrics: dict[str, float]
    lines: list[str]
    fingerprint: str


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path, tally: Tally,
        reference: dict | None = None, spans_path: Path | None = None,
        import_s: float = 0.0) -> Outcome:
    """Set up, measure (traced or not), then pass every bundle through the gate.

    ``reference`` holds the weight errors of its seed's layers and their
    tolerance; they are checked only on that seed, since other seeds have
    other weights, and not at all without it (the tiny test workloads).
    ``import_s``, the time the caller took to import numpy and loraq, is
    part of ``setup_s``.
    """
    if reference is not None and seed != reference["seed"]:
        reference = None
    setup_times = []
    for _ in range(wl.setup_reps):
        t0 = now()
        prep = wl.setup(seed, workdir)
        setup_times.append(now() - t0)

    if trace:
        metrics, lines, passes = _traced(wl, prep, tally, workdir, seconds, spans_path)
    else:
        passes = wl.measure(prep, tally, workdir, seconds)
        metrics, lines = wl.metrics(passes)

    blobs = wl.gate(prep, passes, tally, reference)
    if not trace:
        values = sum(layer.shape[0] * layer.shape[1] for layer in wl.layers)
        metrics["bits_per_weight"] = 8 * sum(len(b) for b in blobs) / values
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        lines.append(f"setup_s: import {import_s:.4f} s + median of "
                     f"{len(setup_times)} set-ups")
    return Outcome(metrics, lines, checks.fingerprint(blobs))


def _traced(wl, prep: Prepared, tally: Tally, workdir: Path, seconds: float,
            spans_path: Path | None):
    """Untraced and traced passes of the same work, in pairs, while they fit."""
    tracer = Tracer()
    untraced = traced = 0.0
    passes: list[Pass] = []
    start = now()
    while True:
        t0 = now()
        passes.append(wl.traced_pass(prep, tally, workdir))
        untraced += now() - t0
        layers.install(tracer)
        try:
            t0 = now()
            passes.append(wl.traced_pass(prep, tally, workdir))
            traced += now() - t0
        finally:
            tracer.uninstall()
        pair = passes[-1].wall + passes[-2].wall
        if now() - start + pair > min(seconds, _HARD_LIMIT_S):
            break
    n_traced = len(passes) // 2
    metrics = layers.per_layer_metrics(tracer.spans, n_traced * len(wl.layers),
                                       traced, untraced)
    tally.record(abs(metrics["trace.coverage"] - 1.0) <= _COVERAGE_TOL,
                 f"{wl.name}: spans cover {metrics['trace.coverage']:.3f} of the "
                 f"traced wall time")
    if spans_path is not None:
        tracer.write(spans_path)
    lines = [f"traced passes: {n_traced} (each paired with an untraced one)"]
    for name, figure in layers.ROADMAP_BASELINES:
        lines.append(f"baseline {name} {metrics[name]:.4f} (roadmap: {figure})")
    return metrics, lines, passes
