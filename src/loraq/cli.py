"""Command-line front end.

Four subcommands: ``quantize`` turns LQT1 weight files into LRQB bundles,
``evaluate`` reports reconstruction/matmul errors for a bundle against its
source weight and the slack of the matmul-error bound, ``ablate`` runs the
2x2 optimization/rotation toggle grid (sharing one SVD and one absorption
run per weight), and ``inspect`` dumps a bundle's manifest and bit
accounting.

``evaluate`` streams its figures over the residual's row groups: besides
the weight it holds the decoded low-rank factors, one row group, the
activations and two (batch x columns) products, and never a reconstructed
weight.  Without ``--activations`` it reports against the identity, in
closed form, with no (rows x rows) matrix built.  Each figure is a streamed
sum, so it may differ in its last bits from a whole-matrix norm.

``quantize`` and ``ablate`` take a JSON ``--config`` file whose keys are
the subcommand's own flag destinations (``--rot-lr`` is ``rot_lr``,
``--no-optimize`` is ``optimized_lr``), ``config`` and ``machine`` aside.
Its values become the flags' defaults, so flags win over the file.  Both
read each weight file when its turn comes, so a run holds one dense weight
at a time; a missing or corrupt later input therefore fails the run after
the bundles of the earlier ones are written, as a failure to assemble one
does.  Results go to stdout, diagnostics to stderr.  On failure, usage
errors included, the last stderr line is machine-parsable: ``error:
[E_XXX] message``.  Exit codes: 0 success, 2 usage/config, 3 file or codec
format, 4 shape mismatch, 5 numeric failure, 1 internal.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import bundle_io
from .errors import (
    FormatError,
    LoraqError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .formats import json_bool, json_int, json_number, json_str, make_format
from .pipeline import (
    LayerBundle,
    ablate_layer,
    assemble_layer,
    error_report,
    weight_error,
)

__all__ = ["main", "entrypoint"]

_DEFAULT_BUDGET = 512
# Option destinations that are not run settings, so no config key either.
_NOT_SETTINGS = ("help", "config", "machine")
# The JSON type a config value for a flag of this ``type`` must have; a
# toggle takes a boolean and any other flag a string.
_JSON_TYPES = {int: json_int, float: json_number}


def _config_defaults(sub: argparse.ArgumentParser, path: str) -> dict:
    """The settings in the JSON config file at ``path``, as defaults for the
    subcommand parser ``sub``.  Its keys are ``sub``'s flag destinations;
    each value is checked against its flag's JSON type here, because
    argparse would parse a string default through the flag's ``type``.  A
    null leaves a setting unset, except a toggle, which takes only a boolean."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8, bad JSON, an integer too long
        raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"config file {path} must hold a JSON object")
    flags = {a.dest: a for a in sub._actions
             if a.option_strings and a.dest not in _NOT_SETTINGS}
    unknown = sorted(set(data) - set(flags))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    defaults = {}
    for key, value in data.items():
        toggle = flags[key].nargs == 0
        if value is None and not toggle:
            continue
        read = json_bool if toggle else _JSON_TYPES.get(flags[key].type, json_str)
        try:
            defaults[key] = read(value, f"config key {key!r}")
        except TypeError as exc:
            raise ParameterError(str(exc)) from exc
    return defaults


def _load_calibration(path: str | None):
    if path is None:
        return None
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"LQS1":
        return bundle_io.load_stats(path)
    return bundle_io.load_tensor(path)


def _layer_kwargs(args: argparse.Namespace) -> dict:
    """The ``assemble_layer`` keywords that quantize and ablate share.  At
    most one of budget and rank may be set; with neither, the budget is
    ``_DEFAULT_BUDGET`` bits/channel."""
    budget, rank = args.budget, args.rank
    if budget is not None and rank is not None:
        raise ParameterError("budget and rank are mutually exclusive")
    if budget is None and rank is None:
        budget = _DEFAULT_BUDGET
    return dict(budget=budget, rank=rank, absorb_steps=args.steps,
                absorb_lr=args.lr, rotation_steps=args.rot_steps,
                rotation_lr=args.rot_lr)


def _out_paths(inputs: list[str], out: str | None, stats: str | None) -> list[Path]:
    """Each input's bundle path: ``<stem>.lrqb`` beside it, or in the
    directory ``out`` (made if missing) unless ``out`` is a single input's
    file.  An output that resolves to another output or to an input
    (``stats`` too) raises :class:`ParameterError` before anything is made."""
    paths = [Path(p).with_suffix(".lrqb") for p in inputs]
    into_dir = out is not None and (len(inputs) > 1 or Path(out).is_dir())
    if out is not None:
        paths = [Path(out) / path.name for path in paths] if into_dir else [Path(out)]
    sources = {Path(p).resolve() for p in [*inputs, stats] if p is not None}
    written = {}
    for src, path in zip(inputs, paths):
        real = path.resolve()
        if real in sources:
            raise ParameterError(f"the bundle of {src} would overwrite the input {path}")
        if real in written:
            raise ParameterError(
                f"the bundles of {written[real]} and {src} would both be {path}")
        written[real] = src
    if into_dir:
        Path(out).mkdir(parents=True, exist_ok=True)
    return paths


def _quantize_summary(name: str, bundle: LayerBundle,
                      errors: tuple[float, float]) -> dict:
    meta = bundle.meta
    return {
        "weight": name,
        "shape": list(meta.shape),
        "rank": meta.rank,
        "rank_requested": meta.rank_requested,
        "q1": meta.q1.name,
        "q2": meta.q2.name,
        "absorb": meta.absorb,
        "rotation": meta.rotation,
        "weight_err": errors[0],
        "weight_err_rel": errors[1],
        "budget": meta.budget_accounting(),
    }


def _print_quantize_summary(summary: dict) -> None:
    b = summary["budget"]
    print(f"{summary['weight']}: shape {summary['shape'][0]}x{summary['shape'][1]}"
          f" q1={summary['q1']} q2={summary['q2']} rank={summary['rank']}")
    absorb = summary["absorb"]
    print(f"  absorb: steps={absorb['steps']} lr={absorb['learning_rate']:g}"
          f" loss {absorb['init_loss']:.6e} -> {absorb['best_loss']:.6e}")
    if summary["rotation"] is not None:
        rot = summary["rotation"]
        print(f"  rotation: steps={rot['steps']} lr={rot['learning_rate']:g}"
              f" loss {rot['init_loss']:.6e} -> {rot['best_loss']:.6e}")
    print(f"  weight error {summary['weight_err']:.6e}"
          f" (rel {summary['weight_err_rel']:.6e})")
    print(f"  lowrank payload bits/channel: {b['payload_bits_per_channel']}"
          f" (budget: {b['budget_bits_per_channel']})"
          f" scale overhead bits/channel: {b['scale_bits_per_channel_left']}")


def _trim_heap() -> None:
    """Return freed C-heap pages to the OS (glibc's ``malloc_trim``), so a
    layer's peak resident memory does not also hold pages earlier layers
    freed: at 4096x1024 that varied between runs by up to 29 MB."""
    with contextlib.suppress(AttributeError, OSError, TypeError):  # not glibc
        ctypes.CDLL(None).malloc_trim(ctypes.c_size_t(0))


def cmd_quantize(args: argparse.Namespace) -> int:
    layer = _layer_kwargs(args)
    inputs = list(args.weights)
    paths = _out_paths(inputs, args.out, args.stats)
    calibration = _load_calibration(args.stats)

    summaries = []
    for i, (src, path) in enumerate(zip(inputs, paths)):
        _trim_heap()
        w = bundle_io.load_tensor(src)
        bundle = assemble_layer(
            w, args.q1, args.q2, optimized_lr=args.optimized_lr,
            rotations=args.rotations, calibration=calibration, seed=args.seed + i,
            act_format=args.act_format, **layer,
        )
        bundle_io.save_bundle(path, bundle)
        summary = _quantize_summary(src, bundle, weight_error(w, bundle))
        summary["out"] = str(path)
        summaries.append(summary)
        del w, bundle  # the next weight loads with none of this one's arrays held
    if args.machine:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        for summary in summaries:
            _print_quantize_summary(summary)
            print(f"  wrote {summary['out']}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = bundle_io.load_bundle(args.bundle)
    w = bundle_io.load_tensor(args.weight)
    # without activations error_report takes the d x d identity, in closed form
    x = None if args.activations is None else bundle_io.load_tensor(args.activations)
    act = args.act_format
    if act is None and bundle.meta.act_format is not None:
        act = make_format(bundle.meta.act_format)
    report = error_report(w, x, bundle, act)
    # how far the matmul error stays below its bound; error_report refuses
    # an error above it by more than roundoff
    figures = {**report.to_dict(), "bound_slack": report.bound_rhs - report.matmul_err}
    if args.machine:
        print(json.dumps(figures, indent=2, sort_keys=True))
    else:
        for key, value in figures.items():
            print(f"{key}: {value:.12e}")
        print("bound holds: matmul_err <= bound_rhs")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    layer = _layer_kwargs(args)
    inputs = list(args.weights)

    rows = []
    for path in inputs:
        _trim_heap()
        w = bundle_io.load_tensor(path)
        cells = ablate_layer(w, args.q1, args.q2, **layer)
        rows.append({key: weight_error(w, bundle) for key, bundle in cells.items()})
        del w, cells  # the next weight loads with none of this one's arrays held
    cells = []
    for optimized, rotated in rows[0]:
        errs, rels = zip(*(row[optimized, rotated] for row in rows))
        cells.append(
            {
                "optimized_lr": optimized,
                "rotations": rotated,
                "mean_weight_err": float(np.mean(errs)),
                "mean_weight_err_rel": float(np.mean(rels)),
            }
        )
    if args.machine:
        print(json.dumps({"weights": inputs, "cells": cells}, indent=2,
                         sort_keys=True))
    else:
        print(f"{'optimized_lr':>12} {'rotations':>9} {'mean_weight_err':>16} "
              f"{'mean_rel':>12}")
        for cell in cells:
            print(f"{'yes' if cell['optimized_lr'] else 'no':>12} "
                  f"{'yes' if cell['rotations'] else 'no':>9} "
                  f"{cell['mean_weight_err']:>16.6e} "
                  f"{cell['mean_weight_err_rel']:>12.6e}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    bundle = bundle_io.load_bundle(args.bundle)
    meta = bundle.meta
    accounting = meta.budget_accounting()
    chunks = {f"{name}_code_bytes": t.codes.nbytes
              for (name, _, _), t in zip(meta.tensor_layout(), bundle.tensors())}
    chunks["residual_scale_count"] = int(bundle.residual.scales.size)
    info = {
        "meta": meta.to_dict(),
        "gamma": bundle.gamma is not None,
        "chunks": chunks,
        "budget": accounting,
    }
    if args.machine:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"bundle: {args.bundle}")
    d, n = meta.shape
    print(f"shape: {d}x{n}  rank: {meta.rank} (requested {meta.rank_requested})")
    print(f"q1: {meta.q1.name}  q2: {meta.q2.name}")
    print(f"toggles: optimized_lr={meta.optimized_lr} rotations={meta.rotations}")
    print(f"seed: {meta.seed}")
    print(f"smoothing: {meta.smoothing}")
    print(f"absorb: {meta.absorb}")
    print(f"rotation: {meta.rotation}")
    print(f"gamma stored: {bundle.gamma is not None}")
    print(f"lowrank payload bits/channel: {accounting['payload_bits_per_channel']}")
    print(f"budget bits/channel: {accounting['budget_bits_per_channel']}")
    print(f"scale overhead bits/channel (left factor): "
          f"{accounting['scale_bits_per_channel_left']}")
    print(f"total scale bits (both factors): {accounting['total_scale_bits']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Turns usage errors into :class:`ParameterError`, so that they end in
    the same ``error: [E_CONFIG]`` line and exit code as a bad config."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``loraq`` parser, and its subcommand parsers that take a
    ``--config`` file, by name."""
    parser = _Parser(
        prog="loraq",
        description="Quantize dense weight matrices into a 4-bit residual "
        "plus a quantized low-rank compensation branch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("weights", nargs="+", help="input LQT1 weight files")
        p.add_argument("--config", help="JSON config file whose keys are this "
                       "command's flag destinations (--rot-lr is rot_lr, "
                       "--no-optimize is optimized_lr); flags win over it")
        p.add_argument("--q1", type=make_format, default="SINT4",
                       help="residual branch format (default SINT4)")
        p.add_argument("--q2", type=make_format, default="SINT4",
                       help="low-rank branch format (default SINT4)")
        p.add_argument("--budget", type=int, help="bits/channel for the low-rank "
                       f"branch (default {_DEFAULT_BUDGET})")
        p.add_argument("--rank", type=int, help="explicit rank (excludes --budget)")
        p.add_argument("--steps", type=int, help="factor optimization steps")
        p.add_argument("--lr", type=float, help="factor optimization learning rate")
        p.add_argument("--rot-steps", dest="rot_steps", type=int,
                       help="rotation optimization steps")
        p.add_argument("--rot-lr", dest="rot_lr", type=float,
                       help="rotation optimization learning rate")
        p.add_argument("--machine", action="store_true",
                       help="machine-readable JSON output")

    q = sub.add_parser("quantize", help="quantize LQT1 weights into LRQB bundles")
    add_run_flags(q)
    q.add_argument("--act-format", dest="act_format", type=make_format,
                   help="activation format recorded for evaluation")
    q.add_argument("--no-optimize", dest="optimized_lr", action="store_false",
                   help="skip factor optimization (SVD init only)")
    q.add_argument("--no-rotate", dest="rotations", action="store_false",
                   help="skip rotation optimization")
    q.add_argument("--seed", type=int, default=0,
                   help="base seed (per-weight seeds derive from it)")
    q.add_argument("--stats", help="calibration file: LQT1 activations "
                   "(grid-searched smoothing) or LQS1 statistics")
    q.add_argument("--out", help="output file (single input) or directory")
    q.set_defaults(func=cmd_quantize)

    e = sub.add_parser("evaluate", help="report errors of a bundle vs its source weight")
    e.add_argument("bundle", help="LRQB bundle file")
    e.add_argument("weight", help="LQT1 source weight file")
    e.add_argument("--activations", help="optional LQT1 activation file")
    e.add_argument("--act-format", dest="act_format", type=make_format,
                   help="activation quantization format")
    e.add_argument("--machine", action="store_true",
                   help="machine-readable JSON output")
    e.set_defaults(func=cmd_evaluate)

    a = sub.add_parser("ablate", help="run the 2x2 optimization/rotation grid")
    add_run_flags(a)
    a.set_defaults(func=cmd_ablate)

    i = sub.add_parser("inspect", help="dump a bundle's manifest and accounting")
    i.add_argument("bundle", help="LRQB bundle file")
    i.add_argument("--machine", action="store_true",
                   help="machine-readable JSON output")
    i.set_defaults(func=cmd_inspect)
    return parser, {"quantize": q, "ablate": a}


def _classify(exc: Exception) -> tuple[str, int]:
    if isinstance(exc, ShapeError):
        return "E_SHAPE", 4
    if isinstance(exc, FormatError):
        return "E_FORMAT", 3
    if isinstance(exc, ParameterError):
        return "E_CONFIG", 2
    if isinstance(exc, NumericError):
        return "E_NUMERIC", 5
    if isinstance(exc, OSError):
        return "E_FORMAT", 3
    return "E_INTERNAL", 1


def main(argv=None) -> int:
    try:
        parser, configurable = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's settings become the subcommand's defaults: parse
            # again, so that flags win over them
            sub = configurable[args.command]
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 2
    except (LoraqError, OSError) as exc:
        code_name, code = _classify(exc)
        print(f"error: [{code_name}] {exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
