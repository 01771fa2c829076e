"""Per-layer assembly: smoothing, factor optimization, rotation, and the
dual-quantized bundle, plus reconstruction, forward evaluation and error
reporting with the matmul-error upper bound.

The deployed weight is ``Ŵ = Q1(W − L R) + L R``.  The assembled bundle
holds the low-rank branch ``L R`` (the fused factor pair encoded with
``q2``) and the residual branch (the weight minus the quantized low-rank
product, encoded with ``q1``).  Reconstruction is
``dequantize(residual) + dequantize(left) @ dequantize(right)``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .absorber import init_factors, optimize_factors
from .errors import BudgetError, FormatError, NumericError, ParameterError, ShapeError
from .formats import (
    FormatSpec,
    MinifloatCodec,
    QuantizedTensor,
    add_dequantized,
    dequantize,
    dequantized_product,
    fake_quant,
    json_bool,
    json_int,
    json_number,
    json_object,
    json_str,
    make_format,
    quantize_blockwise,
)
from .numerics import OptimizerConfig, as_int, as_matrix
from .rotation import fuse_rotation, optimize_rotation
from .smoothing import (
    ChannelStats,
    default_migration_grid,
    grid_search_migration,
    smoothing_vector,
)

__all__ = [
    "BundleMeta",
    "LayerBundle",
    "ErrorReport",
    "RankCapWarning",
    "rank_for_budget",
    "default_absorb_lr",
    "default_rotation_lr",
    "DEFAULT_ABSORB_STEPS",
    "DEFAULT_ROTATION_STEPS",
    "assemble_layer",
    "ablate_layer",
    "reconstruct_weight",
    "forward",
    "weight_error",
    "error_report",
]

DEFAULT_ABSORB_STEPS = 1000
DEFAULT_ROTATION_STEPS = 500

# stats-only smoothing has no search signal; use balanced migration
_STATS_ONLY_MIGRATION = (0.5, 0.5)


class RankCapWarning(UserWarning):
    """The budget-derived rank exceeded the matrix dimensions."""


def rank_for_budget(budget: int, bits: int) -> int:
    """Largest rank whose payload fits the budget: floor(budget / bits).

    ``budget`` is in bits per channel and ``bits`` is the low-rank branch's
    bits per value, one of 4/6/8/16.
    """
    if budget < 1:
        raise BudgetError(f"budget must be positive, got {budget}")
    if bits not in (4, 6, 8, 16):
        raise ParameterError(f"lowrank bits must be one of 4/6/8/16, got {bits}")
    rank = budget // bits
    if rank < 1:
        raise BudgetError(
            f"budget {budget} bits/channel cannot fit a single {bits}-bit rank"
        )
    return rank


def default_absorb_lr(spec: FormatSpec) -> float:
    """1e-3 for minifloat element formats, 1e-4 for integer ones."""
    return 1e-3 if isinstance(spec.codec, MinifloatCodec) else 1e-4


def default_rotation_lr(spec: FormatSpec) -> float:
    """5e-1 for the fp16-scaled SINT family, 1e-1 for MX formats."""
    return 5e-1 if spec.scale_kind == "fp16" else 1e-1


@dataclass(frozen=True)
class BundleMeta:
    """Everything needed to reproduce and account for a bundle."""

    q1: FormatSpec
    q2: FormatSpec
    shape: tuple[int, int]
    rank: int
    rank_requested: int
    budget_bits_per_channel: int | None
    optimized_lr: bool
    rotations: bool
    seed: int
    absorb: dict
    rotation: dict | None
    smoothing: dict | None
    lowrank_q2_mse: float
    act_format: str | None = None
    lowrank_act_format: str | None = None

    def tensor_layout(self) -> list[tuple[str, FormatSpec, tuple[int, int]]]:
        """``(name, format, shape)`` of each packed tensor, in file order:
        the residual in ``q1``, then the left and right factors in ``q2``."""
        d, n = self.shape
        return [("residual", self.q1, (d, n)),
                ("left", self.q2, (d, self.rank)),
                ("right", self.q2, (self.rank, n))]

    def budget_accounting(self) -> dict:
        """Payload and scale-overhead bits of the low-rank branch."""
        # (scale array shape, dtype) of the left and right factors
        left, right = [spec.stored_arrays(shape)[1]
                       for _, spec, shape in self.tensor_layout()[1:]]
        return {
            "payload_bits_per_channel": self.rank * self.q2.bits_per_value,
            "budget_bits_per_channel": self.budget_bits_per_channel,
            "scale_bits_per_channel_left": left[0][1] * 8 * left[1].itemsize,
            "total_scale_bits": sum(math.prod(shape) * 8 * dtype.itemsize
                                    for shape, dtype in (left, right)),
        }

    def to_dict(self) -> dict:
        """The manifest's ``meta`` object, read back by :meth:`from_dict`."""
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        out.update(q1=self.q1.to_dict(), q2=self.q2.to_dict(), shape=list(self.shape))
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "BundleMeta":
        """Inverse of :meth:`to_dict`.  ``q1`` and ``q2`` must each be
        exactly the ``to_dict()`` of the :func:`make_format` entry they
        name, or :class:`FormatError` is raised (:class:`UnknownFormatError`
        for a name of no format, as for the activation formats).  A value
        without its JSON type raises ``TypeError``, and a rank or dimension
        below 1 ``ValueError``; ``load_bundle`` reports each as corrupt."""
        rows, cols = d["shape"]
        meta = cls(
            q1=_registry_format(d["q1"], "q1"),
            q2=_registry_format(d["q2"], "q2"),
            shape=(json_int(rows, "shape"), json_int(cols, "shape")),
            rank=json_int(d["rank"], "rank"),
            rank_requested=json_int(d["rank_requested"], "rank_requested"),
            budget_bits_per_channel=_nullable(
                json_int, d["budget_bits_per_channel"], "budget_bits_per_channel"),
            optimized_lr=json_bool(d["optimized_lr"], "optimized_lr"),
            rotations=json_bool(d["rotations"], "rotations"),
            seed=json_int(d["seed"], "seed"),
            absorb=_summary(d["absorb"], "absorb", _TRACE_SUMMARY),
            rotation=_nullable(_summary, d["rotation"], "rotation", _TRACE_SUMMARY),
            smoothing=_nullable(_summary, d["smoothing"], "smoothing", _SMOOTHING_SUMMARY),
            lowrank_q2_mse=json_number(d["lowrank_q2_mse"], "lowrank_q2_mse"),
            act_format=_nullable(_format_name, d.get("act_format"), "act_format"),
            lowrank_act_format=_nullable(
                _format_name, d.get("lowrank_act_format"), "lowrank_act_format"),
        )
        if min(meta.rank, *meta.shape) < 1:
            raise ValueError(
                f"rank {meta.rank} and shape {list(meta.shape)} must be positive")
        return meta


def _registry_format(value, label: str) -> FormatSpec:
    """The :func:`make_format` entry that the description ``value`` names.
    It must be the entry's ``to_dict()`` as JSON text, so ``4.0``, ``"4"``
    or ``true`` for a ``4`` raises :class:`FormatError`."""
    spec = make_format(json_str(json_object(value, label).get("name"), f"{label}.name"))
    if json.dumps(value, sort_keys=True) != json.dumps(spec.to_dict(), sort_keys=True):
        raise FormatError(f"{label} does not describe the registry's {spec.name}")
    return spec


def _format_name(value, label: str) -> str:
    """``value`` if it is the name of a :func:`make_format` format; any
    other name raises :class:`UnknownFormatError`."""
    make_format(json_str(value, label))
    return value


def _nullable(read, value, label: str, *args):
    """None for a JSON null, else ``value`` through the JSON reader ``read``."""
    return None if value is None else read(value, label, *args)


# the JSON reader of each key of the stage summaries that _trace_summary and
# _smooth write into the manifest
_TRACE_SUMMARY = {"steps": json_int, "learning_rate": json_number, "init_loss": json_number,
                  "best_loss": json_number, "final_loss": json_number}
_SMOOTHING_SUMMARY = {"alpha_mig": json_number, "beta_mig": json_number,
                      "search_score": lambda v, label: _nullable(json_number, v, label),
                      "source": json_str}


def _summary(value, label: str, schema: dict) -> dict:
    """``value`` unchanged if it is an object with exactly the keys of
    ``schema``, each of which passes its reader; else ``TypeError``."""
    json_object(value, label)
    if set(value) != set(schema):
        raise TypeError(f"{label} must have the keys {sorted(schema)}, got {sorted(value)}")
    for key, read in schema.items():
        read(value[key], f"{label}.{key}")
    return value


@dataclass(frozen=True, eq=False)
class LayerBundle:
    """A fully assembled quantized linear layer."""

    residual: QuantizedTensor
    lowrank_left: QuantizedTensor
    lowrank_right: QuantizedTensor
    gamma: np.ndarray | None
    meta: BundleMeta

    def __post_init__(self):
        for (name, spec, shape), t in zip(self.meta.tensor_layout(), self.tensors()):
            if t.shape != shape:
                raise ShapeError(f"{name} shape {t.shape} != {shape}")
            if t.spec != spec:
                raise FormatError(
                    f"{name} tensor is {t.spec.name}, the manifest says {spec.name}")
        d = self.meta.shape[0]
        if self.gamma is not None and self.gamma.shape != (d,):
            raise ShapeError(f"gamma shape {self.gamma.shape} != ({d},)")

    def tensors(self) -> tuple[QuantizedTensor, QuantizedTensor, QuantizedTensor]:
        """The packed tensors, in the order of :meth:`BundleMeta.tensor_layout`."""
        return self.residual, self.lowrank_left, self.lowrank_right

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerBundle):
            return NotImplemented
        gammas_equal = (self.gamma is None) == (other.gamma is None) and (
            self.gamma is None or np.array_equal(self.gamma, other.gamma))
        return (
            self.tensors() == other.tensors()
            and gammas_equal
            and self.meta.to_dict() == other.meta.to_dict()
        )


@dataclass
class ErrorReport:
    """Reconstruction and matmul error figures for one bundle.

    The quantizers act in smoothed coordinates: ``W_s = gamma * W`` row by
    row and ``X_s = X / gamma`` column by column (``W`` and ``X`` without
    smoothing).  ``What_s`` is :func:`reconstruct_weight` of the bundle,
    ``X_q`` is ``X_s`` fake quantized in the activation format (``X_s``
    without one), and every norm is a Frobenius norm.

    * ``weight_err``: ``||W - What||``, with ``What = What_s / gamma`` row
      by row; ``weight_err_rel`` divides it by ``||W||`` (0 if ``W = 0``).
    * ``weight_err_smoothed``: ``||W_s - What_s||``.
    * ``matmul_err``: ``||X_s W_s - X_q What_s||``; ``matmul_err_rel``
      divides it by ``||X_s W_s||`` (0 if that is 0).
    * ``bound_rhs``: ``||X_s - X_q|| ||W_s|| + ||X_q|| weight_err_smoothed``,
      which ``matmul_err`` cannot exceed.
    * ``residual_mse``: ``weight_err_smoothed^2 / (d n)``, the mean of
      ``(W_s - What_s)^2``.  Up to roundoff that is the mean square error
      of the residual branch, ``Q1(W_s - L R) - (W_s - L R)``, which is
      ``What_s - W_s`` entry by entry.
    * ``lowrank_q2_mse``: the manifest's value, the ``q2`` error
      ``mean((Lhat - L)^2) + mean((Rhat - R)^2)`` of the factors at assembly.
    """

    weight_err: float
    weight_err_rel: float
    weight_err_smoothed: float
    matmul_err: float
    matmul_err_rel: float
    bound_rhs: float
    residual_mse: float
    lowrank_q2_mse: float

    def to_dict(self) -> dict:
        return asdict(self)


def _trace_summary(trace: list[float], lr: float) -> dict:
    return {
        "steps": len(trace) - 1,
        "learning_rate": lr,
        "init_loss": trace[0],
        "best_loss": min(trace),
        "final_loss": trace[-1],
    }


def _smooth(w: np.ndarray, q1: FormatSpec, rank: int, calibration):
    """Smoothing stage: ``(gamma, manifest entry)``, both None without data."""
    if calibration is None:
        return None, None
    if isinstance(calibration, ChannelStats):
        alpha, beta = _STATS_ONLY_MIGRATION
        gamma = smoothing_vector(calibration, w, alpha, beta)
        return gamma, {
            "alpha_mig": alpha,
            "beta_mig": beta,
            "search_score": None,
            "source": "stats",
        }
    found = grid_search_migration(calibration, w, default_migration_grid(), rank, q1)
    return found.gamma, {
        "alpha_mig": found.alpha_mig,
        "beta_mig": found.beta_mig,
        "search_score": found.search_score,
        "source": "grid-search",
    }


def _rotate_and_pack(work: np.ndarray, factors: tuple[np.ndarray, np.ndarray],
                     q1: FormatSpec, q2: FormatSpec, rotation: OptimizerConfig | None):
    """Rotation (when configured) and dual quantization of the branch
    ``factors``: returns the three tensors, the rotation summary and the
    low-rank branch's ``q2`` error."""
    branch_left, branch_right = factors
    rotation_meta = None
    if rotation is not None:
        omega, rtrace = optimize_rotation(branch_left, branch_right, rotation)
        branch_left, branch_right = fuse_rotation(branch_left, branch_right, omega)
        rotation_meta = _trace_summary(rtrace, rotation.learning_rate)

    left_q = quantize_blockwise(branch_left, q2)
    right_q = quantize_blockwise(branch_right, q2)
    left_hat = dequantize(left_q)
    right_hat = dequantize(right_q)
    lowrank_q2_mse = float(
        np.mean(np.square(left_hat - branch_left))
        + np.mean(np.square(right_hat - branch_right))
    )
    residual = left_hat @ right_hat
    np.subtract(work, residual, out=residual)  # the product is dead once subtracted
    residual_q = quantize_blockwise(residual, q1)
    return (residual_q, left_q, right_q), rotation_meta, lowrank_q2_mse


def _assemble(w, q1: FormatSpec, q2: FormatSpec, cells: list[tuple[bool, bool]], *,
              budget=None, rank=None, calibration=None, seed=0, absorb_steps=None,
              absorb_lr=None, rotation_steps=None, rotation_lr=None,
              act_format=None) -> list[LayerBundle]:
    """The stage sequence, with one bundle per ``(optimized_lr, rotations)``
    cell.  Smoothing, SVD init and absorption run once for all cells; an
    un-optimized cell starts from the SVD factors, scored by the first
    entry of the absorption trace (a 0-step run if no cell optimizes)."""
    w = as_matrix(w, "weight")
    d, n = w.shape
    if min(d, n) < 1:
        raise ShapeError(f"weight has no rows or no columns: shape {w.shape}")
    if (budget is None) == (rank is None):
        raise ParameterError("exactly one of budget and rank must be given")
    seed = as_int(seed, "seed")
    if rank is not None:
        requested = as_int(rank, "rank")
        if requested < 1:
            raise ParameterError(f"rank must be >= 1, got {requested}")
    else:
        budget = as_int(budget, "budget")
        requested = rank_for_budget(budget, q2.bits_per_value)
    absorb = OptimizerConfig(
        default_absorb_lr(q1) if absorb_lr is None else absorb_lr,
        DEFAULT_ABSORB_STEPS if absorb_steps is None else absorb_steps, q1)
    rotate = OptimizerConfig(
        default_rotation_lr(q2) if rotation_lr is None else rotation_lr,
        DEFAULT_ROTATION_STEPS if rotation_steps is None else rotation_steps, q2)
    if not any(optimized for optimized, _ in cells):
        absorb.steps = 0  # checked above all the same

    effective_rank = min(requested, d, n)
    if effective_rank < requested:
        warnings.warn(
            f"rank {requested} exceeds matrix dimensions {d}x{n}; "
            f"capped to {effective_rank}",
            RankCapWarning,
            stacklevel=3,
        )

    gamma, smoothing_meta = _smooth(w, q1, effective_rank, calibration)
    work = w if gamma is None else gamma[:, None] * w

    init = init_factors(work, effective_rank)
    best, trace = optimize_factors(work, init, absorb)
    starts = {True: (best, trace), False: (init, trace[:1])}

    bundles = []
    for optimized, rotated in cells:
        factors, absorb_trace = starts[optimized]
        rotation = rotate if rotated and not q2.is_passthrough else None
        tensors, rotation_meta, lowrank_q2_mse = _rotate_and_pack(
            work, factors, q1, q2, rotation
        )
        meta = BundleMeta(
            q1=q1,
            q2=q2,
            shape=(d, n),
            rank=effective_rank,
            rank_requested=requested,
            budget_bits_per_channel=budget,
            optimized_lr=optimized,
            rotations=rotated,
            seed=seed,
            absorb=_trace_summary(absorb_trace, absorb.learning_rate),
            rotation=rotation_meta,
            smoothing=smoothing_meta,
            lowrank_q2_mse=lowrank_q2_mse,
            act_format=None if act_format is None else act_format.name,
        )
        bundles.append(LayerBundle(*tensors, gamma, meta))
    return bundles


def assemble_layer(
    w,
    q1: FormatSpec,
    q2: FormatSpec,
    *,
    budget: int | None = None,
    rank: int | None = None,
    optimized_lr: bool = True,
    rotations: bool = True,
    calibration=None,
    seed: int = 0,
    absorb_steps: int | None = None,
    absorb_lr: float | None = None,
    rotation_steps: int | None = None,
    rotation_lr: float | None = None,
    act_format: FormatSpec | None = None,
) -> LayerBundle:
    """Run the full per-weight pipeline and return the packed bundle.

    Stages: optional smoothing from calibration data, SVD factor
    initialization, absorption optimization against ``q1`` (0 steps
    without ``optimized_lr``), optional rotation optimization against
    ``q2``, then dual quantization of the fused factors and of the
    recomputed residual.  Exactly one of ``budget`` (bits per channel) and
    ``rank`` must be given; a rank larger than the matrix dimensions is
    capped with a warning.  ``seed`` is recorded in the manifest; nothing
    is random, so the result is deterministic for fixed inputs.
    ``act_format``, the activation format the layer is meant to serve
    with, changes no weight: its name is recorded as ``meta.act_format``,
    which ``loraq evaluate`` uses when no ``--act-format`` is given.
    """
    [bundle] = _assemble(
        w, q1, q2, [(optimized_lr, rotations)], budget=budget, rank=rank,
        calibration=calibration, seed=seed, absorb_steps=absorb_steps,
        absorb_lr=absorb_lr, rotation_steps=rotation_steps, rotation_lr=rotation_lr,
        act_format=act_format,
    )
    return bundle


def ablate_layer(w, q1: FormatSpec, q2: FormatSpec,
                 **kwargs) -> dict[tuple[bool, bool], LayerBundle]:
    """All four ``(optimized_lr, rotations)`` cells of :func:`assemble_layer`.

    ``kwargs`` are the other keywords of ``assemble_layer``.  The cell for
    ``(o, r)`` equals ``assemble_layer(w, q1, q2, optimized_lr=o,
    rotations=r, **kwargs)``, but the cells share one smoothing stage, one
    SVD and one absorption run.  Cells come in the order (True, True),
    (True, False), (False, True), (False, False).
    """
    cells = [(o, r) for o in (True, False) for r in (True, False)]
    return dict(zip(cells, _assemble(w, q1, q2, cells, **kwargs)))


def reconstruct_weight(bundle: LayerBundle, *, desmoothed: bool = False) -> np.ndarray:
    """Effective weight of a bundle: residual plus the low-rank product.

    With ``desmoothed`` the result is mapped back to the original
    (pre-smoothing) coordinates for comparison against the source weight.
    The call holds one d x n float64 array, the result: the residual is
    decoded one row group at a time and added into the product ``L̂ @ R̂``
    (:func:`~loraq.formats.add_dequantized`), which gives the sums of
    ``dequantize(residual) + L̂ @ R̂`` bit for bit.  Besides it, only the
    decoded factors, d x rank and rank x n, are held at once.
    """
    branch = dequantize(bundle.lowrank_left) @ dequantize(bundle.lowrank_right)
    w_hat = add_dequantized(branch, bundle.residual)
    if desmoothed and bundle.gamma is not None:
        w_hat /= bundle.gamma[:, None]
    return w_hat


def _activations(bundle: LayerBundle, x,
                 activation_format: FormatSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """``(x_s, x_q)``: the activations ``x`` divided by the smoothing vector,
    column by column, and ``x_s`` fake quantized in ``activation_format``
    (``x_s`` itself without one).  ``x`` must be a finite matrix with one
    column per weight row, and a quotient that overflows raises
    :class:`NumericError` naming the division."""
    x = as_matrix(x, "activations")
    d = bundle.meta.shape[0]
    if x.shape[1] != d:
        raise ShapeError(f"activations have {x.shape[1]} columns, layer expects {d}")
    x_s = x
    if bundle.gamma is not None:
        with np.errstate(over="ignore"):
            x_s = x / bundle.gamma[None, :]
        if not np.isfinite(x_s).all():
            raise NumericError(
                "the activations overflow when divided by the smoothing vector")
    x_q = fake_quant(x_s, activation_format) if activation_format is not None else x_s
    return x_s, x_q


def forward(
    bundle: LayerBundle,
    x,
    activation_format: FormatSpec | None = None,
    lowrank_activation_format: FormatSpec | None = None,
) -> np.ndarray:
    """Apply the quantized layer to activations.

    Activations are divided by the smoothing vector, optionally fake
    quantized (the low-rank branch may use its own format, defaulting to
    the shared one), and pushed through both branches, associated as
    ``x_res @ D + (x_lr @ L) @ R``: ``D`` is the decoded residual and ``L``
    and ``R`` the decoded factors of the low-rank branch, whose dense
    product ``L @ R`` is never built.  Each of the three products is a
    :func:`~loraq.formats.matmul_dequantized`: when its left operand has
    at most an eighth as many rows as the tensor's blocks have values (8
    rows for blocks of 64, 4 for blocks of 32; a batch of 1 always does),
    the block scales multiply that operand, ``(x * s[:, b]) @ T[:, b]``
    per block ``b`` of the unscaled code values ``T``, which are decoded
    one cache-sized slab of block columns at a time and never as a whole
    matrix; otherwise the tensor is decoded with its scales and
    multiplied as a whole.  Only the order of the sums and, with fp16
    scales, of the products differs from ``x @ reconstruct_weight(bundle)``.

    The activations must be finite (else :class:`NumericError` naming
    them), and so must their quotient by the smoothing vector (else
    :class:`NumericError` naming that division).  A product that overflows
    is not the caller's fault: the intermediate ``x_lr @ L`` is passed on
    unchecked, and the output is checked once, raising a
    :class:`NumericError` that names it.
    """
    x_s, x_res = _activations(bundle, x, activation_format)
    lr_format = (
        lowrank_activation_format
        if lowrank_activation_format is not None
        else activation_format
    )
    x_lr = x_res if lr_format == activation_format else fake_quant(x_s, lr_format)
    with np.errstate(over="ignore", invalid="ignore"):
        y = dequantized_product(x_res, bundle.residual)
        y += dequantized_product(dequantized_product(x_lr, bundle.lowrank_left),
                                 bundle.lowrank_right)
    if not np.isfinite(y).all():
        raise NumericError("the forward output is not finite: a product overflowed")
    return y


def _bundle_weight(w, bundle: LayerBundle) -> np.ndarray:
    w = as_matrix(w, "weight")
    if w.shape != bundle.meta.shape:
        raise ShapeError(f"weight shape {w.shape} != bundle shape {bundle.meta.shape}")
    return w


def _weight_error(w: np.ndarray, w_hat: np.ndarray) -> tuple[float, float]:
    """Weight errors of the de-smoothed reconstruction ``w_hat``, which this
    overwrites: the caller must not read it afterwards."""
    diff = np.subtract(w, w_hat, out=w_hat)
    return _relative(float(np.linalg.norm(diff, "fro")), float(np.linalg.norm(w, "fro")))


def _relative(weight_err: float, w_norm: float) -> tuple[float, float]:
    """``(weight_err, weight_err / w_norm)``, 0 for ``w_norm = 0``; an error
    that is not finite raises :class:`NumericError`."""
    if not np.isfinite(weight_err):
        raise NumericError("the reconstructed weight is not finite")
    return weight_err, weight_err / w_norm if w_norm else 0.0


def weight_error(w, bundle: LayerBundle) -> tuple[float, float]:
    """``(weight_err, weight_err_rel)`` of a bundle against its source weight.

    The figures :func:`error_report` gives, without activations: the
    Frobenius error of the de-smoothed reconstruction, absolute and
    relative to ``||w||``.  A non-finite reconstruction raises
    :class:`NumericError`.
    """
    w = _bundle_weight(w, bundle)
    return _weight_error(w, reconstruct_weight(bundle, desmoothed=True))


def error_report(w, x, bundle: LayerBundle,
                 activation_format: FormatSpec | None = None) -> ErrorReport:
    """Measure reconstruction and matmul error and check the upper bound.

    The bound states that the matmul error cannot exceed
    ``||X - Q(X)|| * ||W|| + ||Q(X)|| * ||W - What||``; a violation beyond
    float roundoff raises :class:`NumericError`, and so does a figure that
    overflows, since no bound can be checked on it, and so do activations
    that overflow when divided by the smoothing vector.

    The weight is checked against the bundle's shape before the
    activations are read.  Besides ``w`` the call holds one d x n float64
    array without smoothing: the reconstruction ``What_s`` of
    :func:`reconstruct_weight`, which is overwritten by ``W - What`` once
    ``matmul_err`` is taken, so that one norm gives both
    ``weight_err_smoothed`` and ``weight_err``.  With smoothing it holds
    two: ``What_s``, and ``W_s = gamma * W``, overwritten by ``W_s -
    What_s``.  Either way every figure is the one fresh temporaries give,
    bit for bit.
    """
    w = _bundle_weight(w, bundle)
    x_s, x_q = _activations(bundle, x, activation_format)
    gamma = bundle.gamma
    w_hat_s = reconstruct_weight(bundle)
    w_s = w if gamma is None else gamma[:, None] * w

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        act_err = float(np.linalg.norm(x_s - x_q, "fro"))
        x_norm = float(np.linalg.norm(x_s, "fro"))
        x_q_norm = float(np.linalg.norm(x_q, "fro"))
        exact = x_s @ w_s
        del x_s  # X_s is dead: X_q and two m x n arrays are all that follow
        exact_norm = float(np.linalg.norm(exact, "fro"))
        error = np.subtract(exact, x_q @ w_hat_s, out=exact)
        matmul_err = float(np.linalg.norm(error, "fro"))
        w_norm = float(np.linalg.norm(w_s, "fro"))
        # W_s - What_s into a buffer nothing reads afterwards: W_s's with
        # smoothing, else What_s's, since W_s is W and its error is the error
        diff = np.subtract(w_s, w_hat_s, out=w_hat_s if gamma is None else w_s)
        weight_err_smoothed = float(np.linalg.norm(diff, "fro"))
        residual_mse = float(np.mean(np.square(diff, out=diff)))
        bound_rhs = act_err * w_norm + x_q_norm * weight_err_smoothed
    if gamma is None:
        weight_err, weight_err_rel = _relative(weight_err_smoothed, w_norm)
    else:
        w_hat_s /= gamma[:, None]
        weight_err, weight_err_rel = _weight_error(w, w_hat_s)
    report = ErrorReport(
        weight_err=weight_err,
        weight_err_rel=weight_err_rel,
        weight_err_smoothed=weight_err_smoothed,
        matmul_err=matmul_err,
        matmul_err_rel=matmul_err / exact_norm if exact_norm else 0.0,
        bound_rhs=bound_rhs,
        residual_mse=residual_mse,
        lowrank_q2_mse=bundle.meta.lowrank_q2_mse,
    )
    # an overflowed figure would pass the bound check below (inf > inf is
    # false) and print as a JSON Infinity or NaN
    figures = {**report.to_dict(), "exact_norm": exact_norm}
    overflowed = [key for key, value in figures.items() if not math.isfinite(value)]
    if overflowed:
        raise NumericError(f"error figures are not finite: {', '.join(overflowed)}")

    slack = 1e-12 * (1.0 + x_norm * w_norm)
    if matmul_err > bound_rhs + slack:
        raise NumericError(
            f"matmul error {matmul_err:.6e} exceeds its upper bound "
            f"{bound_rhs:.6e}"
        )
    return report
