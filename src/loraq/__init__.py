"""Post-training quantization of dense weight matrices into a 4-bit
residual branch plus a quantized low-rank error-compensation branch,
optimized data-free, with bit-exact packed bundles and error reporting."""

from .absorber import (
    init_factors,
    optimize_factors,
)
from .bundle_io import (
    BUNDLE_VERSION,
    load_bundle,
    load_stats,
    load_tensor,
    save_bundle,
    save_stats,
    save_tensor,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    CorruptFileError,
    FileFormatError,
    FormatError,
    LoraqError,
    NumericError,
    ParameterError,
    ShapeError,
    UnknownFormatError,
    VersionError,
)
from .formats import (
    PASSTHROUGH,
    FormatSpec,
    IntCodec,
    MinifloatCodec,
    PassthroughCodec,
    QuantizedTensor,
    add_dequantized,
    dequantize,
    fake_quant,
    make_format,
    matmul_dequantized,
    quantize_blockwise,
    registry_names,
)
from .numerics import (
    AdamState,
    OptimizerConfig,
    adam_descent,
    adam_step,
    as_matrix,
    cayley_retract,
    skew_project,
    truncated_svd,
)
from .pipeline import (
    DEFAULT_ABSORB_STEPS,
    DEFAULT_ROTATION_STEPS,
    BundleMeta,
    ErrorReport,
    LayerBundle,
    RankCapWarning,
    ablate_layer,
    assemble_layer,
    default_absorb_lr,
    default_rotation_lr,
    error_report,
    forward,
    rank_for_budget,
    reconstruct_weight,
    weight_error,
)
from .rotation import (
    fuse_rotation,
    optimize_rotation,
    rotation_grad,
)
from .smoothing import (
    ChannelStats,
    SmoothingResult,
    apply_smoothing,
    compute_channel_stats,
    default_migration_grid,
    grid_search_migration,
    smoothing_vector,
)

__version__ = "0.1.0"
