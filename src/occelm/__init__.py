"""One-class classification with extreme learning machines.

Boundary-based and reconstruction-based classifiers in offline (kernel or
random feature map) and online sequential forms, three outlier-threshold
rules, consistency-based hyperparameter selection, and the multi-run
benchmark protocol behind the `occelm` command.
"""

from .bench import (
    VARIANT_IDS,
    VARIANTS,
    BenchResult,
    Variant,
    choose_params,
    fit,
    fixed_params,
    parse_variant,
    run_benchmark,
    score_model,
)
from .dataset import (
    Dataset,
    ZScoreStats,
    gen_banana,
    gen_ring,
    identity_stats,
    load_csv,
    occ_split,
    round_half_up,
    write_csv,
    zscore_apply,
    zscore_fit,
)
from .errors import (
    AlreadyFinalized,
    BadArgument,
    DimensionMismatch,
    MissingLabels,
    ModelFormatError,
    NonFiniteOutput,
    NotFinalized,
    OccelmError,
    ParseError,
    RankDeficient,
    SingularSystem,
    Thr3NotApplicable,
    TooFewSamples,
    UsageError,
)
from .featuremap import (
    ADDITIVE_SIGMOID,
    KERNEL_KINDS,
    NODE_TYPES,
    RBF_NODE,
    HiddenLayer,
    KernelSpec,
    hidden_apply,
    hidden_init,
    kernel_gram,
    linear_kernel,
    polynomial_kernel,
    random_kernel,
    random_kernel_gram,
    rbf_kernel,
    wavelet_kernel,
)
from .linsolve import RlsState, rls_init, rls_update, solve_regularized
from .metrics import (
    REPORT_COLUMNS,
    ConfusionCounts,
    EvalReport,
    aggregate,
    confuse,
    measures,
    render_value,
)
from .modelio import load_model, save_model
from .modelsel import (
    C_GRID,
    GridPoint,
    SelectionDiagnostics,
    error_threshold,
    fold_assignment,
    select,
    sigma_grid,
    write_diagnostics,
)
from .offline import (
    BOUNDARY,
    DEFAULT_HIDDEN,
    RECONSTRUCTION,
    OfflineModel,
    score,
    train_boundary,
    train_reconstruction,
)
from .online import OnlineModel, os_finalize, os_init, os_score, os_update
from .threshold import (
    THR1,
    THR2,
    THR3,
    THRESHOLD_KINDS,
    Decision,
    Decisions,
    ThresholdSpec,
    apply_threshold,
    relative_errors,
    thr1_fit,
    thr2_fit,
    thr3_decide,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
