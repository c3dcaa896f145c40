"""Benchmark harness: the multi-run one-class evaluation protocol.

Each run draws a fresh 50/50 target split, fits z-score stats on the
training targets, trains one classifier variant, and scores the held-out
targets plus every outlier. Hyperparameter selection, when requested,
happens on run 0 only and the chosen values are reused for the remaining
runs. Training wall-clock covers the final model fit only, never the
selection scan, and is returned in BenchResult.train_seconds, never
written to an output file, so written outputs stay byte-deterministic
under a fixed seed.

One path serves the protocol, the selection scan and `occelm train`:
fit builds any variant, choose_params runs the selection scan, and
score_model scores either model type.

Variant ids form a closed list of 15 (boundary/reconstruction x
offline random/offline kernel/online x applicable threshold rules);
thr3 exists only for reconstruction families. parse_variant resolves an
id together with its feature map, once: a kernel for kernel variants, a
hidden node type (flag or _sig/_rbf suffix) for random and online ones.
Every later step reads the map from the Variant it returns, and
fixed_params refuses a fixed parameter the run does not read.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from . import modelsel
from .dataset import Dataset, occ_split, zscore_apply, zscore_fit
from .errors import TooFewSamples
from .featuremap import (
    ADDITIVE_SIGMOID,
    KERNEL_PARAMS,
    MAX_WIDTH,
    NODE_TYPES,
    RBF_NODE,
    KernelSpec,
    hidden_init,
    linear_kernel,
    polynomial_kernel,
    rbf_kernel,
    wavelet_kernel,
)
from .metrics import EvalReport, aggregate, confuse, measures
from .modelsel import C_GRID, SelectionDiagnostics, sigma_grid
from .offline import (
    BOUNDARY,
    DEFAULT_HIDDEN,
    RECONSTRUCTION,
    OfflineModel,
    _rows,
    scan_c,
    score,
    train_boundary,
    train_reconstruction,
)
from .online import os_finalize, os_init, os_score, os_update
from .threshold import Decisions, ThresholdSpec

KERNEL_ENGINE = "kernel"
RANDOM_ENGINE = "random"
ONLINE_ENGINE = "online"

KERNELS = tuple(KERNEL_PARAMS)
FIXED_PARAMS = ("kern_par", "c_reg", "hidden", "n0", "block")
HIDDEN_GRID = (20, 50, 100, 200)
DEFAULT_DEGREE = 2

# layer/fold seed streams, kept distinct from the split streams inside
# occ_split by the trailing constant
_LAYER_STREAM = 7
_FOLD_STREAM = 11
_SELECT_LAYER_STREAM = 13


@dataclass(frozen=True)
class Variant:
    """One row of the closed variant list with its feature map: kernel is
    read by kernel variants only, node_type by random and online ones."""

    vid: str
    base: str
    family: str
    engine: str
    tkind: str
    kernel: str = "rbf"
    node_type: str = ADDITIVE_SIGMOID

    @property
    def label(self) -> str:
        return self.tkind.capitalize()

    @property
    def classifier(self) -> str:
        """Classifier column text: base name plus a parenthetical for
        non-default maps (RBF hidden nodes, non-rbf kernels)."""
        if self.engine == KERNEL_ENGINE:
            return self.base if self.kernel == "rbf" else f"{self.base}({self.kernel})"
        return self.base if self.node_type == ADDITIVE_SIGMOID else f"{self.base}(RBF)"


def _build_variants() -> dict[str, Variant]:
    table = [
        ("ocelm", "OCELM", BOUNDARY, RANDOM_ENGINE, ("thr1", "thr2")),
        ("ockelm", "OCKELM", BOUNDARY, KERNEL_ENGINE, ("thr1", "thr2")),
        ("aaelm", "AAELM", RECONSTRUCTION, RANDOM_ENGINE, ("thr1", "thr2", "thr3")),
        ("aakelm", "AAKELM", RECONSTRUCTION, KERNEL_ENGINE, ("thr1", "thr2", "thr3")),
        ("os_ocelm", "OS-OCELM", BOUNDARY, ONLINE_ENGINE, ("thr1", "thr2")),
        ("os_aaelm", "OS-AAELM", RECONSTRUCTION, ONLINE_ENGINE, ("thr1", "thr2", "thr3")),
    ]
    out: dict[str, Variant] = {}
    for stem, base, family, engine, kinds in table:
        for tkind in kinds:
            vid = f"{stem}_{tkind}"
            out[vid] = Variant(vid, base, family, engine, tkind)
    return out


VARIANTS: dict[str, Variant] = _build_variants()
VARIANT_IDS: tuple[str, ...] = tuple(VARIANTS)

# short hidden node names: the --node-type values and the id suffixes
NODE_NAMES = {"sig": ADDITIVE_SIGMOID, "rbf": RBF_NODE}


def parse_variant(
    text: str, node_type: str | None = None, kernel: str | None = None
) -> Variant:
    """Resolve a variant id and its feature map: a hidden node type from a
    _sig/_rbf suffix or node_type (they must agree), or a kernel. Raises
    KeyError for an unknown id, node type or kernel, and for a map the
    variant's engine does not read."""
    vid = text.lower()
    suffix_type = None
    stem, _, name = vid.rpartition("_")
    if name in NODE_NAMES and stem in VARIANTS:
        vid, suffix_type = stem, NODE_NAMES[name]
    if vid not in VARIANTS:
        raise KeyError(f"unknown variant id {text!r}")
    if node_type is not None and node_type not in NODE_TYPES:
        raise KeyError(f"unknown node type {node_type!r}")
    if kernel is not None and kernel not in KERNELS:
        raise KeyError(f"unknown kernel {kernel!r}")
    if suffix_type is not None and node_type is not None and suffix_type != node_type:
        raise KeyError(f"{text!r} conflicts with node type {node_type!r}")
    variant, node_type = VARIANTS[vid], suffix_type or node_type
    if variant.engine == KERNEL_ENGINE:
        if node_type is not None:
            raise KeyError(f"{text!r}: kernel variants take no hidden node type")
        return replace(variant, kernel=kernel or variant.kernel)
    if kernel is not None:
        raise KeyError(f"{text!r}: only kernel variants take a kernel")
    return replace(variant, node_type=node_type or variant.node_type)


def median_pairwise(X) -> float:
    """Median nonzero pairwise distance; the no-selection kernel width."""
    return float(np.median(modelsel.nonzero_distances(X)))


def fixed_params(variant: Variant, select: bool, given: Mapping) -> dict:
    """The values in given (named as in FIXED_PARAMS) that are not None.
    Raises KeyError for one the run does not read: kernel variants read
    kern_par (not under the linear kernel) and c_reg, random ones c_reg and
    hidden, online ones hidden, n0 and block. Selection chooses all but the
    online n0 and block, the chunks its final fit streams."""
    if variant.engine == ONLINE_ENGINE:
        reads = {"n0", "block"} if select else {"hidden", "n0", "block"}
    elif select:
        reads = set()
    elif variant.engine == RANDOM_ENGINE:
        reads = {"c_reg", "hidden"}
    else:
        reads = {"c_reg"} if variant.kernel == "linear" else {"kern_par", "c_reg"}
    fixed = {name: value for name, value in given.items() if value is not None}
    for name in fixed:
        if name not in reads:
            raise KeyError(
                f"{variant.classifier} {'with' if select else 'without'} --select "
                f"does not read --{name.replace('_', '-')}"
            )
    return fixed


def default_params(variant: Variant, Xz, fixed: Mapping) -> dict:
    """Parameters used when selection is off: the fixed values win, the
    kernel width falls back to the median pairwise distance of the run's
    normalized training targets, C to 1, the hidden width to DEFAULT_HIDDEN
    (online: at most half the rows, so that the initial chunk of 2m rows
    fits)."""
    C = float(fixed.get("c_reg", 1.0))
    kern_par, hidden = fixed.get("kern_par"), fixed.get("hidden")
    if variant.engine == KERNEL_ENGINE:
        if variant.kernel == "linear":
            return {"C": C}
        if variant.kernel == "polynomial":
            return {"degree": DEFAULT_DEGREE if kern_par is None else kern_par, "C": C}
        width = median_pairwise(Xz) if kern_par is None else float(kern_par)
        key = "sigma" if variant.kernel == "rbf" else "b_w"
        return {key: width, "C": C}
    m = DEFAULT_HIDDEN if hidden is None else int(hidden)
    if variant.engine == ONLINE_ENGINE:
        return {"m": min(m, max(1, _rows(Xz).shape[0] // 2)) if hidden is None else m}
    return {"m": m, "C": C}


def _capped_hidden_grid(cap: int) -> list[int]:
    return sorted({min(v, cap) for v in HIDDEN_GRID if min(v, cap) >= 1})


def selection_grids(variant: Variant, Xz, folds: int) -> dict:
    """Grid per engine: kernel widths x C, capped hidden widths x C, or
    hidden widths alone for the online engine, capped at half the smallest
    fold training set so that its default initial chunk of 2m rows fits."""
    rows = _rows(Xz)
    N = rows.shape[0]
    modelsel.check_folds(folds)
    if variant.engine == KERNEL_ENGINE:
        if variant.kernel == "linear":
            return {"C": list(C_GRID)}
        if variant.kernel == "polynomial":
            return {"degree": [2, 3], "C": list(C_GRID)}
        key = "sigma" if variant.kernel == "rbf" else "b_w"
        return {key: [float(s) for s in sigma_grid(rows)], "C": list(C_GRID)}
    if variant.engine == ONLINE_ENGINE:
        smallest_train = N - (N + folds - 1) // folds
        widths = _capped_hidden_grid(smallest_train // 2)
        if not widths:
            raise TooFewSamples(
                f"{N} training rows are too few for online selection: the "
                f"smallest of {folds} fold training sets has {smallest_train} "
                "rows, and a hidden width m needs 2m of them"
            )
        return {"m": widths}
    return {"m": _capped_hidden_grid(N), "C": list(C_GRID)}


def run_seed(seed: int, run: int = 0) -> list[int]:
    """Hidden-layer seed of one protocol run; `occelm train` uses run 0."""
    return [seed, run, _LAYER_STREAM]


def fit(
    variant: Variant,
    params: dict,
    rows,
    *,
    fracrej: float = 0.1,
    layer_seed=0,
    zstats=None,
    n0: int | None = None,
    block: int | None = None,
):
    """Train any variant on rows (original feature space, normalized with
    zstats when given) with the chosen parameters, under the variant's
    threshold rule at rejection fraction fracrej.

    Online variants stream the rows in order: an initial chunk of n0 rows,
    by default min(N, max(2m, N // 10)) so that it has more rows than the
    layer has nodes, then chunks of block rows, by default max(m, N // 10).
    """
    tspec = ThresholdSpec(kind=variant.tkind, fracrej=fracrej)
    if variant.engine == ONLINE_ENGINE:
        raw = _rows(rows)
        N, n = raw.shape
        m = int(params["m"])
        layer = hidden_init(variant.node_type, m, n, layer_seed)
        n0v = min(N, max(2 * m, N // 10) if n0 is None else int(n0))
        blockv = max(m, N // 10) if block is None else int(block)
        model = os_init(
            variant.family, layer, raw[:n0v],
            zstats=zstats, block=blockv,
        )
        for start in range(n0v, N, blockv):
            os_update(model, raw[start : start + blockv])
        return os_finalize(model, tspec)
    train_fn = train_boundary if variant.family == BOUNDARY else train_reconstruction
    return train_fn(
        rows, _offline_mapping(variant, params),
        float(params["C"]), tspec, seed=layer_seed, zstats=zstats,
    )


def _offline_mapping(variant: Variant, params: dict) -> KernelSpec:
    if variant.engine == RANDOM_ENGINE:
        return KernelSpec(RANDOM_ENGINE, m=int(params["m"]), node_type=variant.node_type)
    if variant.kernel == "rbf":
        return rbf_kernel(float(params["sigma"]))
    if variant.kernel == "linear":
        return linear_kernel()
    if variant.kernel == "polynomial":
        return polynomial_kernel(params["degree"])
    b_w = float(params["b_w"])
    if not 0 < b_w <= MAX_WIDTH:
        raise ValueError(f"wavelet kernel needs 0 < b_w <= {MAX_WIDTH:g}")
    return wavelet_kernel(1.0, b_w, b_w**2)


def score_model(model, rows) -> Decisions:
    """Decisions of a trained offline or finalized online model for rows in
    the original feature space."""
    scorer = score if isinstance(model, OfflineModel) else os_score
    return scorer(model, rows)


def _fold_trainer(variant: Variant, fracrej: float, seed: int):
    """Scanner for modelsel.select on already normalized fold rows: offline
    variants walk the C list with offline.scan_c, online ones fit once.
    The threshold spec is built in the scan, so that select's own fracrej
    check, which runs first, gives the message for a bad value."""

    def scan(params: dict, fold):
        train, val = fold
        layer_seed = [seed, 0, _SELECT_LAYER_STREAM, int(params.get("m", 0))]
        if variant.engine == ONLINE_ENGINE:
            model = fit(variant, params, train, fracrej=fracrej, layer_seed=layer_seed)
            return [score_model(model, val).is_target]
        mapping = _offline_mapping(variant, params)
        tspec = ThresholdSpec(kind=variant.tkind, fracrej=fracrej)
        return scan_c(
            variant.family, train, val, mapping, params["C"], tspec, layer_seed
        )

    return scan


def choose_params(
    variant: Variant,
    Xz,
    *,
    fracrej: float = 0.1,
    folds: int = 5,
    sigma_thr: float = 2.0,
    seed: int = 0,
) -> tuple[dict, SelectionDiagnostics]:
    """Consistency-based selection over the variant's grid on normalized
    target rows Xz; returns the chosen parameters and the diagnostics."""
    return modelsel.select(
        _fold_trainer(variant, fracrej, seed), Xz, selection_grids(variant, Xz, folds),
        folds=folds, sigma_thr=sigma_thr, fracrej=fracrej, seed=[seed, 0, _FOLD_STREAM],
    )


@dataclass
class BenchResult:
    """Everything one benchmark invocation produced."""

    dataset_name: str
    variant: Variant
    report: EvalReport
    run_reports: list[EvalReport]
    train_seconds: list[float]
    run_params: list[dict]
    selection: SelectionDiagnostics | None = None


def run_benchmark(
    data: Dataset,
    variant: Variant | str,
    *,
    dataset_name: str = "data",
    runs: int = 20,
    seed: int = 0,
    fracrej: float = 0.1,
    select_params: bool = False,
    folds: int = 5,
    sigma_thr: float = 2.0,
    fixed: Mapping | None = None,
) -> BenchResult:
    """Run the full protocol for one variant and return the aggregate.

    variant is a Variant from parse_variant, or an id resolved with the
    default feature map; fixed holds the fixed parameters (fixed_params).
    runs repeats the split/train/score cycle with run-indexed seed streams;
    run 0's occ_split refuses data the protocol cannot split.
    """
    if isinstance(variant, str):
        variant = parse_variant(variant)
    fixed = fixed_params(variant, select_params, fixed or {})
    if runs < 1:
        raise ValueError("runs must be >= 1")

    chosen: dict | None = None
    diagnostics: SelectionDiagnostics | None = None
    run_reports: list[EvalReport] = []
    train_seconds: list[float] = []
    run_params: list[dict] = []

    for r in range(runs):
        train, test = occ_split(data, seed, r)
        zstats = zscore_fit(train)
        Xz = zscore_apply(train, zstats).samples

        if r == 0 and select_params:
            chosen, diagnostics = choose_params(
                variant, Xz, fracrej=fracrej, folds=folds, sigma_thr=sigma_thr, seed=seed
            )

        if chosen is not None:
            params = dict(chosen)
        else:
            params = default_params(variant, Xz, fixed)
        run_params.append(dict(params))

        start = time.perf_counter()
        model = fit(
            variant, params, train, fracrej=fracrej,
            layer_seed=run_seed(seed, r), zstats=zstats,
            n0=fixed.get("n0"), block=fixed.get("block"),
        )
        train_seconds.append(time.perf_counter() - start)
        decisions = score_model(model, test.samples)
        run_reports.append(measures(confuse(decisions, test.labels)))

    return BenchResult(
        dataset_name=dataset_name,
        variant=variant,
        report=aggregate(run_reports),
        run_reports=run_reports,
        train_seconds=train_seconds,
        run_params=run_params,
        selection=diagnostics,
    )
