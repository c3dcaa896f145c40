"""Benchmark harness: the multi-run one-class evaluation protocol.

Each run draws a fresh 50/50 target split, fits z-score stats on the
training targets, trains one classifier variant, and scores the held-out
targets plus every outlier. Hyperparameter selection, when requested,
happens on run 0 only and the chosen values are reused for the remaining
runs. Training wall-clock covers the final model fit only, never the
selection scan, and is reported through an optional sink so written
outputs stay byte-deterministic under a fixed seed.

One path serves the protocol, the selection scan and `occelm train`:
fit builds any variant, choose_params runs the selection scan, and
score_model scores either model type.

Variant ids form a closed list of 15 (boundary/reconstruction x
offline random/offline kernel/online x applicable threshold rules);
thr3 exists only for reconstruction families. Random-feature ids accept
an optional _sig/_rbf suffix picking the hidden node type.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import modelsel
from .dataset import Dataset, SplitPlan, occ_split, zscore_apply, zscore_fit
from .errors import AllPointsIdentical, MissingLabels, NoOutliers, TooFewSamples
from .featuremap import (
    ADDITIVE_SIGMOID,
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
from .modelsel import C_GRID, SelectionConfig, SelectionDiagnostics, sigma_grid
from .offline import (
    BOUNDARY,
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

HIDDEN_GRID = (20, 50, 100, 200)
DEFAULT_DEGREE = 2

# layer/fold seed streams, kept distinct from the split streams inside
# occ_split by the trailing constant
_LAYER_STREAM = 7
_FOLD_STREAM = 11
_SELECT_LAYER_STREAM = 13


@dataclass(frozen=True)
class Variant:
    """One row of the closed variant list."""

    vid: str
    base: str
    family: str
    engine: str
    tkind: str

    @property
    def label(self) -> str:
        return self.tkind.capitalize()


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

_NODE_SUFFIXES = {"_sig": ADDITIVE_SIGMOID, "_rbf": RBF_NODE}


def parse_variant(text: str, node_type: str | None = None) -> tuple[Variant, str]:
    """Resolve a variant id, honoring an optional _sig/_rbf suffix.

    Returns the variant and the hidden node type to use (suffix wins over
    the default; a suffix conflicting with an explicit node_type is an
    error). Unknown ids raise KeyError.
    """
    vid = text.lower()
    suffix_type = None
    for suffix, kind in _NODE_SUFFIXES.items():
        stem = vid[: -len(suffix)]
        if vid.endswith(suffix) and stem in VARIANTS:
            if VARIANTS[stem].engine == KERNEL_ENGINE:
                raise KeyError(f"{text!r}: kernel variants take no node suffix")
            vid, suffix_type = stem, kind
            break
    if vid not in VARIANTS:
        raise KeyError(f"unknown variant id {text!r}")
    if node_type is not None and node_type not in NODE_TYPES:
        raise KeyError(f"unknown node type {node_type!r}")
    if suffix_type is not None and node_type is not None and suffix_type != node_type:
        raise KeyError(f"{text!r} conflicts with node type {node_type!r}")
    return VARIANTS[vid], suffix_type or node_type or ADDITIVE_SIGMOID


def classifier_name(variant: Variant, node_type: str, kernel_kind: str) -> str:
    """Classifier column text: base name plus a parenthetical for
    non-default mappings (RBF hidden nodes, non-rbf kernels)."""
    if variant.engine == KERNEL_ENGINE:
        return variant.base if kernel_kind == "rbf" else f"{variant.base}({kernel_kind})"
    return variant.base if node_type == ADDITIVE_SIGMOID else f"{variant.base}(RBF)"


def median_pairwise(X) -> float:
    """Median nonzero pairwise distance; the no-selection kernel width."""
    d = pdist(_rows(X))
    d = d[d > 0]
    if d.size == 0:
        raise AllPointsIdentical("all rows coincide; no nonzero distance")
    return float(np.median(d))


def default_params(
    engine: str,
    kernel_kind: str,
    Xz,
    kern_par: float | None = None,
    c_reg: float | None = None,
    hidden: int | None = None,
) -> dict:
    """Parameters used when selection is off: explicit values win, the
    kernel width falls back to the median pairwise distance of the run's
    normalized training targets, C to 1, the hidden width to 100 (online:
    at most half the rows, so that the initial chunk of 2m rows fits)."""
    C = 1.0 if c_reg is None else float(c_reg)
    if engine == KERNEL_ENGINE:
        if kernel_kind == "linear":
            return {"C": C}
        if kernel_kind == "polynomial":
            degree = DEFAULT_DEGREE if kern_par is None else int(kern_par)
            return {"degree": degree, "C": C}
        width = median_pairwise(Xz) if kern_par is None else float(kern_par)
        key = "sigma" if kernel_kind == "rbf" else "b_w"
        return {key: width, "C": C}
    rows = _rows(Xz)
    if engine == ONLINE_ENGINE:
        m = min(100, max(1, rows.shape[0] // 2)) if hidden is None else int(hidden)
        return {"m": m}
    return {"m": 100 if hidden is None else int(hidden), "C": C}


def _capped_hidden_grid(cap: int) -> list[int]:
    return sorted({min(v, cap) for v in HIDDEN_GRID if min(v, cap) >= 1})


def selection_grids(variant: Variant, kernel_kind: str, Xz, folds: int) -> dict:
    """Grid per engine: kernel widths x C, capped hidden widths x C, or
    hidden widths alone for the online engine, capped at half the smallest
    fold training set so that its default initial chunk of 2m rows fits."""
    rows = _rows(Xz)
    N = rows.shape[0]
    if variant.engine == KERNEL_ENGINE:
        if kernel_kind == "rbf":
            return {"sigma": [float(s) for s in sigma_grid(rows)], "C": list(C_GRID)}
        if kernel_kind == "linear":
            return {"C": list(C_GRID)}
        if kernel_kind == "polynomial":
            return {"degree": [2, 3], "C": list(C_GRID)}
        if kernel_kind == "wavelet":
            return {"b_w": [float(s) for s in sigma_grid(rows)], "C": list(C_GRID)}
        raise ValueError(f"unknown kernel kind {kernel_kind!r}")
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
    tspec: ThresholdSpec | None = None,
    kernel_kind: str = "rbf",
    node_type: str = ADDITIVE_SIGMOID,
    layer_seed=0,
    zstats=None,
    n0: int | None = None,
    block: int | None = None,
):
    """Train any variant on rows (original feature space, normalized with
    zstats when given) with the chosen parameters. tspec defaults to the
    variant's threshold rule at rejection fraction fracrej.

    Online variants stream the rows in order: an initial chunk of n0 rows,
    by default min(N, max(2m, N // 10)) so that it has more rows than the
    layer has nodes, then chunks of block rows, by default max(m, N // 10).
    """
    if tspec is None:
        tspec = ThresholdSpec(kind=variant.tkind, fracrej=fracrej)
    if variant.engine == ONLINE_ENGINE:
        raw = _rows(rows)
        N, n = raw.shape
        m = int(params["m"])
        layer = hidden_init(node_type, m, n, layer_seed)
        n0v = min(N, max(2 * m, N // 10) if n0 is None else int(n0))
        blockv = max(m, N // 10) if block is None else int(block)
        model = os_init(
            variant.family, layer, raw[:n0v],
            zstats=zstats, block=blockv,
        )
        for start in range(n0v, N, blockv):
            os_update(model, raw[start : start + blockv])
        return os_finalize(model, tspec, fracrej)
    train_fn = train_boundary if variant.family == BOUNDARY else train_reconstruction
    return train_fn(
        rows, _offline_mapping(variant, params, kernel_kind, node_type),
        float(params["C"]), tspec, fracrej, seed=layer_seed, zstats=zstats,
    )


def _offline_mapping(
    variant: Variant, params: dict, kernel_kind: str, node_type: str
) -> KernelSpec:
    if variant.engine == RANDOM_ENGINE:
        return KernelSpec(RANDOM_ENGINE, m=int(params["m"]), node_type=node_type)
    if kernel_kind == "rbf":
        return rbf_kernel(float(params["sigma"]))
    if kernel_kind == "linear":
        return linear_kernel()
    if kernel_kind == "polynomial":
        return polynomial_kernel(int(params["degree"]))
    if kernel_kind == "wavelet":
        b_w = float(params["b_w"])
        if not 0 < b_w <= MAX_WIDTH:
            raise ValueError(f"wavelet kernel needs 0 < b_w <= {MAX_WIDTH:g}")
        return wavelet_kernel(1.0, b_w, b_w**2)
    raise ValueError(f"unknown kernel kind {kernel_kind!r}")


def score_model(model, rows) -> Decisions:
    """Decisions of a trained offline or finalized online model for rows in
    the original feature space."""
    scorer = score if isinstance(model, OfflineModel) else os_score
    return scorer(model, rows)


def _fold_trainer(
    variant: Variant,
    kernel_kind: str,
    node_type: str,
    tspec: ThresholdSpec,
    fracrej: float,
    seed: int,
):
    """Scanner for modelsel.select on already normalized fold rows: offline
    variants walk the C list with offline.scan_c, online ones fit once."""

    def scan(params: dict, fold):
        train, val = fold
        layer_seed = [seed, 0, _SELECT_LAYER_STREAM, int(params.get("m", 0))]
        if variant.engine == ONLINE_ENGINE:
            model = fit(
                variant, params, train, tspec=tspec, fracrej=fracrej,
                node_type=node_type, layer_seed=layer_seed,
            )
            return [score_model(model, val).is_target]
        mapping = _offline_mapping(variant, params, kernel_kind, node_type)
        return scan_c(
            variant.family, train, val, mapping, params["C"], tspec, fracrej,
            layer_seed,
        )

    return scan


def choose_params(
    variant: Variant,
    Xz,
    *,
    kernel_kind: str = "rbf",
    node_type: str = ADDITIVE_SIGMOID,
    fracrej: float = 0.1,
    folds: int = 5,
    sigma_thr: float = 2.0,
    seed: int = 0,
) -> tuple[dict, SelectionDiagnostics]:
    """Consistency-based selection over the variant's grid on normalized
    target rows Xz; returns the chosen parameters and the diagnostics."""
    cfg = SelectionConfig(
        selection_grids(variant, kernel_kind, Xz, folds),
        folds=folds,
        sigma_thr=sigma_thr,
        fracrej=fracrej,
        rng_seed=[seed, 0, _FOLD_STREAM],
    )
    tspec = ThresholdSpec(kind=variant.tkind, fracrej=fracrej)
    scan = _fold_trainer(variant, kernel_kind, node_type, tspec, fracrej, seed)
    return modelsel.select(scan, Xz, cfg)


@dataclass
class BenchResult:
    """Everything one benchmark invocation produced."""

    dataset_name: str
    variant: Variant
    node_type: str
    kernel_kind: str
    report: EvalReport
    run_reports: list[EvalReport]
    train_seconds: list[float]
    run_params: list[dict]
    selection: SelectionDiagnostics | None = None

    @property
    def classifier(self) -> str:
        return classifier_name(self.variant, self.node_type, self.kernel_kind)


def run_benchmark(
    data: Dataset,
    variant_id: str,
    *,
    dataset_name: str = "data",
    runs: int = 20,
    seed: int = 0,
    fracrej: float = 0.1,
    kernel_kind: str = "rbf",
    node_type: str | None = None,
    select_params: bool = False,
    folds: int = 5,
    sigma_thr: float = 2.0,
    kern_par: float | None = None,
    c_reg: float | None = None,
    hidden: int | None = None,
    n0: int | None = None,
    block: int | None = None,
    time_sink=None,
) -> BenchResult:
    """Run the full protocol for one variant and return the aggregate.

    data must carry labels with at least one outlier; runs repeats the
    split/train/score cycle with run-indexed seed streams. time_sink, when
    given, receives one human-readable line per run with the training
    wall-clock (selection excluded).
    """
    variant, node_type = parse_variant(variant_id, node_type)
    if data.labels is None:
        raise MissingLabels("benchmarking needs labeled data")
    if bool(np.all(data.labels)):
        raise NoOutliers("benchmarking needs at least one outlier row")
    if runs < 1:
        raise ValueError("runs must be >= 1")

    plan = SplitPlan(run_count=runs, rng_seed=seed)
    chosen: dict | None = None
    diagnostics: SelectionDiagnostics | None = None
    run_reports: list[EvalReport] = []
    train_seconds: list[float] = []
    run_params: list[dict] = []

    for r in range(runs):
        train, test = occ_split(data, plan, r)
        zstats = zscore_fit(train)
        Xz = zscore_apply(train, zstats).samples

        if r == 0 and select_params:
            chosen, diagnostics = choose_params(
                variant, Xz, kernel_kind=kernel_kind, node_type=node_type,
                fracrej=fracrej, folds=folds, sigma_thr=sigma_thr, seed=seed,
            )

        if chosen is not None:
            params = dict(chosen)
        else:
            params = default_params(
                variant.engine, kernel_kind, Xz, kern_par, c_reg, hidden
            )
        run_params.append(dict(params))

        start = time.perf_counter()
        model = fit(
            variant, params, train, fracrej=fracrej,
            kernel_kind=kernel_kind, node_type=node_type,
            layer_seed=run_seed(seed, r), zstats=zstats, n0=n0, block=block,
        )
        elapsed = time.perf_counter() - start
        decisions = score_model(model, test.samples)

        train_seconds.append(elapsed)
        run_reports.append(measures(confuse(decisions, test.labels)))
        if time_sink is not None:
            time_sink(f"run {r}: train {elapsed:.4f}s")

    return BenchResult(
        dataset_name=dataset_name,
        variant=variant,
        node_type=node_type,
        kernel_kind=kernel_kind,
        report=aggregate(run_reports),
        run_reports=run_reports,
        train_seconds=train_seconds,
        run_params=run_params,
        selection=diagnostics,
    )
