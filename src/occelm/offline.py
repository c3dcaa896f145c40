"""Offline one-class classifiers: boundary (constant-target) and
reconstruction (autoassociative) training plus scoring.

Training solves (Omega + I/C) beta = T on the Gram matrix of the training
rows; boundary models set T to a column of ones and score the deviation
from 1, reconstruction models set T to the input itself and score squared
reconstruction error. Scoring unseen rows uses the cross matrix
K(test, train) @ beta with the training basis: the normalized training
rows, or their hidden activations H for the random mapping.

Training builds its C-independent feature stage (hidden layer or kernel,
Omega) once and then solves per C: _train for one C, scan_c for a list.

The per-row errors, the threshold fit and the columnar decision defined
here (row_errors, fit_threshold, decide) are shared with the online models
in online.py. fit_threshold alone reads the rejection fraction, refuses
thr3 for boundary models and gives the training errors a model stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, ZScoreStats, as_rows, identity_stats, require_finite, zscore_apply
from .errors import FIT_FAILURES, Thr3NotApplicable
from .featuremap import (
    KernelSpec,
    hidden_apply,
    hidden_init,
    kernel_gram,
    random_kernel_gram,
)
from .linsolve import solve_regularized
from .threshold import (
    THR1,
    THR2,
    THR3,
    Decisions,
    ThresholdSpec,
    apply_threshold,
    thr1_fit,
    thr2_fit,
    thr3_decide,
)

BOUNDARY = "boundary"
RECONSTRUCTION = "reconstruction"

DEFAULT_HIDDEN = 100


@dataclass
class OfflineModel:
    """Trained offline classifier; immutable once built, safe to score
    from many threads."""

    family: str
    mapping: KernelSpec
    rows: np.ndarray  # normalized training rows, N x n
    basis: np.ndarray  # rows, or their hidden activations H (N x m)
    beta: np.ndarray
    C: float
    tspec: ThresholdSpec
    thresh: float
    zstats: ZScoreStats
    train_errors: np.ndarray | None  # None once loaded (a file keeps only the cut) or scanned thr3


def targets(family: str, Xs: np.ndarray) -> np.ndarray:
    """Training outputs: a column of ones for boundary models, the
    normalized rows themselves for reconstruction models."""
    if family == BOUNDARY:
        return np.ones((Xs.shape[0], 1))
    return Xs


def _cross(mapping: KernelSpec, basis: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """Cross matrix K(Ys, training rows) of normalized rows Ys."""
    if mapping.kind == "random":
        return hidden_apply(mapping.layer, Ys) @ basis.T
    return kernel_gram(mapping, Ys, basis)


def row_errors(family: str, Xs: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Per-row base error of normalized rows Xs with outputs O: |o - 1| for
    boundary models, sum((x - o)^2) for reconstruction models."""
    if family == BOUNDARY:
        return np.abs(O.ravel() - 1.0)
    return ((Xs - O) ** 2).sum(axis=1)


def _compared(family: str, kind: str, base: np.ndarray) -> np.ndarray:
    # boundary thr2 cuts the squared deviation; every other rule the base
    return base**2 if family == BOUNDARY and kind == THR2 else base


def fit_threshold(
    family: str, tspec: ThresholdSpec, base: np.ndarray | None
) -> tuple[np.ndarray | None, float]:
    """The errors the threshold rule compares, which the model stores as
    its training errors, and the fitted cut (NAN for thr3, which decides
    per sample at score time and so takes base None as well)."""
    if family == BOUNDARY and tspec.kind == THR3:
        raise Thr3NotApplicable("thr3 needs per-feature outputs; boundary models have one")
    errors = _compared(family, tspec.kind, base)
    if tspec.kind == THR1:
        return errors, thr1_fit(errors, tspec.fracrej)
    if tspec.kind == THR2:
        return errors, thr2_fit(errors, tspec.std_mult)
    return errors, float("nan")


def decide(model, Xs: np.ndarray, O: np.ndarray) -> Decisions:
    """Decisions of an offline or finalized online model for normalized
    rows Xs and their outputs O; an output that overflowed to inf or NAN
    raises NonFiniteOutput instead of becoming a verdict."""
    require_finite(O, "the model output")
    tspec = model.tspec
    if tspec.kind == THR3:
        return thr3_decide(Xs, O, tspec.condn1, tspec.condn2_frac)
    base = row_errors(model.family, Xs, O)
    return apply_threshold(_compared(model.family, tspec.kind, base), model.thresh)


def normalized_rows(model, Y) -> np.ndarray:
    """Rows in the original feature space z-scored with the model's stats,
    which checks their feature count."""
    return zscore_apply(Dataset(as_rows(Y)), model.zstats).samples


def _feature_stage(
    family: str,
    Xs: np.ndarray,
    mapping: KernelSpec,
    tspec: ThresholdSpec,
    seed,
    zstats: ZScoreStats,
):
    """The one offline training path on normalized rows Xs. Builds the
    C-independent half once: the mapping (a random one gets its hidden
    layer drawn from seed), the basis and the Gram matrix Omega. Returns
    the mapping, the basis and fit(C, outputs=True), which solves and fits
    the threshold for one C."""
    if mapping.kind == "random":
        layer = mapping.layer
        if layer is None:
            layer = hidden_init(mapping.node_type, mapping.m or DEFAULT_HIDDEN, Xs.shape[1], seed)
        mapping = KernelSpec("random", layer=layer, m=layer.m, node_type=layer.node_type)
        basis = hidden_apply(layer, Xs)
        omega = random_kernel_gram(basis)
    else:
        basis, omega = Xs, kernel_gram(mapping, Xs, Xs)
    # LAPACK would print to stderr on an inf, once per C; min and max see
    # inf and NAN without the N x N temporary of np.isfinite
    if not np.isfinite([omega.min(), omega.max()]).all():
        require_finite(omega, "the Gram matrix")
    T = targets(family, Xs)

    def fit(C, outputs: bool = True) -> OfflineModel:
        # C-order so scoring is bitwise identical before and after save/load
        beta = np.ascontiguousarray(solve_regularized(omega, T, C))
        # thr3 reads no training errors: without outputs it forms none (train_errors None)
        base = row_errors(family, Xs, omega @ beta) if outputs or tspec.kind != THR3 else None
        errors, thresh = fit_threshold(family, tspec, base)
        return OfflineModel(
            family=family,
            mapping=mapping,
            rows=Xs,
            basis=basis,
            beta=beta,
            C=float(C),
            tspec=tspec,
            thresh=thresh,
            zstats=zstats,
            train_errors=errors,
        )

    return mapping, basis, fit


def _train(
    family: str,
    X,
    mapping: KernelSpec,
    C: float,
    tspec: ThresholdSpec,
    seed,
    zstats: ZScoreStats | None,
) -> OfflineModel:
    raw = as_rows(X)
    if zstats is None:
        zstats = identity_stats(raw.shape[1])
    Xs = zscore_apply(Dataset(raw), zstats).samples
    with np.errstate(all="ignore"):  # the solver judges
        _, _, fit = _feature_stage(family, Xs, mapping, tspec, seed, zstats)
        return fit(C)


def scan_c(
    family: str,
    Xs: np.ndarray,
    Ys: np.ndarray,
    mapping: KernelSpec,
    Cs,
    tspec: ThresholdSpec,
    seed,
) -> list[np.ndarray | None]:
    """The selection scan at one fold: per C, the is-target verdicts on rows
    Ys of a model trained on rows Xs, both normalized, or None if its fit
    raised one of FIT_FAILURES (not kept: it would pin its traceback's frames).
    Bit-identical to _train and score per C, in the caller or in a child
    select forked (modelsel.fork_map). Under thr3, whose cut is NAN by rule,
    it forms no training outputs (Omega @ beta) and no training errors; a
    boundary thr3 scan still raises Thr3NotApplicable."""
    zstats = identity_stats(Xs.shape[1])
    mapping, basis, fit = _feature_stage(family, Xs, mapping, tspec, seed, zstats)
    cross = _cross(mapping, basis, Ys)
    verdicts: list[np.ndarray | None] = []
    for C in Cs:
        try:
            model = fit(float(C), outputs=False)
            verdicts.append(decide(model, Ys, cross @ model.beta).is_target)
        except FIT_FAILURES:
            verdicts.append(None)
    return verdicts


def train_boundary(
    X,
    mapping: KernelSpec,
    C: float,
    tspec: ThresholdSpec,
    *,
    seed=0,
    zstats: ZScoreStats | None = None,
) -> OfflineModel:
    """Train a boundary model on target rows (constant output 1).

    Thr1 scores |o - 1|, Thr2 scores (o - 1)^2, both exactly as fitted at
    training time; thr3 is rejected for this family.
    """
    return _train(BOUNDARY, X, mapping, C, tspec, seed, zstats)


def train_reconstruction(
    X,
    mapping: KernelSpec,
    C: float,
    tspec: ThresholdSpec,
    *,
    seed=0,
    zstats: ZScoreStats | None = None,
) -> OfflineModel:
    """Train an autoassociative model on target rows (outputs reconstruct
    the normalized inputs); accepts any threshold kind."""
    return _train(RECONSTRUCTION, X, mapping, C, tspec, seed, zstats)


def score(model: OfflineModel, Y) -> Decisions:
    """Score rows given in the original (pre-normalization) feature space."""
    with np.errstate(all="ignore"):  # require_finite judges
        Ys = normalized_rows(model, Y)
        return decide(model, Ys, _cross(model.mapping, model.basis, Ys) @ model.beta)
