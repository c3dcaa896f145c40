"""Offline one-class classifiers: boundary (constant-target) and
reconstruction (autoassociative) training plus scoring.

Training solves (Omega + I/C) beta = T on the Gram matrix of the training
rows; boundary models set T to a constant column R (default 1) and score
deviation from R, reconstruction models set T to the input itself and score
squared reconstruction error. Scoring unseen rows uses the cross matrix
K(test, train) @ beta, which requires storing the training basis (hidden
activations for the random mapping, raw rows for explicit kernels).

The per-row errors, the threshold fit and the columnar decision defined
here (row_errors, fit_threshold, decide) are shared with the online models
in online.py, so both model types score with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, ZScoreStats, identity_stats, zscore_apply
from .errors import DimensionMismatch, Thr3NotApplicable
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


def _rows(X) -> np.ndarray:
    if isinstance(X, Dataset):
        return X.samples
    return np.atleast_2d(np.asarray(X, dtype=float))


@dataclass
class OfflineModel:
    """Trained offline classifier; immutable once built, safe to score
    from many threads."""

    family: str
    mapping: KernelSpec
    basis: np.ndarray
    beta: np.ndarray
    C: float
    tspec: ThresholdSpec
    thresh: float
    R: float
    zstats: ZScoreStats
    train_errors: np.ndarray

    @property
    def feature_count(self) -> int:
        return self.zstats.feature_count


def targets(family: str, Xs: np.ndarray, R: float) -> np.ndarray:
    """Training outputs: a constant R column for boundary models, the
    normalized rows themselves for reconstruction models."""
    if family == BOUNDARY:
        return np.full((Xs.shape[0], 1), float(R))
    return Xs


def _materialize(
    mapping: KernelSpec, n: int, seed
) -> tuple[KernelSpec, np.ndarray | None]:
    """Concretize a random mapping's hidden layer; explicit kernels pass
    through unchanged."""
    if mapping.kind != "random":
        return mapping, None
    layer = mapping.layer
    if layer is None:
        layer = hidden_init(mapping.node_type, mapping.m or DEFAULT_HIDDEN, n, seed)
    elif layer.n != n:
        raise DimensionMismatch(
            f"layer expects {layer.n} features, data has {n}"
        )
    return KernelSpec("random", layer=layer, m=layer.m, node_type=layer.node_type), layer


def _gram_and_basis(
    mapping: KernelSpec, Xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if mapping.kind == "random":
        H = hidden_apply(mapping.layer, Xs)
        return random_kernel_gram(H), H
    return kernel_gram(mapping, Xs, Xs), Xs


def row_errors(family: str, Xs: np.ndarray, O: np.ndarray, R: float) -> np.ndarray:
    """Per-row base error of normalized rows Xs with outputs O: |o - R| for
    boundary models, sum((x - o)^2) for reconstruction models."""
    if family == BOUNDARY:
        return np.abs(O.ravel() - R)
    return ((Xs - O) ** 2).sum(axis=1)


def _compared(family: str, kind: str, base: np.ndarray) -> np.ndarray:
    # boundary thr2 cuts the squared deviation; every other rule the base
    return base**2 if family == BOUNDARY and kind == THR2 else base


def fit_threshold(
    family: str, tspec: ThresholdSpec, base: np.ndarray, fracrej: float | None
) -> tuple[np.ndarray, float]:
    """The errors the threshold rule compares and its fitted cut (NAN for
    thr3, which decides per sample at score time); fracrej None takes the
    spec's own."""
    errors = _compared(family, tspec.kind, base)
    if tspec.kind == THR1:
        return errors, thr1_fit(errors, tspec.fracrej if fracrej is None else fracrej)
    if tspec.kind == THR2:
        return errors, thr2_fit(errors, tspec.std_mult)
    return errors, float("nan")


def decide(model, Xs: np.ndarray, O: np.ndarray) -> Decisions:
    """Decisions of an offline or finalized online model for normalized
    rows Xs and their outputs O."""
    tspec = model.tspec
    if tspec.kind == THR3:
        return thr3_decide(Xs, O, tspec.condn1, tspec.condn2_frac)
    base = row_errors(model.family, Xs, O, model.R)
    return apply_threshold(_compared(model.family, tspec.kind, base), model.thresh)


def normalized_rows(model, Y) -> np.ndarray:
    """Rows in the original feature space, checked against the model's
    feature count and z-scored with its stats."""
    raw = _rows(Y)
    if raw.shape[1] != model.feature_count:
        raise DimensionMismatch(
            f"rows have {raw.shape[1]} features, model expects "
            f"{model.feature_count}"
        )
    return zscore_apply(Dataset(raw), model.zstats).samples


def _train(
    family: str,
    X,
    mapping: KernelSpec,
    C: float,
    tspec: ThresholdSpec,
    fracrej: float | None,
    seed,
    R: float,
    zstats: ZScoreStats | None,
) -> OfflineModel:
    raw = _rows(X)
    n = raw.shape[1]
    if zstats is None:
        zstats = identity_stats(n)
    Xs = zscore_apply(Dataset(raw), zstats).samples
    mapping, _ = _materialize(mapping, n, seed)
    omega, basis = _gram_and_basis(mapping, Xs)

    # C-order so scoring is bitwise identical before and after save/load
    beta = np.ascontiguousarray(solve_regularized(omega, targets(family, Xs, R), C))
    errors, thresh = fit_threshold(
        family, tspec, row_errors(family, Xs, omega @ beta, R), fracrej
    )
    return OfflineModel(
        family=family,
        mapping=mapping,
        basis=basis,
        beta=beta,
        C=float(C),
        tspec=tspec,
        thresh=thresh,
        R=float(R),
        zstats=zstats,
        train_errors=errors,
    )


def train_boundary(
    X,
    mapping: KernelSpec,
    C: float,
    tspec: ThresholdSpec,
    fracrej: float | None = None,
    seed=0,
    R: float = 1.0,
    zstats: ZScoreStats | None = None,
) -> OfflineModel:
    """Train a boundary model on target rows (constant output R).

    Thr1 scores |o - R|, Thr2 scores (o - R)^2, both exactly as fitted at
    training time; thr3 is rejected for this family.
    """
    if tspec.kind == THR3:
        raise Thr3NotApplicable(
            "thr3 needs per-feature outputs; boundary models have one"
        )
    return _train(BOUNDARY, X, mapping, C, tspec, fracrej, seed, R, zstats)


def train_reconstruction(
    X,
    mapping: KernelSpec,
    C: float,
    tspec: ThresholdSpec,
    fracrej: float | None = None,
    seed=0,
    zstats: ZScoreStats | None = None,
) -> OfflineModel:
    """Train an autoassociative model on target rows (outputs reconstruct
    the normalized inputs); accepts any threshold kind."""
    return _train(RECONSTRUCTION, X, mapping, C, tspec, fracrej, seed, 1.0, zstats)


def _cross_matrix(model: OfflineModel, Ys: np.ndarray) -> np.ndarray:
    if model.mapping.kind == "random":
        return hidden_apply(model.mapping.layer, Ys) @ model.basis.T
    return kernel_gram(model.mapping, Ys, model.basis)


def score(model: OfflineModel, Y) -> Decisions:
    """Score rows given in the original (pre-normalization) feature space."""
    Ys = normalized_rows(model, Y)
    return decide(model, Ys, _cross_matrix(model, Ys) @ model.beta)
