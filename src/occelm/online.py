"""Online sequential one-class classifiers (boundary and reconstruction).

An OnlineModel is built from an initial chunk (os_init, which needs
N0 >= m), grown chunk-by-chunk with os_update, then closed with
os_finalize, which fits the threshold and freezes the model for scoring.
The sequential path is intentionally unregularized. The model keeps
every training row it has seen, so os_finalize fits the threshold on all
of them under the final weights.

Errors, threshold fitting and the columnar decisions are the offline
models' own (offline.row_errors, fit_threshold, decide).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, ZScoreStats, identity_stats, zscore_apply
from .errors import AlreadyFinalized, NotFinalized, TooFewSamples
from .featuremap import HiddenLayer, hidden_apply
from .linsolve import RlsState, rls_init, rls_update
from .offline import (
    BOUNDARY,
    RECONSTRUCTION,
    _rows,
    decide,
    fit_threshold,
    normalized_rows,
    row_errors,
    targets,
)
from .threshold import Decisions, ThresholdSpec

# unused here, kept importable: the benchmark tracer patches these names
from .threshold import apply_threshold, thr1_fit, thr2_fit, thr3_decide  # noqa: F401


@dataclass
class OnlineModel:
    """Sequentially trained classifier state.

    Single-writer: os_update/os_finalize mutate in place and must be
    serialized externally; once finalized the model is immutable and may
    be scored concurrently.
    """

    family: str
    layer: HiddenLayer
    rls: RlsState
    zstats: ZScoreStats
    seen_count: int
    n0: int
    block: int
    train_errors: np.ndarray = field(default_factory=lambda: np.empty(0))
    retained_rows: list[np.ndarray] = field(default_factory=list)
    tspec: ThresholdSpec | None = None
    thresh: float | None = None

    @property
    def finalized(self) -> bool:
        return self.tspec is not None

    @property
    def feature_count(self) -> int:
        return self.layer.n


def os_init(
    family: str,
    layer: HiddenLayer,
    X0,
    zstats: ZScoreStats | None = None,
    block: int | None = None,
) -> OnlineModel:
    """Initialization phase on the first chunk (N0 >= layer.m rows)."""
    if family not in (BOUNDARY, RECONSTRUCTION):
        raise ValueError(f"family must be {BOUNDARY!r} or {RECONSTRUCTION!r}")
    raw = _rows(X0)
    if zstats is None:
        zstats = identity_stats(raw.shape[1])
    Xs = zscore_apply(Dataset(raw), zstats).samples
    H0 = hidden_apply(layer, Xs)
    rls = rls_init(H0, targets(family, Xs))
    return OnlineModel(
        family=family,
        layer=layer,
        rls=rls,
        zstats=zstats,
        seen_count=Xs.shape[0],
        n0=Xs.shape[0],
        block=block or Xs.shape[0],
        retained_rows=[Xs],
    )


def os_update(model: OnlineModel, Xc) -> OnlineModel:
    """Sequential phase: fold one chunk (size >= 1) into the weights."""
    if model.finalized:
        raise AlreadyFinalized("no updates after finalize")
    Xs = normalized_rows(model, Xc)
    Hc = hidden_apply(model.layer, Xs)
    model.rls = rls_update(model.rls, Hc, targets(model.family, Xs))
    model.seen_count += Xs.shape[0]
    model.retained_rows.append(Xs)
    return model


def os_finalize(model: OnlineModel, tspec: ThresholdSpec) -> OnlineModel:
    """Fit the threshold on every retained row's error under the final
    weights and freeze the model."""
    if model.finalized:
        raise AlreadyFinalized("finalize may run once")
    if model.seen_count < 2:
        raise TooFewSamples("finalize needs at least 2 seen samples")
    Xs = np.vstack(model.retained_rows)
    O = hidden_apply(model.layer, Xs) @ model.rls.beta
    errors, model.thresh = fit_threshold(
        model.family, tspec, row_errors(model.family, Xs, O)
    )
    model.train_errors = errors
    model.tspec = tspec
    return model


def os_score(model: OnlineModel, Y) -> Decisions:
    """Score rows (original feature space) against the finalized model."""
    if not model.finalized:
        raise NotFinalized("call os_finalize before scoring")
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite judges
        Ys = normalized_rows(model, Y)
        return decide(model, Ys, hidden_apply(model.layer, Ys) @ model.rls.beta)
