"""The three threshold criteria that turn per-sample errors into
accept/reject decisions.

thr1: reject the fracrej most erroneous training samples (descending sort,
1-based index round(fracrej*N) clamped to [1, N]).
thr2: mean + 0.2 * sample std of the training errors.
thr3 (reconstruction models only): per-feature relative error
|a - p| / |a + p| against condn1, accepting a sample when at most
condn2_frac of its features are badly reconstructed (inclusive tie).

Decisions use the strict rule: target iff score < thresh. thr3's inclusive
feature-count tie is the one documented exception. Both decision rules work
on whole batches and return a columnar Decisions value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import round_half_up
from .errors import BadArgument, DimensionMismatch, TooFewSamples

THR1 = "thr1"
THR2 = "thr2"
THR3 = "thr3"
THRESHOLD_KINDS = (THR1, THR2, THR3)

_SINGULAR_EPS = 1e-12


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold kind plus its parameters (unused fields keep defaults)."""

    kind: str
    fracrej: float = 0.1
    std_mult: float = 0.2
    condn1: float = 0.5
    condn2_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in THRESHOLD_KINDS:
            raise BadArgument(f"kind must be one of {THRESHOLD_KINDS}")
        if not 0.0 <= self.fracrej < 1.0:
            raise BadArgument("fracrej must lie in [0, 1)")


@dataclass(frozen=True)
class Decision:
    """One sample's outcome: anomaly score, the cut applied, and the
    verdict. Only Decisions.__iter__ builds them, for perfbench, whose
    batch scoring extends a list with each batch and reads d.score."""

    is_target: bool
    score: float
    thresh: float


@dataclass(frozen=True, eq=False)
class Decisions:
    """Outcomes of a batch of samples as three equal-length arrays, read
    by column; iteration gives one Decision per sample."""

    is_target: np.ndarray
    score: np.ndarray
    thresh: np.ndarray

    def __len__(self) -> int:
        return self.score.shape[0]

    def __iter__(self):
        return map(
            Decision,
            self.is_target.tolist(),
            self.score.tolist(),
            self.thresh.tolist(),
        )


def thr1_fit(errors: np.ndarray, fracrej: float) -> float:
    """Quantile threshold: the round(fracrej*N)-th largest training error."""
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size == 0:
        raise TooFewSamples("thr1_fit needs at least one error")
    if not 0.0 <= fracrej < 1.0:
        raise BadArgument("fracrej must lie in [0, 1)")
    index = round_half_up(fracrej * errors.size)
    at = errors.size - min(max(index, 1), errors.size)  # ascending, NAN last
    return float(np.partition(errors, at)[at])


def thr2_fit(errors: np.ndarray, std_mult: float = 0.2) -> float:
    """Mean plus std_mult sample standard deviations of the errors."""
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size < 2:
        raise TooFewSamples("thr2_fit needs at least 2 errors for a sample std")
    return float(errors.mean() + std_mult * errors.std(ddof=1))


def relative_errors(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Elementwise |a - p| / |a + p| with the singular denominator mapped
    to 0 for exact agreement and 1 otherwise; the shape is kept."""
    actual = np.atleast_1d(np.asarray(actual, dtype=float))
    predicted = np.atleast_1d(np.asarray(predicted, dtype=float))
    if actual.shape != predicted.shape:
        raise DimensionMismatch(f"shapes differ: {actual.shape} vs {predicted.shape}")
    num = np.abs(actual - predicted)
    den = np.abs(actual + predicted)
    err = np.where(num < _SINGULAR_EPS, 0.0, 1.0)
    return np.divide(num, den, out=err, where=den >= _SINGULAR_EPS)


def thr3_decide(
    actual: np.ndarray,
    predicted: np.ndarray,
    condn1: float = 0.5,
    condn2_frac: float = 0.1,
) -> Decisions:
    """Per-feature reconstruction rule, one verdict per row (a 1-D pair is
    one row): a feature is badly reconstructed when its relative error
    reaches condn1; the sample stays a target while at most condn2_frac of
    its features are bad (inclusive)."""
    err = relative_errors(np.atleast_2d(actual), np.atleast_2d(predicted))
    n = err.shape[1]
    if n < 1:
        raise DimensionMismatch("thr3_decide needs at least one feature")
    not_well = np.count_nonzero(err >= condn1, axis=1)
    return Decisions(
        is_target=not_well <= condn2_frac * n,
        score=not_well / n,
        thresh=np.full(not_well.shape, float(condn2_frac)),
    )


def apply_threshold(scores, thresh: float) -> Decisions:
    """Strict decision rule, one verdict per score: target iff
    score < thresh."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    return Decisions(
        is_target=scores < thresh,
        score=scores,
        thresh=np.full(scores.shape, float(thresh)),
    )
