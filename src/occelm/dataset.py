"""Dataset ingestion, artificial data generators, normalization, and splits.

A Dataset is a row-major float matrix with optional boolean target labels
(True = target, False = outlier). CSV files are UTF-8, with or without a
leading byte-order mark, and use comma separation with an optional header
line (auto-detected: the first line fails numeric parsing) and the label
tokens "+1"/"1"/"target" for targets, "-1"/"0"/"outlier" for outliers (word
tokens case-insensitive).

This module owns the text of every written table: value_text spells each
value, label_text each label, and write_table writes each CSV file.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgument,
    DimensionMismatch,
    MissingLabels,
    NonFiniteOutput,
    ParseError,
    TooFewSamples,
)

_TARGET_TOKENS = {"+1", "1", "target"}
_OUTLIER_TOKENS = {"-1", "0", "outlier"}


def round_half_up(x: float) -> int:
    """Round to nearest integer with halves going up (MATLAB-style)."""
    return int(math.floor(x + 0.5))


@dataclass
class Dataset:
    """N x n sample matrix with optional per-row target labels."""

    samples: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 2 or self.samples.size == 0:
            raise DimensionMismatch("samples must form a nonempty 2-D matrix")
        if not np.all(np.isfinite(self.samples)):
            raise BadArgument("samples contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (self.samples.shape[0],):
                raise DimensionMismatch(
                    f"labels length {self.labels.shape} does not match "
                    f"{self.samples.shape[0]} rows"
                )

    @property
    def sample_count(self) -> int:
        return self.samples.shape[0]

    @property
    def feature_count(self) -> int:
        return self.samples.shape[1]


def as_rows(X) -> np.ndarray:
    """A Dataset's samples, or X as a float matrix of at least 2 dimensions."""
    if isinstance(X, Dataset):
        return X.samples
    return np.atleast_2d(np.asarray(X, dtype=float))


@dataclass
class ZScoreStats:
    """Per-feature mean and sample standard deviation (ddof=1)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.std = np.asarray(self.std, dtype=float).ravel()
        if self.mean.shape != self.std.shape:
            raise DimensionMismatch("mean and std lengths differ")
        if np.any(self.std < 0):
            raise BadArgument("std entries must be >= 0")

    @property
    def feature_count(self) -> int:
        return self.mean.shape[0]


def identity_stats(n: int) -> ZScoreStats:
    """Stats under which zscore_apply is the identity map."""
    return ZScoreStats(np.zeros(n), np.ones(n))


def _parse_label(token: str, row: int) -> bool:
    raw = token.strip()
    key = raw.lower() if raw.lower() in ("target", "outlier") else raw
    if key in _TARGET_TOKENS:
        return True
    if key in _OUTLIER_TOKENS:
        return False
    raise ParseError(f"row {row}: unknown label token {raw!r}")


def load_csv(path: str, label_column: int | None = None) -> Dataset:
    """Read a CSV file into a Dataset.

    label_column, when given, is the 0-based index of the column mapped to
    target/outlier labels (negative indices count from the end). Header
    auto-detection: if any feature cell of the first line fails numeric
    parsing, the line is treated as column names.
    """
    try:  # the codec's and csv's own messages: bytes that are no UTF-8, a cell over 128 KiB
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            # each non-blank row with the number of the file line it ends on
            rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(str(exc)) from None
    if not rows:
        raise ParseError(f"{path}: no rows")

    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"{path}: line {lineno} has {len(row)} cells, expected {width}")
    label_idx = None
    if label_column is not None:
        label_idx = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_idx < width:
            raise DimensionMismatch(f"label column {label_column} outside 0..{width - 1}")

    feature_cols = [j for j in range(width) if j != label_idx]
    if not feature_cols:
        raise DimensionMismatch("no feature columns left after label removal")

    def numeric(row: list[str]) -> bool:
        for j in feature_cols:
            try:
                float(row[j])
            except ValueError:
                return False
        return True

    names = None
    if not numeric(rows[0][1]):
        names = [rows[0][1][j].strip() for j in feature_cols]
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: header only, no data rows")

    samples = np.empty((len(rows), len(feature_cols)))
    labels = np.empty(len(rows), dtype=bool) if label_idx is not None else None
    for i, (lineno, row) in enumerate(rows):
        for out_j, j in enumerate(feature_cols):
            try:
                value = float(row[j])
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: "
                    f"cannot parse {row[j]!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: line {lineno}, column {j + 1}: non-finite value")
            samples[i, out_j] = value
        if labels is not None:
            labels[i] = _parse_label(row[label_idx], lineno)
    return Dataset(samples, labels, names)


def value_text(value) -> str:
    """A value as written tables and model files spell it: str and int as
    they are, else a float of 17 significant digits (reading it keeps every bit)."""
    return str(value) if isinstance(value, (str, int)) else f"{float(value):.17g}"


def label_text(is_target) -> str:
    """A label as written tables spell it: +1 target, -1 outlier."""
    return "+1" if is_target else "-1"


def write_table(path: str | None, header: list[str] | None, rows) -> None:
    """Write header (none if None) and rows as CSV in the default dialect
    (CRLF line ends) to the file at path, or to stdout if path is None."""
    out = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with out as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def write_csv(data: Dataset, path: str) -> None:
    """Write a Dataset in the same CSV dialect load_csv reads.

    Labels, when present, become a trailing +1/-1 column, and floats keep
    every bit (value_text).
    """
    header = data.feature_names
    if header is not None and data.labels is not None:
        header = [*header, "label"]
    rows = ([value_text(v) for v in row] for row in data.samples)
    if data.labels is not None:
        rows = (row + [label_text(t)] for row, t in zip(rows, data.labels))
    write_table(path, header, rows)


def zscore_fit(train: Dataset) -> ZScoreStats:
    """Per-feature mean and sample std (ddof=1) of the training rows."""
    if train.sample_count < 2:
        raise TooFewSamples("zscore_fit needs at least 2 rows for a sample std")
    with np.errstate(all="ignore"):  # judged just below
        mean, std = train.samples.mean(axis=0), train.samples.std(axis=0, ddof=1)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise NonFiniteOutput("a feature's mean or sample std overflowed to inf")
    return ZScoreStats(mean, std)


def zscore_apply(data: Dataset, stats: ZScoreStats) -> Dataset:
    """Map each cell to (x - mean) / std; zero-std features map to 0. The
    one check of a model's rows against its feature count."""
    if data.feature_count != stats.feature_count:
        raise DimensionMismatch(
            f"rows have {data.feature_count} features, expected {stats.feature_count}"
        )
    safe = np.where(stats.std > 0, stats.std, 1.0)
    z = (data.samples - stats.mean) / safe
    z[:, stats.std == 0] = 0.0
    require_finite(z, "a z-scored value")
    return Dataset(z, data.labels, data.feature_names)


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise NonFiniteOutput naming the first row of computed values that
    holds an inf or NAN."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argwhere(~finite)[0, 0])
        raise NonFiniteOutput(f"row {row}: {what} overflowed to inf or nan")


def occ_split(data: Dataset, seed: int, run: int) -> tuple[Dataset, Dataset]:
    """One repeated-run split: a random half of the targets (rounded half
    up) for training, the rest plus all outliers for testing.

    The training half keeps no labels (one-class training); the test half
    keeps labels. Row selection depends only on (seed, run). data must
    carry labels, one outlier and at least 3 targets, so that the training
    half has the 2 rows z-scoring needs.
    """
    if data.labels is None:
        raise MissingLabels("benchmarking needs labeled data")
    target_idx = np.flatnonzero(data.labels)
    outlier_idx = np.flatnonzero(~data.labels)
    if outlier_idx.size == 0:
        raise TooFewSamples("benchmarking needs at least one outlier row")
    if target_idx.size < 3:
        raise TooFewSamples(
            "benchmarking needs at least 3 target rows: each run trains on "
            "half of them, and z-scoring needs 2"
        )

    k = round_half_up(0.5 * target_idx.size)
    perm = np.random.default_rng([seed, run]).permutation(target_idx.size)
    chosen = np.sort(target_idx[perm[:k]])
    rest = np.sort(target_idx[perm[k:]])

    train = Dataset(data.samples[chosen].copy(), None, data.feature_names)
    test_idx = np.sort(np.concatenate([rest, outlier_idx]))
    test = Dataset(
        data.samples[test_idx].copy(),
        data.labels[test_idx].copy(),
        data.feature_names,
    )
    return train, test


def _check_noise_std(noise_std: float) -> None:
    # NAN fails every comparison, so it would pass a plain `< 0` check
    if not 0 <= noise_std < math.inf:
        raise BadArgument(
            "noise_std must be >= 0" if noise_std < 0 else "noise_std must be finite"
        )


def _drawn(pts: np.ndarray, noise_std: float) -> Dataset:
    if not np.isfinite(pts).all():  # Dataset would refuse them naming no parameter
        raise BadArgument(f"noise_std {noise_std:g} makes the drawn rows overflow")
    return Dataset(pts, None, ["x", "y"])


def gen_banana(count: int, noise_std: float = 1.0, seed: int = 0) -> Dataset:
    """Banana-shaped 2-D data: a half-annulus arc of radius 5 with angles
    uniform in [-pi/2, pi/2], plus isotropic Gaussian noise."""
    if count < 1:
        raise BadArgument("count must be >= 1")
    _check_noise_std(noise_std)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi / 2, np.pi / 2, count)
    pts = np.column_stack([5.0 * np.cos(theta), 5.0 * np.sin(theta)])
    pts += rng.normal(0.0, noise_std, (count, 2)) if noise_std > 0 else 0.0
    return _drawn(pts, noise_std)


def gen_ring(
    count: int, radius: float = 1.0, noise_std: float = 0.1, seed: int = 0
) -> Dataset:
    """Ring-shaped 2-D data: angles uniform in [0, 2*pi), radii
    radius + Normal(0, noise_std)."""
    if count < 1:
        raise BadArgument("count must be >= 1")
    if not 0 < radius < math.inf:
        raise BadArgument("radius must be > 0" if radius <= 0 else "radius must be finite")
    _check_noise_std(noise_std)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    with np.errstate(over="ignore"):  # _drawn judges
        r = radius + (rng.normal(0.0, noise_std, count) if noise_std > 0 else 0.0)
    return _drawn(np.column_stack([r * np.cos(theta), r * np.sin(theta)]), noise_std)
