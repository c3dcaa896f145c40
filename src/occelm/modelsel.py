"""Consistency-based hyperparameter selection.

A parameter combination is consistent when its cross-validated
target-rejection rate stays at or below the sigma_thr bound
    err_thr = fracrej + sigma_thr * sqrt(fracrej * (1 - fracrej) / M),
M being the validation-fold size. The full grid is scanned and the most
complex consistent combination wins: smallest sigma first (tighter
boundary), tie-broken by smallest C; grids without sigma prefer the widest
hidden layer. When nothing is consistent the minimum-rejection combination
is returned, flagged.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from .errors import AllPointsIdentical, OccelmError
from .offline import _rows

C_GRID: list[float] = [10.0**e for e in range(-8, 9)]

DEFAULT_SIGMA_COUNT = 20


def error_threshold(fracrej: float, sigma_thr: float, M: int) -> float:
    """Maximum tolerated target-rejection fraction for fold size M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 <= fracrej < 1.0:
        raise ValueError("fracrej must lie in [0, 1)")
    if sigma_thr < 0:
        raise ValueError("sigma_thr must be >= 0")
    return fracrej + sigma_thr * math.sqrt(fracrej * (1.0 - fracrej) / M)


def sigma_grid(X, count: int = DEFAULT_SIGMA_COUNT) -> np.ndarray:
    """Geometrically spaced kernel widths between the smallest and largest
    nonzero pairwise distances of the rows."""
    rows = _rows(X)
    if rows.shape[0] < 2:
        raise ValueError("sigma_grid needs at least 2 rows")
    if count < 2:
        raise ValueError("count must be >= 2")
    d = pdist(rows)
    d = d[d > 0]
    if d.size == 0:
        raise AllPointsIdentical("all rows coincide; no nonzero distance")
    return np.geomspace(d.min(), d.max(), count)


@dataclass
class SelectionConfig:
    """Grid-search settings; grids map parameter name to an ascending
    candidate list and are walked in insertion order."""

    grids: dict[str, list]
    folds: int = 5
    sigma_thr: float = 2.0
    fracrej: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.grids or any(len(v) == 0 for v in self.grids.values()):
            raise ValueError("every grid must be nonempty")
        if not 0.0 < self.fracrej < 1.0:
            raise ValueError("fracrej must lie in (0, 1)")


@dataclass
class GridPoint:
    params: dict
    rejection: float
    consistent: bool


@dataclass
class SelectionDiagnostics:
    err_thr: float
    fold_size: int
    points: list[GridPoint] = field(default_factory=list)
    chosen: dict | None = None
    consistent: bool = False


def _default_preference(grids: dict[str, list]) -> list[tuple[str, str]]:
    prefs: list[tuple[str, str]] = []
    if "sigma" in grids:
        prefs.append(("sigma", "min"))
    if "m" in grids:
        prefs.append(("m", "max"))
    if "C" in grids:
        prefs.append(("C", "min"))
    for name in grids:
        if name not in [p for p, _ in prefs]:
            prefs.append((name, "min"))
    return prefs


def _complexity_key(params: dict, prefs: list[tuple[str, str]]):
    return tuple(
        params[name] if direction == "min" else -params[name]
        for name, direction in prefs
        if name in params
    )


def _combos(grids: dict[str, list]):
    names = list(grids)
    for values in itertools.product(*(grids[k] for k in names)):
        yield dict(zip(names, values))


def fold_assignment(N: int, folds: int, rng_seed: int) -> np.ndarray:
    """Round-robin fold ids after a seeded shuffle; shared across the grid
    so comparisons stay paired."""
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(N)
    fold_of = np.empty(N, dtype=int)
    fold_of[perm] = np.arange(N) % folds
    return fold_of


def select(trainer, X, cfg: SelectionConfig) -> tuple[dict, SelectionDiagnostics]:
    """Scan the grid and pick the most complex consistent combination.

    trainer(params, train_rows) must return a predictor mapping validation
    rows to a boolean is-target array. Combinations whose training fails
    with a toolbox error record rejection NAN and are never selectable;
    if nothing is consistent the minimum-rejection combination is returned
    with diagnostics.consistent False.
    """
    rows = _rows(X)
    N = rows.shape[0]
    if N < cfg.folds:
        raise ValueError(f"need at least folds={cfg.folds} rows, got {N}")
    M = N // cfg.folds
    err_thr = error_threshold(cfg.fracrej, cfg.sigma_thr, M)
    fold_of = fold_assignment(N, cfg.folds, cfg.rng_seed)
    prefs = _default_preference(cfg.grids)

    diag = SelectionDiagnostics(err_thr=err_thr, fold_size=M)
    for params in _combos(cfg.grids):
        rejections = []
        try:
            for j in range(cfg.folds):
                val = rows[fold_of == j]
                train = rows[fold_of != j]
                predict = trainer(dict(params), train)
                is_target = np.asarray(predict(val), dtype=bool)
                rejections.append(1.0 - float(is_target.mean()))
            rejection = float(np.mean(rejections))
        except OccelmError:
            rejection = float("nan")
        consistent = (not math.isnan(rejection)) and rejection <= err_thr
        diag.points.append(GridPoint(dict(params), rejection, consistent))

    eligible = [p for p in diag.points if p.consistent]
    if eligible:
        best = min(eligible, key=lambda p: _complexity_key(p.params, prefs))
        diag.consistent = True
    else:
        scored = [p for p in diag.points if not math.isnan(p.rejection)]
        if not scored:
            raise OccelmError("every grid point failed to train")
        best = min(
            scored,
            key=lambda p: (p.rejection, _complexity_key(p.params, prefs)),
        )
        diag.consistent = False
    diag.chosen = dict(best.params)
    return dict(best.params), diag


def write_diagnostics(diag: SelectionDiagnostics, path: str) -> None:
    """One CSV row per grid point: parameters, fold-average rejection
    (NAN for failed points), and the consistency flag."""
    names = list(diag.points[0].params) if diag.points else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["rejection", "consistent"])
        for point in diag.points:
            rej = "NAN" if math.isnan(point.rejection) else f"{point.rejection:.17g}"
            writer.writerow(
                [f"{point.params[k]:.17g}" if isinstance(point.params[k], float)
                 else str(point.params[k]) for k in names]
                + [rej, "1" if point.consistent else "0"]
            )
