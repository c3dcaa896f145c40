"""Consistency-based hyperparameter selection.

A parameter combination is consistent when its cross-validated
target-rejection rate stays at or below the sigma_thr bound
    err_thr = fracrej + sigma_thr * sqrt(fracrej * (1 - fracrej) / M),
M being the validation-fold size. The full grid is scanned and the most
complex consistent combination wins: every parameter but C first, in grid
order, the widest hidden layer m and the smallest of any other (sigma,
degree, b_w: the tighter boundary), then the smallest C. When nothing is
consistent the minimum-rejection combination is returned, flagged.

The scanner that select drives gets a whole list of C per call, so the
C-independent work (features, Gram and cross matrices) is done once per
combination of the other grid values and fold.
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


def nonzero_distances(X) -> np.ndarray:
    """The rows' nonzero pairwise distances; AllPointsIdentical if none."""
    d = pdist(_rows(X))
    d = d[d > 0]
    if d.size == 0:
        raise AllPointsIdentical("all rows coincide; no nonzero distance")
    return d


def sigma_grid(X, count: int = DEFAULT_SIGMA_COUNT) -> np.ndarray:
    """Geometrically spaced kernel widths between the smallest and largest
    nonzero pairwise distances of the rows."""
    rows = _rows(X)
    if rows.shape[0] < 2:
        raise ValueError("sigma_grid needs at least 2 rows")
    if count < 2:
        raise ValueError("count must be >= 2")
    d = nonzero_distances(rows)
    return np.geomspace(d.min(), d.max(), count)


def check_folds(folds: int) -> None:
    """ValueError unless there are at least 2 folds."""
    if folds < 2:
        raise ValueError("folds must be >= 2")


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
        check_folds(self.folds)
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
    # C last, the rest in grid order (a stable sort)
    names = sorted(grids, key=lambda name: name == "C")
    return [(name, "max" if name == "m" else "min") for name in names]


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


def select(scan, X, cfg: SelectionConfig) -> tuple[dict, SelectionDiagnostics]:
    """Scan the grid and pick the most complex consistent combination.

    For each combination of the non-C grid values and each fold, calls
    scan(params, (train_rows, val_rows)) once; params["C"] lists the C
    values not yet failed (absent when the grid has no C). scan returns per
    C, in order, the is-target array of the validation rows or None for a
    fit that failed with a toolbox error (one item without C); an
    OccelmError from scan fails every C of the call. A failed C records
    rejection NAN, is not fitted again and is never selectable; if nothing
    is consistent the minimum-rejection combination is returned with
    diagnostics.consistent False.
    """
    rows = _rows(X)
    N = rows.shape[0]
    if N < cfg.folds:
        raise ValueError(f"need at least folds={cfg.folds} rows, got {N}")
    M = N // cfg.folds
    err_thr = error_threshold(cfg.fracrej, cfg.sigma_thr, M)
    fold_of = fold_assignment(N, cfg.folds, cfg.rng_seed)
    folds = [(rows[fold_of != j], rows[fold_of == j]) for j in range(cfg.folds)]
    prefs = _default_preference(cfg.grids)

    Cs = cfg.grids.get("C")
    rejection = {}
    for group in _combos({k: v for k, v in cfg.grids.items() if k != "C"}):
        runs = {C: [] for C in Cs or [None]}  # per-fold rejections or None
        for fold in folds:
            alive = [C for C, r in runs.items() if r is not None]
            if not alive:
                break
            try:
                verdicts = scan({**group, "C": alive} if Cs else dict(group), fold)
            except OccelmError:
                verdicts = [None] * len(alive)
            for C, is_target in zip(alive, verdicts, strict=True):
                if is_target is None:
                    runs[C] = None
                else:
                    runs[C].append(1.0 - float(np.asarray(is_target, bool).mean()))
        for C, r in runs.items():
            rej = math.nan if r is None else float(np.mean(r))
            rejection[tuple(group.values()), C] = rej

    diag = SelectionDiagnostics(err_thr=err_thr, fold_size=M)
    for params in _combos(cfg.grids):
        group = tuple(v for k, v in params.items() if k != "C")
        rej = rejection[group, params.get("C")]
        consistent = (not math.isnan(rej)) and rej <= err_thr
        diag.points.append(GridPoint(params, rej, consistent))

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
