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
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from .errors import AllPointsIdentical, OccelmError
from .featuremap import cpu_count
from .offline import _rows

C_GRID: list[float] = [10.0**e for e in range(-8, 9)]

DEFAULT_SIGMA_COUNT = 20


def error_threshold(fracrej: float, sigma_thr: float, M: int) -> float:
    """Maximum tolerated target-rejection fraction for fold size M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 <= fracrej < 1.0:
        raise ValueError("fracrej must lie in [0, 1)")
    if not 0.0 <= sigma_thr < math.inf:  # NAN fails this too
        raise ValueError(
            "sigma_thr must be >= 0" if sigma_thr < 0 else "sigma_thr must be finite"
        )
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
class GridPoint:
    params: dict
    rejection: float
    consistent: bool


@dataclass
class SelectionDiagnostics:
    err_thr: float
    fold_size: int
    points: list[GridPoint] = field(default_factory=list)
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


def _scan_share(scan, groups, Cs, splits, share):
    """(index, {C: mean fold rejection, NAN once a fit failed}, None) for
    each group of share in order; a group that raises ends it with (index,
    None, error). C is None without a C grid."""
    for i in share:
        runs = {C: [] for C in Cs or [None]}  # per-fold rejections or None
        try:
            for fold in splits:
                alive = [C for C, r in runs.items() if r is not None]
                if not alive:
                    break
                try:
                    verdicts = scan({**groups[i], "C": alive} if Cs else dict(groups[i]), fold)
                except OccelmError:
                    verdicts = [None] * len(alive)
                for C, is_target in zip(alive, verdicts, strict=True):
                    if is_target is None:
                        runs[C] = None
                    else:
                        runs[C].append(1.0 - float(np.asarray(is_target, bool).mean()))
        except Exception as exc:  # _scan_groups raises it, in grid order
            yield i, None, exc
            return
        yield i, {C: math.nan if r is None else float(np.mean(r)) for C, r in runs.items()}, None


def _portable(record) -> bytes:
    """The pickled record; its error becomes a RuntimeError naming its class
    and message when pickle cannot send or rebuild it."""
    try:
        pickle.loads(data := pickle.dumps(record))
        return data
    except Exception:
        i, _, exc = record
        return pickle.dumps((i, None, RuntimeError(f"{type(exc).__qualname__}: {exc}")))


def _scan_groups(scan, groups: list[dict], Cs, splits) -> list[dict]:
    """Each group's rejections (_scan_share): the caller scans every k-th
    group, and a forked child per further CPU one share each (the caller
    runs a share whose fork fails). The first group in grid order that
    raised raises here; every child is reaped before this returns."""
    workers = min(cpu_count(), len(groups)) if hasattr(os, "fork") else 1
    mine, children, done, errors = list(range(0, len(groups), workers)), [], {}, {}
    try:
        for k in range(1, workers):
            share, (read_fd, write_fd) = range(k, len(groups), workers), os.pipe()
            try:
                with warnings.catch_warnings():  # Python 3.12+ warns when a threaded process forks
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                mine += share
                continue
            if pid == 0:  # pickle the records, leave without flushing inherited buffers
                try:
                    with open(write_fd, "wb") as out:
                        for record in _scan_share(scan, groups, Cs, splits, share):
                            out.write(_portable(record))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        for i, rejections, exc in _scan_share(scan, groups, Cs, splits, sorted(mine)):
            done[i] = rejections
            errors.update({i: exc} if exc is not None else {})
        for pid, reader, share in children:
            for i in share:
                if errors and i > min(errors):
                    break  # an earlier group raised; the child is killed below
                try:
                    _, done[i], exc = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(
                        f"selection worker {pid} sent no result for group {i}"
                    ) from None
                errors.update({i: exc} if exc is not None else {})
        if errors:
            raise errors[min(errors)]
        return [done[i] for i in range(len(groups))]
    finally:
        for pid, reader, _ in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def select(
    scan, X, grids: dict[str, list], *, folds: int, sigma_thr: float,
    fracrej: float, seed,
) -> tuple[dict, SelectionDiagnostics]:
    """Scan the grid and pick the most complex consistent combination.

    grids map each parameter name to an ascending candidate list and are
    walked in insertion order. The rows X are dealt into folds by
    fold_assignment(N, folds, seed); fracrej, in (0, 1), and sigma_thr set
    the consistency bound (error_threshold). The arguments are checked
    before the first scan call.

    For each combination of the non-C grid values and each fold, calls
    scan(params, (train_rows, val_rows)) once; params["C"] lists the C
    values not yet failed (absent when the grid has no C). scan returns per
    C, in order, the is-target array of the validation rows or None for a
    fit that failed with a toolbox error (one item without C); an
    OccelmError from scan fails every C of the call. A failed C records
    rejection NAN, is not fitted again and is never selectable; if nothing
    is consistent the minimum-rejection combination is returned with
    diagnostics.consistent False.

    scan may run in a forked child (_scan_groups): only its return value
    reaches select. The result does not depend on the CPU count.
    """
    check_folds(folds)
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ValueError("every grid must be nonempty")
    if not 0.0 < fracrej < 1.0:
        raise ValueError("fracrej must lie in (0, 1)")
    rows = _rows(X)
    N = rows.shape[0]
    if N < folds:
        raise ValueError(f"need at least folds={folds} rows, got {N}")
    M = N // folds
    err_thr = error_threshold(fracrej, sigma_thr, M)
    fold_of = fold_assignment(N, folds, seed)
    splits = [(rows[fold_of != j], rows[fold_of == j]) for j in range(folds)]
    prefs = _default_preference(grids)

    Cs = grids.get("C")
    groups = list(_combos({k: v for k, v in grids.items() if k != "C"}))
    found = _scan_groups(scan, groups, Cs, splits)
    rejection = {tuple(g.values()): rejections for g, rejections in zip(groups, found)}

    diag = SelectionDiagnostics(err_thr=err_thr, fold_size=M)
    for params in _combos(grids):
        group = tuple(v for k, v in params.items() if k != "C")
        rej = rejection[group][params.get("C")]
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
    return dict(best.params), diag


def param_text(value) -> str:
    """A parameter value as `param` lines and .sel.csv cells write it."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_diagnostics(diag: SelectionDiagnostics, path: str) -> None:
    """One CSV row per grid point: parameters, fold-average rejection
    (NAN for failed points), and the consistency flag."""
    names = list(diag.points[0].params) if diag.points else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["rejection", "consistent"])
        for point in diag.points:
            rej = "NAN" if math.isnan(point.rejection) else f"{point.rejection:.17g}"
            cells = [param_text(point.params[k]) for k in names]
            writer.writerow(cells + [rej, "1" if point.consistent else "0"])
