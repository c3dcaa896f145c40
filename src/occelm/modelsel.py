"""Consistency-based hyperparameter selection.

A parameter combination is consistent when its cross-validated
target-rejection rate stays at or below the sigma_thr bound
    err_thr = fracrej + sigma_thr * sqrt(fracrej * (1 - fracrej) / M),
M being the validation-fold size. A grid point is one combination of the
non-C values, in grid order, with one distinct C, C innermost and last.
The most complex consistent point wins, in its own parameter order: the
widest hidden layer m and the smallest of any other value (sigma, degree,
b_w: the tighter boundary), then the smallest C. When nothing is
consistent the minimum-rejection point is returned, flagged.

The scanner that select drives gets a whole list of C per call, so the
C-independent work (features, Gram and cross matrices) is done once per
combination of the other grid values and fold.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from .dataset import as_rows, value_text, write_table
from .errors import FIT_FAILURES, BadArgument, OccelmError, TooFewSamples
from .featuremap import cpu_count

C_GRID: list[float] = [10.0**e for e in range(-8, 9)]

DEFAULT_SIGMA_COUNT = 20


def error_threshold(fracrej: float, sigma_thr: float, M: int) -> float:
    """Maximum tolerated target-rejection fraction for fold size M."""
    if M < 1:
        raise BadArgument("M must be >= 1")
    if not 0.0 <= fracrej < 1.0:
        raise BadArgument("fracrej must lie in [0, 1)")
    if not 0.0 <= sigma_thr < math.inf:  # NAN fails this too
        raise BadArgument(
            "sigma_thr must be >= 0" if sigma_thr < 0 else "sigma_thr must be finite"
        )
    return fracrej + sigma_thr * math.sqrt(fracrej * (1.0 - fracrej) / M)


def nonzero_distances(X) -> tuple[np.ndarray, int, int]:
    """The rows' pdist buffer d, which callers may reorder, and the span
    [lo, hi) its nonzero distances take once d is sorted: the zeros sort
    first, the NAN last. TooFewSamples if the span is empty."""
    d = pdist(as_rows(X))
    hi = d.size - np.count_nonzero(np.isnan(d))
    lo = hi - np.count_nonzero(d > 0)
    if hi == lo:
        raise TooFewSamples("all rows coincide; no nonzero distance")
    return d, lo, hi


def sigma_grid(X, count: int = DEFAULT_SIGMA_COUNT) -> np.ndarray:
    """Geometrically spaced kernel widths between the smallest and largest
    nonzero pairwise distances of the rows."""
    rows = as_rows(X)
    if rows.shape[0] < 2:
        raise BadArgument("sigma_grid needs at least 2 rows")
    if count < 2:
        raise BadArgument("count must be >= 2")
    d = nonzero_distances(rows)[0]
    # a masked min, not a partition: faster at the few hundred rows selection sees
    low = d.min(where=d > 0, initial=np.inf)
    return np.geomspace(low, np.fmax.reduce(d), count)  # fmax skips the NAN


def check_folds(folds: int) -> None:
    """BadArgument unless there are at least 2 folds."""
    if folds < 2:
        raise BadArgument("folds must be >= 2")


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


def _preference(point: GridPoint) -> tuple:
    """The point's own parameter order, lowest first: m negated, so the widest wins."""
    return tuple(-v if k == "m" else v for k, v in point.params.items())


def fold_assignment(N: int, folds: int, rng_seed: int) -> np.ndarray:
    """Round-robin fold ids after a seeded shuffle; shared across the grid
    so comparisons stay paired."""
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(N)
    fold_of = np.empty(N, dtype=int)
    fold_of[perm] = np.arange(N) % folds
    return fold_of


def fork_map(fn, count: int) -> list:
    """[fn(i) for i in range(count)] on every CPU: the caller computes every
    k-th item, and a forked child per further CPU one share each, pickling
    its results in order up to an item that raises. The caller computes a
    share itself from its first missing record, so every error, the first in
    item order, is raised by its own call; every child is reaped before this
    returns. One CPU, at most one item or no os.fork runs the plain loop."""
    workers = min(cpu_count(), count) if hasattr(os, "fork") else 1
    if workers < 2:
        return [fn(i) for i in range(count)]
    children, done, errors = [], {}, {}

    def run(share):  # on the caller; an item's error waits for any earlier item's
        for i in share:
            try:
                done[i] = fn(i)
            except Exception as exc:
                errors[i] = exc
                return

    try:
        for k in range(1, workers):
            share, (read_fd, write_fd), pid = range(k, count, workers), os.pipe(), None
            # a failed fork leaves the pipe empty; Python 3.12+ warns when a threaded process forks
            with contextlib.suppress(OSError), warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # pickle the results, leave without flushing inherited buffers
                try:
                    with open(write_fd, "wb") as out:
                        for i in share:
                            pickle.dump(fn(i), out)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        run(range(0, count, workers))
        for _, reader, share in children:
            rest = range(0)
            for n, i in enumerate(share):
                if errors and i > min(errors):
                    break  # an earlier item raised; the child is killed below
                try:
                    done[i] = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # it raised, died or never forked
                    rest = share[n:]
                    break
            run(rest)  # outside the except, so no EOFError is chained to its error
        if errors:
            raise errors[min(errors)]
        return [done[i] for i in range(count)]
    finally:
        for pid, reader, _ in children:
            reader.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def select(
    scan, X, grids: dict[str, list], *, folds: int, sigma_thr: float,
    fracrej: float, seed,
) -> tuple[dict, SelectionDiagnostics]:
    """Scan the grid and pick the most complex consistent combination.

    grids map each parameter name to an ascending candidate list. The
    points are the groups of non-C values, in insertion order, times each
    distinct C: params {**group, "C": C}, C last wherever the grid lists
    it, or the group alone without a C grid. The rows X are dealt into
    folds by fold_assignment(N, folds, seed); fracrej, in (0, 1), and
    sigma_thr set the consistency bound (error_threshold). The arguments
    are checked before the first scan call.

    For each combination of the non-C grid values and each fold, calls
    scan(params, (train_rows, val_rows)) once; params["C"] lists the C
    values not yet failed (absent when the grid has no C). scan returns per
    C, in order, the is-target array of the validation rows or None for a
    fit that failed with one of FIT_FAILURES (one item without C); one that
    scan raises fails every C of the call, any other error ends select. A
    failed C records rejection NAN, is not fitted again and is never
    selectable; if nothing is consistent the minimum-rejection combination
    is returned with diagnostics.consistent False.

    scan may run in a forked child (fork_map, one item per group): only its
    return value reaches select, and an error it raises is raised again by
    the caller's own scan of that group. The result does not depend on the
    CPU count.
    """
    check_folds(folds)
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise BadArgument("every grid must be nonempty")
    if not 0.0 < fracrej < 1.0:
        raise BadArgument("fracrej must lie in (0, 1)")
    rows = as_rows(X)
    N = rows.shape[0]
    if N < folds:
        raise BadArgument(f"need at least folds={folds} rows, got {N}")
    M = N // folds
    err_thr = error_threshold(fracrej, sigma_thr, M)
    fold_of = fold_assignment(N, folds, seed)
    splits = [(rows[fold_of != j], rows[fold_of == j]) for j in range(folds)]

    Cs = grids.get("C")
    names = [k for k in grids if k != "C"]
    groups = [dict(zip(names, v)) for v in itertools.product(*(grids[k] for k in names))]

    def group_rejections(i: int) -> dict:  # {C: mean fold rejection, NAN once a fit failed}
        runs = {C: [] for C in Cs or [None]}  # per-fold rejections or None
        for fold in splits:
            alive = [C for C, r in runs.items() if r is not None]
            if not alive:
                break
            try:
                verdicts = scan({**groups[i], "C": alive} if Cs else dict(groups[i]), fold)
            except FIT_FAILURES:
                verdicts = [None] * len(alive)
            for C, is_target in zip(alive, verdicts, strict=True):
                if is_target is None:
                    runs[C] = None
                else:
                    runs[C].append(1.0 - float(np.asarray(is_target, bool).mean()))
        return {C: math.nan if r is None else float(np.mean(r)) for C, r in runs.items()}

    diag = SelectionDiagnostics(err_thr=err_thr, fold_size=M)
    for group, rejections in zip(groups, fork_map(group_rejections, len(groups))):
        for C, rej in rejections.items():  # NAN fails the bound
            diag.points.append(GridPoint({**group, "C": C} if Cs else group, rej, rej <= err_thr))

    eligible = [p for p in diag.points if p.consistent]
    scored = [p for p in diag.points if not math.isnan(p.rejection)]
    if not scored:
        raise OccelmError("every grid point failed to train")
    diag.consistent = bool(eligible)
    pool = eligible or scored  # the most complex consistent point, else the least rejecting
    best = min(pool, key=lambda p: (0.0 if p.consistent else p.rejection, _preference(p)))
    return dict(best.params), diag


def write_diagnostics(diag: SelectionDiagnostics, path: str) -> None:
    """One CSV row per grid point: parameters, fold-average rejection
    (NAN for failed points), and the consistency flag."""
    names = list(diag.points[0].params) if diag.points else []
    write_table(path, names + ["rejection", "consistent"], (
        [value_text(p.params[k]) for k in names]
        + ["NAN" if math.isnan(p.rejection) else value_text(p.rejection), int(p.consistent)]
        for p in diag.points
    ))
