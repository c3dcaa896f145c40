"""Span recorder for the traced benchmark run.

A span is a named interval with the id of the span that was open when it
started, so nesting gives each layer's self time: its duration minus the
time its direct children cover. Spans live in flat in-memory arrays and are
written to disk once, at the end of the run.

Spans are recorded from the benchmark's side only: `traced()` replaces each
public occelm function at the module attribute where its caller looks it up
(e.g. `occelm.offline.solve_regularized`, `occelm.bench.score`) with a timing
wrapper, and puts the originals back on exit. The program itself carries no
tracing code, so the untraced run measures it unmodified.
"""

from __future__ import annotations

import math
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import occelm.bench
import occelm.cli
import occelm.dataset
import occelm.modelio
import occelm.modelsel
import occelm.offline
import occelm.online

CYCLE = "cycle"


class Recorder:
    """Flat span store plus per-cycle counters.

    Single-threaded by design: the benchmark drives the program from one
    thread, so a plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.roots: list[int] = []
        self.counts: list[dict[str, int]] = []
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def add(self, key: str, n: int) -> None:
        counts = self.counts[-1]
        counts[key] = counts.get(key, 0) + int(n)

    @contextmanager
    def cycle(self):
        """Root span for one workload cycle; counters restart with it."""
        self.counts.append({})
        sid = self.open(self.name_id(CYCLE))
        self.roots.append(sid)
        try:
            yield
        finally:
            self.close(sid)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name, parent, dur

    def per_cycle(self) -> list[dict[str, tuple[float, int]]]:
        """For each cycle: span name -> (summed self seconds, span count)."""
        name, parent, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        cycle_of = np.searchsorted(self.roots, np.arange(dur.size), side="right") - 1
        out = []
        for r in range(len(self.roots)):
            mine = cycle_of == r
            secs = np.bincount(name[mine], weights=own[mine], minlength=len(self.names))
            calls = np.bincount(name[mine], minlength=len(self.names))
            out.append(
                {n: (float(secs[i]), int(calls[i])) for i, n in enumerate(self.names)}
            )
        return out

    def durations(self, span: str) -> np.ndarray:
        """Wall durations of every span with this name, in seconds."""
        name, _, dur = self._arrays()
        if span not in self._ids:
            return np.empty(0)
        return dur[name == self._ids[span]]

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            roots=np.array(self.roots, dtype=np.int64),
        )


def _nrows(x) -> int:
    if isinstance(x, occelm.dataset.Dataset):
        return x.sample_count
    return np.atleast_2d(np.asarray(x)).shape[0]


def _count_cells(rec, args, out):
    rec.add("featuremap.kernel_gram_cells", _nrows(args[1]) * _nrows(args[2]))
    return out


def _count_random_cells(rec, args, out):
    rec.add("featuremap.kernel_gram_cells", _nrows(args[0]) ** 2)
    return out


def _count_solve_rows(rec, args, out):
    rec.add("linsolve.solve_rows", _nrows(args[0]))
    return out


def _count_score_rows(rec, args, out):
    rec.add("offline.score_rows", _nrows(args[1]))
    return out


def _count_points(rec, args, out):
    _, diag = out
    rec.add("modelsel.points", len(diag.points))
    rec.add("modelsel.points_failed", sum(math.isnan(p.rejection) for p in diag.points))
    rec.add("modelsel.points_consistent", sum(p.consistent for p in diag.points))
    return out


def _count_bytes(rec, args, out):
    rec.add("modelio.model_bytes", os.path.getsize(args[1]))
    return out


def _count_trainer(rec, args, trainer):
    def counted(params, rows):
        rec.add("modelsel.trainer_calls", 1)
        return trainer(params, rows)

    return counted


# (module, attribute, span name or None for count-only, post-call hook)
SITES = [
    (occelm.cli, "main", "cli.main", None),
    (occelm.cli, "run_benchmark", "bench.run_benchmark", None),
    (occelm.cli, "load_csv", "dataset.load_csv", None),
    (occelm.bench, "occ_split", "dataset.split", None),
    (occelm.bench, "zscore_fit", "dataset.zscore", None),
    (occelm.bench, "zscore_apply", "dataset.zscore", None),
    (occelm.dataset, "zscore_fit", "dataset.zscore", None),
    (occelm.offline, "zscore_apply", "dataset.zscore", None),
    (occelm.online, "zscore_apply", "dataset.zscore", None),
    (occelm.bench, "confuse", "metrics.confuse", None),
    (occelm.modelsel, "select", "modelsel.select", _count_points),
    (occelm.bench, "_fold_trainer", None, _count_trainer),
    (occelm.bench, "train_boundary", "offline.train", None),
    (occelm.bench, "train_reconstruction", "offline.train", None),
    (occelm.offline, "train_boundary", "offline.train", None),
    (occelm.offline, "train_reconstruction", "offline.train", None),
    (occelm.bench, "score", "offline.score", _count_score_rows),
    (occelm.offline, "score", "offline.score", _count_score_rows),
    (occelm.offline, "kernel_gram", "featuremap.kernel_gram", _count_cells),
    (occelm.offline, "random_kernel_gram", "featuremap.kernel_gram", _count_random_cells),
    (occelm.offline, "hidden_apply", "featuremap.hidden_apply", None),
    (occelm.online, "hidden_apply", "featuremap.hidden_apply", None),
    (occelm.offline, "solve_regularized", "linsolve.solve", _count_solve_rows),
    (occelm.online, "rls_update", "linsolve.rls_update", None),
    (occelm.offline, "apply_threshold", "threshold.decide", None),
    (occelm.offline, "thr3_decide", "threshold.decide", None),
    (occelm.online, "apply_threshold", "threshold.decide", None),
    (occelm.online, "thr3_decide", "threshold.decide", None),
    (occelm.offline, "thr1_fit", "threshold.fit", None),
    (occelm.offline, "thr2_fit", "threshold.fit", None),
    (occelm.online, "thr1_fit", "threshold.fit", None),
    (occelm.online, "thr2_fit", "threshold.fit", None),
    (occelm.bench, "os_init", "online.os_init", None),
    (occelm.bench, "os_update", "online.os_update", None),
    (occelm.bench, "os_finalize", "online.os_finalize", None),
    (occelm.bench, "os_score", "online.os_score", None),
    (occelm.online, "os_init", "online.os_init", None),
    (occelm.online, "os_update", "online.os_update", None),
    (occelm.online, "os_finalize", "online.os_finalize", None),
    (occelm.online, "os_score", "online.os_score", None),
    (occelm.modelio, "save_model", "modelio.save", _count_bytes),
    (occelm.modelio, "load_model", "modelio.load", None),
]


def _wrap(rec: Recorder, fn, span: str | None, post):
    if span is None:

        def counted(*args, **kwargs):
            return post(rec, args, fn(*args, **kwargs))

        return counted
    nid = rec.name_id(span)

    def timed(*args, **kwargs):
        sid = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        return out if post is None else post(rec, args, out)

    return timed


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, span, post in SITES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(rec, original, span, post))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
