"""The three benchmark workloads: seeded inputs, one closed-loop cycle, the
end-to-end metrics over the cycles, and the correctness checks.

Every workload follows the same shape. `setup()` draws its inputs from the
input seed and warms up imports, BLAS and the first call of each code path.
`cycle(ops)` issues the program calls one after another (a closed loop from
one process: each call starts when the previous one returns) and times each
call on its own, so benchmark glue between calls stays out of the numbers.
`observe(cycles)` returns the values that must match those recorded in
expected.json, and `checks(cycles, ops)` runs the remaining correctness
checks. Both run after the timed loop.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import statistics
import sys
from contextlib import redirect_stderr
from time import perf_counter

import numpy as np

import occelm.bench
import occelm.cli
import occelm.dataset
import occelm.featuremap
import occelm.modelio
import occelm.offline
import occelm.online
from occelm.dataset import Dataset
from occelm.threshold import ThresholdSpec

FEATURES = 9
PROBES_PER_KIND = 10_000  # target-distribution probes, then as many far ones
SCORE_BATCH = 2_000  # rows per scoring call; bounds the cross matrix to 64 MB


class CallFailed(Exception):
    """A program call that returned an error code instead of raising."""


class Ops:
    """Operation accounting: every program call in the timed loop and
    every correctness check is one attempted operation; an exception, an
    error code or a failed check is one failed operation."""

    def __init__(self, meter=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.meter = meter
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def call(self, fn, *args, **kwargs):
        """Run one program call; return its result and its seconds, scaled
        to the reference speed when there is a meter (speed.py)."""
        self.attempted += 1
        mark = self.meter.mark() if self.meter else 0
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        secs = perf_counter() - start
        scaled = secs * self.meter.factor(mark, secs) if self.meter else secs
        self.raw_s += secs
        self.scaled_s += scaled
        return out, scaled

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _median(values) -> float:
    return float(statistics.median(values))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _mixture(rng: np.random.Generator):
    """A correlated Gaussian target distribution and a sampler for it plus
    a far-away one (shifted and widened), all in FEATURES dimensions."""
    mix = np.eye(FEATURES) + rng.normal(0.0, 0.4, (FEATURES, FEATURES))
    mean = rng.normal(0.0, 1.0, FEATURES)

    def target(k: int) -> np.ndarray:
        return rng.normal(0.0, 1.0, (k, FEATURES)) @ mix + mean

    def far(k: int) -> np.ndarray:
        return mean + 6.0 + rng.normal(0.0, 4.0, (k, FEATURES))

    return target, far


def _decision_arrays(decisions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.array([d.score for d in decisions]),
        np.array([d.is_target for d in decisions]),
        np.array([d.thresh for d in decisions]),
    )


def _same_bits(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _check_cycles_agree(cycles: list[dict], key: str, ops: Ops) -> None:
    for i, c in enumerate(cycles[1:], start=1):
        ops.check(c[key] == cycles[0][key], f"cycle {i}: {key} differ from cycle 0")


def _accepts(is_target: np.ndarray) -> list[int]:
    """Accepted counts among the target-distribution and the far probes."""
    return [
        int(is_target[:PROBES_PER_KIND].sum()),
        int(is_target[PROBES_PER_KIND:].sum()),
    ]


# --------------------------------------------------------------------------
# protocol_select: the paper's 20-run protocol with consistency selection


TABLE_TARGETS = 458
TABLE_OUTLIERS = 241
PROTOCOL_VARIANTS = ("aakelm_thr3", "ocelm_thr1")
PROTOCOL_RUNS = 20  # the CLI's default --runs: the paper's 20-run protocol


def write_table(seed: int, path: str) -> None:
    """A 699x9 stand-in for a tabular one-class benchmark: integer features
    1..10, 458 targets concentrated at low values and 241 outliers spread
    over the upper range, rows shuffled, label in the last column."""
    rng = np.random.default_rng([seed, 1])
    scale = rng.uniform(0.6, 2.0, FEATURES)
    targets = np.minimum(1 + np.floor(rng.exponential(scale, (TABLE_TARGETS, FEATURES))), 10)
    centre = rng.uniform(4.0, 8.0, FEATURES)
    outliers = np.clip(np.rint(rng.normal(centre, 2.5, (TABLE_OUTLIERS, FEATURES))), 1, 10)
    rows = np.vstack([targets, outliers]).astype(int)
    labels = ["+1"] * TABLE_TARGETS + ["-1"] * TABLE_OUTLIERS
    order = rng.permutation(len(labels))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j + 1}" for j in range(FEATURES)] + ["label"])
        for i in order:
            writer.writerow([str(v) for v in rows[i]] + [labels[i]])


def _cli(argv: list[str]) -> None:
    """occelm.cli.main in-process, its stderr (per-run timings) captured."""
    sink = io.StringIO()
    with redirect_stderr(sink):
        rc = occelm.cli.main(argv)
    if rc != 0:
        raise CallFailed(f"exit {rc}: {sink.getvalue().strip()}")


class ProtocolSelect:
    name = "protocol_select"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.table = os.path.join(workdir, "table.csv")

    def _bench_argv(self, variant: str, out: str, *extra: str) -> list[str]:
        return [
            "bench", variant, self.table, "--label-col", "-1",
            "--seed", str(self.seed), "-o", out, *extra,
        ]

    def setup(self) -> None:
        write_table(self.seed, self.table)
        warm = os.path.join(self.workdir, "warm.csv")
        for variant in PROTOCOL_VARIANTS:
            _cli(self._bench_argv(variant, warm, "--runs", "2"))

    def cycle(self, ops: Ops) -> dict:
        secs, files = {}, {}
        for variant in PROTOCOL_VARIANTS:
            out = os.path.join(self.workdir, f"report_{variant}.csv")
            _, secs[variant] = ops.call(_cli, self._bench_argv(variant, out, "--select"))
            files[variant] = {
                key: _sha256(out + suffix)
                for key, suffix in (("report", ""), ("runs", ".runs.csv"), ("sel", ".sel.csv"))
            }
            with open(out, newline="") as fh:
                header, row = list(csv.reader(fh))
            files[variant]["F1"] = row[header.index("F1")]
            files[variant]["AUC"] = row[header.index("AUC")]
        return {"secs": secs, "files": files, "wall": sum(secs.values())}

    def e2e(self, cycles: list[dict]) -> tuple[dict, list[tuple]]:
        walls = [c["wall"] for c in cycles]
        rows = len(PROTOCOL_VARIANTS) * (TABLE_TARGETS + TABLE_OUTLIERS)
        # per protocol run over both variants: a single variant's call
        # gives too few samples in a run to be steady
        runs = len(PROTOCOL_VARIANTS) * PROTOCOL_RUNS
        metrics = {
            "cycle_s": (_median(walls), "s"),
            "rows_per_s": (_median([rows / w for w in walls]), "rows/s"),
            "latency_ms": (1e3 * _median(walls) / runs, "ms"),
        }
        note = f"median of {len(cycles)} cycles"
        human = [("protocol_s", _median(walls), "s", f"both variants, {note}")]
        for variant in PROTOCOL_VARIANTS:
            per = _median([c["secs"][variant] for c in cycles])
            human.append((f"protocol_s.{variant}", per, "s", note))
        return metrics, human

    def observe(self, cycles: list[dict]) -> dict:
        """Report bytes and F1/AUC from the first cycle, plus the parameters
        selection chose. A separate one-run library call recovers those:
        selection happens on run 0 only, so they are the ones every run of
        the bench call used."""
        data = occelm.dataset.load_csv(self.table, -1)
        out = {}
        for variant in PROTOCOL_VARIANTS:
            result = occelm.bench.run_benchmark(
                data, variant, runs=1, seed=self.seed, select_params=True
            )
            chosen = {k: f"{v:.17g}" for k, v in sorted(result.run_params[0].items())}
            out[variant] = dict(cycles[0]["files"][variant], chosen=chosen)
        return out

    def checks(self, cycles: list[dict], ops: Ops) -> None:
        _check_cycles_agree(cycles, "files", ops)


# --------------------------------------------------------------------------
# train_score: offline training, save/load, and bulk scoring


TRAIN_SIZES = (229, 4000)
HIDDEN = 100
LOAD_REPEATS = 5  # loads per model per cycle, so load latency has enough samples
TRAIN_MODELS = (
    ("ockelm_thr1", occelm.offline.BOUNDARY, "rbf", "thr1"),
    ("aakelm_thr3", occelm.offline.RECONSTRUCTION, "rbf", "thr3"),
    ("ocelm_thr1", occelm.offline.BOUNDARY, "random", "thr1"),
)


def _train_offline(family: str, X: np.ndarray, mapping, tkind: str, seed):
    """Fit z-score stats on the training rows, then train (what
    `occelm train` does once the parameters are fixed)."""
    zstats = occelm.dataset.zscore_fit(Dataset(X))
    train = (
        occelm.offline.train_boundary
        if family == occelm.offline.BOUNDARY
        else occelm.offline.train_reconstruction
    )
    return train(X, mapping, 1.0, ThresholdSpec(tkind), seed=seed, zstats=zstats)


def _score_batches(scorer, model, probes: np.ndarray, ops: Ops):
    decisions, secs = [], 0.0
    for start in range(0, probes.shape[0], SCORE_BATCH):
        part, s = ops.call(scorer, model, probes[start : start + SCORE_BATCH])
        decisions += part
        secs += s
    return decisions, secs


class TrainScore:
    name = "train_score"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        target, far = _mixture(np.random.default_rng([self.seed, 2]))
        self.train = {n: target(n) for n in TRAIN_SIZES}
        self.probes = np.vstack([target(PROBES_PER_KIND), far(PROBES_PER_KIND)])
        self.mapping = {}
        for n, X in self.train.items():
            zstats = occelm.dataset.zscore_fit(Dataset(X))
            Xz = occelm.dataset.zscore_apply(Dataset(X), zstats).samples
            sigma = occelm.bench.median_pairwise(Xz)
            self.mapping[n, "rbf"] = occelm.featuremap.rbf_kernel(sigma)
            self.mapping[n, "random"] = occelm.featuremap.random_kernel(HIDDEN)
        path = os.path.join(self.workdir, "warm.occ")
        small = self.train[TRAIN_SIZES[0]]
        for kind, family, mapping, tkind in TRAIN_MODELS:
            model = _train_offline(
                family, small, self.mapping[TRAIN_SIZES[0], mapping], tkind, [self.seed, 0]
            )
            occelm.modelio.save_model(model, path)
            occelm.offline.score(occelm.modelio.load_model(path), self.probes[:100])

    def cycle(self, ops: Ops) -> dict:
        """One cycle; the models and loaded-model scores of the latest cycle
        stay in self.last for the save/load check."""
        secs, last = {}, {}
        for n in TRAIN_SIZES:
            for kind, family, mapping, tkind in TRAIN_MODELS:
                key = f"{kind}.n{n}"
                path = os.path.join(self.workdir, f"{key}.occ")
                model, t_train = ops.call(
                    _train_offline, family, self.train[n], self.mapping[n, mapping],
                    tkind, [self.seed, n],
                )
                _, t_save = ops.call(occelm.modelio.save_model, model, path)
                t_load = []
                for _ in range(LOAD_REPEATS):
                    loaded, t = ops.call(occelm.modelio.load_model, path)
                    t_load.append(t)
                decisions, t_score = _score_batches(
                    occelm.offline.score, loaded, self.probes, ops
                )
                secs[key] = {"train": t_train, "save": t_save, "load": t_load, "score": t_score}
                last[key] = (model, _decision_arrays(decisions))
        self.last = last
        wall = sum(s["train"] + s["save"] + sum(s["load"]) + s["score"] for s in secs.values())
        accepts = {key: _accepts(arrays[1]) for key, (_, arrays) in last.items()}
        return {"secs": secs, "accepts": accepts, "wall": wall}

    def _per_cycle(self, cycles, n: int, part: str) -> list[float]:
        return [
            sum(c["secs"][f"{kind}.n{n}"][part] for kind, *_ in TRAIN_MODELS)
            for c in cycles
        ]

    def e2e(self, cycles: list[dict]) -> tuple[dict, list[tuple]]:
        walls = [c["wall"] for c in cycles]
        scored = len(TRAIN_SIZES) * len(TRAIN_MODELS) * self.probes.shape[0]
        score_secs = [sum(s["score"] for s in c["secs"].values()) for c in cycles]
        # each model's median load over the whole run, summed over the models
        load_n4000 = sum(
            _median([t for c in cycles for t in c["secs"][f"{kind}.n4000"]["load"]])
            for kind, *_ in TRAIN_MODELS
        )
        metrics = {
            "cycle_s": (_median(walls), "s"),
            "rows_per_s": (_median([scored / s for s in score_secs]), "rows/s"),
            "latency_ms": (1e3 * load_n4000, "ms"),
        }
        note = f"3 models, median of {len(cycles)} cycles"
        per_n = scored // len(TRAIN_SIZES)
        human = []
        for n in TRAIN_SIZES:
            train = _median(self._per_cycle(cycles, n, "train"))
            rate = _median([per_n / s for s in self._per_cycle(cycles, n, "score")])
            human += [
                (f"train_s.n{n}", train, "s", note),
                (f"score_rows_per_s.n{n}", rate, "rows/s", note),
            ]
        save = _median(self._per_cycle(cycles, 4000, "save"))
        human += [
            ("load_ms.n4000", 1e3 * load_n4000, "ms", f"3 models, {LOAD_REPEATS} loads a cycle"),
            ("save_ms.n4000", 1e3 * save, "ms", note),
        ]
        return metrics, human

    def observe(self, cycles: list[dict]) -> dict:
        return cycles[0]["accepts"]

    def checks(self, cycles: list[dict], ops: Ops) -> None:
        _check_cycles_agree(cycles, "accepts", ops)
        for key, (model, loaded) in self.last.items():
            decisions, _ = _score_batches(occelm.offline.score, model, self.probes, Ops())
            ops.check(
                _same_bits(_decision_arrays(decisions), loaded),
                f"{key}: loaded model scores differ from the in-memory model",
            )


# --------------------------------------------------------------------------
# online_stream: sequential training over a long stream of small chunks


STREAM_INIT = 500
STREAM_ROWS = 100_000
STREAM_CHUNK = 20
STREAM_KEY = "os_aaelm_thr1"
BETA_TOLERANCE = 1e-7  # relative, as in the sequential-equals-batch criterion


def _os_init(layer, X0: np.ndarray):
    zstats = occelm.dataset.zscore_fit(Dataset(X0))
    return occelm.online.os_init(
        occelm.offline.RECONSTRUCTION, layer, X0, zstats=zstats, block=STREAM_CHUNK
    )


class OnlineStream:
    name = "online_stream"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        target, far = _mixture(np.random.default_rng([self.seed, 3]))
        self.init = target(STREAM_INIT)
        self.stream = target(STREAM_ROWS)
        self.probes = np.vstack([target(PROBES_PER_KIND), far(PROBES_PER_KIND)])
        self.layer = occelm.featuremap.hidden_init(
            occelm.featuremap.ADDITIVE_SIGMOID, HIDDEN, FEATURES, [self.seed, 3]
        )
        model = _os_init(self.layer, self.init)
        for start in range(0, 25 * STREAM_CHUNK, STREAM_CHUNK):
            occelm.online.os_update(model, self.stream[start : start + STREAM_CHUNK])
        occelm.online.os_finalize(model, ThresholdSpec("thr1"))
        path = os.path.join(self.workdir, "warm.occ")
        occelm.modelio.save_model(model, path)
        occelm.online.os_score(occelm.modelio.load_model(path), self.probes[:100])

    def cycle(self, ops: Ops) -> dict:
        model, t_init = ops.call(_os_init, self.layer, self.init)
        updates = []
        for start in range(0, STREAM_ROWS, STREAM_CHUNK):
            chunk = self.stream[start : start + STREAM_CHUNK]
            updates.append(ops.call(occelm.online.os_update, model, chunk)[1])
        _, t_final = ops.call(occelm.online.os_finalize, model, ThresholdSpec("thr1"))
        path = os.path.join(self.workdir, f"{STREAM_KEY}.occ")
        _, t_save = ops.call(occelm.modelio.save_model, model, path)
        loaded, t_load = ops.call(occelm.modelio.load_model, path)
        decisions, t_score = ops.call(occelm.online.os_score, loaded, self.probes)
        train = t_init + sum(updates) + t_final
        loaded_scores = _decision_arrays(decisions)
        self.last = (model, loaded_scores)
        return {
            "train": train,
            "updates": updates,
            "load": t_load,
            "score": t_score,
            "wall": train + t_save + t_load + t_score,
            "accepts": {STREAM_KEY: _accepts(loaded_scores[1])},
        }

    def e2e(self, cycles: list[dict]) -> tuple[dict, list[tuple]]:
        walls = [c["wall"] for c in cycles]
        rows = STREAM_INIT + STREAM_ROWS
        stream_rate = _median([rows / c["train"] for c in cycles])
        updates = np.array([s for c in cycles for s in c["updates"]])
        metrics = {
            "cycle_s": (_median(walls), "s"),
            "rows_per_s": (stream_rate, "rows/s"),
            "latency_ms": (1e3 * float(np.median(updates)), "ms"),
        }
        note = f"median of {len(cycles)} cycles"
        scored = self.probes.shape[0]
        # update percentiles are over every os_update call of the run
        human = [
            ("stream_rows_per_s", stream_rate, "rows/s", f"init+updates+finalize, {note}"),
            ("update_ms.p50", 1e3 * float(np.median(updates)), "ms", f"{updates.size}"),
            ("update_ms.p99", 1e3 * float(np.quantile(updates, 0.99)), "ms", f"{updates.size}"),
            ("load_ms", 1e3 * _median([c["load"] for c in cycles]), "ms", note),
            ("score_rows_per_s", _median([scored / c["score"] for c in cycles]), "rows/s", note),
        ]
        return metrics, human

    def observe(self, cycles: list[dict]) -> dict:
        return cycles[0]["accepts"]

    def checks(self, cycles: list[dict], ops: Ops) -> None:
        _check_cycles_agree(cycles, "accepts", ops)
        model, loaded = self.last
        memory = _decision_arrays(occelm.online.os_score(model, self.probes))
        ops.check(
            _same_bits(memory, loaded),
            "loaded model scores differ from the in-memory model",
        )
        # batch least squares over every streamed row: the sequential
        # solution must reproduce it
        rows = np.vstack([self.init, self.stream])
        zstats = occelm.dataset.zscore_fit(Dataset(self.init))
        Xs = occelm.dataset.zscore_apply(Dataset(rows), zstats).samples
        H = occelm.featuremap.hidden_apply(self.layer, Xs)
        direct, *_ = np.linalg.lstsq(H, Xs, rcond=None)
        beta = model.rls.beta
        rel = np.linalg.norm(beta - direct) / max(1e-300, np.linalg.norm(direct))
        ops.check(
            bool(rel <= BETA_TOLERANCE),
            f"sequential beta differs from batch least squares by {rel:.3e}",
        )


WORKLOADS = {w.name: w for w in (ProtocolSelect, TrainScore, OnlineStream)}
