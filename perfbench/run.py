"""occelm benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload protocol_select --seed 3 --seconds 20 --trace 0

Inputs are generated from --seed (input seed = seed % 32, the seeds with
recorded reference values in expected.json). After set-up the workload
repeats its cycle in a closed loop for --seconds (at least two cycles), then
checks the outputs outside the timed region. With --trace 0 it reports the
end-to-end metrics, their timings scaled to a reference machine speed
(speed.py); with --trace 1 it alternates untraced and traced cycles
and reports per-layer self times and counts plus the tracing overhead. The
last stdout line is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload train_score --record

re-records expected.json for that workload (all 32 input seeds).

BLAS/OpenMP threads are pinned to THREADS before numpy loads. The program is
imported from ../src of this file and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

THREADS = 1  # fixed and never above nproc; one thread keeps timings steadier on shared hardware
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEED_CLASSES = 32
WORKLOAD_NAMES = ("protocol_select", "train_score", "online_stream")
SETUP_REPEATS = 5
MIN_CYCLES = 2

# per-layer self times, by span name; reported as "<span>_s"
SPAN_TIMES = (
    "cli.main",
    "bench.run_benchmark",
    "dataset.load_csv",
    "dataset.split",
    "dataset.zscore",
    "modelsel.select",
    "offline.train",
    "offline.score",
    "online.os_init",
    "online.os_update",
    "online.os_finalize",
    "online.os_score",
    "featuremap.kernel_gram",
    "featuremap.hidden_apply",
    "linsolve.solve",
    "linsolve.rls_update",
    "threshold.fit",
    "threshold.decide",
    "metrics.confuse",
    "modelio.save",
    "modelio.load",
)
# per-cycle span counts, by metric name
SPAN_CALLS = {
    "featuremap.hidden_apply_calls": "featuremap.hidden_apply",
    "linsolve.solve_calls": "linsolve.solve",
    "linsolve.rls_update_calls": "linsolve.rls_update",
    "threshold.decide_calls": "threshold.decide",
}
# per-cycle counters the wrappers add up
COUNTERS = (
    "modelsel.trainer_calls",
    "modelsel.points",
    "modelsel.points_failed",
    "modelsel.points_consistent",
    "featuremap.kernel_gram_cells",
    "linsolve.solve_rows",
    "offline.score_rows",
    "modelio.model_bytes",
)


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "occelm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": os.cpu_count(),
        "threads": THREADS,
    }


def _say(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:16s} {name:32s} {value:14.6g} {unit:8s} {note}")


def _timed_cycle(workload, ops):
    start = perf_counter()
    try:
        cycle = workload.cycle(ops)
    except Exception:
        traceback.print_exc()
        return None, perf_counter() - start
    return cycle, perf_counter() - start


def _layer_metrics(rec, ops, untraced_walls, traced_walls) -> dict:
    per_cycle = rec.per_cycle()
    out = {}
    for span in SPAN_TIMES:
        secs = [c.get(span, (0.0, 0))[0] for c in per_cycle]
        out[f"{span}_s"] = (statistics.median(secs), "s")
    counts = [
        {**{m: c.get(s, (0.0, 0))[1] for m, s in SPAN_CALLS.items()},
         **{k: extra.get(k, 0) for k in COUNTERS}}
        for c, extra in zip(per_cycle, rec.counts)
    ]
    for i, c in enumerate(counts[1:], start=1):
        ops.check(c == counts[0], f"traced cycle {i} counts differ from traced cycle 0")
    for name, value in counts[0].items():
        out[name] = (value, "count")
    updates = rec.durations("linsolve.rls_update")
    p98 = statistics.quantiles(updates, n=50)[-1] if len(updates) > 1 else 0.0
    out["linsolve.rls_update_ms.p98"] = (1e3 * p98, "ms")
    # each traced cycle runs right after an untraced one; pairing them
    # cancels most of the machine's slow speed drift
    overhead = statistics.median(t - u for t, u in zip(traced_walls, untraced_walls))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def record(name: str) -> int:
    import workloads

    table = {}
    workdir = OUT / f"record-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for seed in range(SEED_CLASSES):
            ops = workloads.Ops()
            w = workloads.WORKLOADS[name](seed, str(workdir))
            w.setup()
            cycles = [w.cycle(ops)]
            w.checks(cycles, ops)
            if ops.failed:
                print(f"seed {seed}: checks failed; nothing recorded", file=sys.stderr)
                return 1
            table[str(seed)] = w.observe(cycles)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected[name] = table
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def _measure(workload, ops, rec, seconds: float, trace_on: bool):
    """Closed loop of cycles for `seconds` (at least MIN_CYCLES untraced
    ones). With tracing on, each untraced cycle is followed by a traced
    one. Returns the finished cycles, both wall lists and the lost count."""
    import spans

    cycles, walls, lost = [], {False: [], True: []}, 0
    modes = (False, True) if trace_on else (False,)
    start = perf_counter()
    while len(walls[False]) < MIN_CYCLES or perf_counter() - start < seconds:
        for traced in modes:
            if traced:
                with spans.traced(rec), rec.cycle():
                    cycle, wall = _timed_cycle(workload, ops)
            else:
                cycle, wall = _timed_cycle(workload, ops)
            walls[traced].append(wall)
            if cycle is None:
                lost += 1
            else:
                cycles.append(cycle)
    return cycles, walls[False], walls[True], lost


def _check(workload, input_seed: int, cycles: list, ops) -> None:
    """Correctness checks, after the timed loop."""
    try:
        workload.checks(cycles, ops)
        observed = workload.observe(cycles)
    except Exception:
        traceback.print_exc()
        ops.check(False, "a correctness check raised")
        return
    expected = json.loads(EXPECTED.read_text()).get(workload.name, {})
    ops.check(
        observed == expected.get(str(input_seed)),
        f"outputs differ from those recorded for input seed {input_seed}: "
        f"{json.dumps(observed, sort_keys=True)}",
    )


def _import_occelm(meter) -> float:
    """Seconds to import occelm afresh: its own module code, with numpy and
    scipy already loaded. The last import stays in sys.modules."""
    for module in [m for m in sys.modules if m == "occelm" or m.startswith("occelm.")]:
        del sys.modules[module]
    mark = meter.mark() if meter else 0
    start = perf_counter()
    importlib.import_module("occelm")
    importlib.import_module("occelm.cli")
    secs = perf_counter() - start
    return secs * meter.factor(mark, secs) if meter else secs


def run(name: str, seed: int, seconds: float, trace_on: bool) -> int:
    import numpy  # noqa: F401  (the toolchain occelm uses: not counted in set-up)
    import scipy.linalg  # noqa: F401
    import scipy.spatial.distance  # noqa: F401

    import speed

    # the end-to-end run scales its timings to the reference speed; the
    # traced run reports raw per-layer times
    meter = None if trace_on else speed.Meter()
    import_s = statistics.median(_import_occelm(meter) for _ in range(SETUP_REPEATS))
    import occelm

    if Path(occelm.__file__).resolve().parent != (SRC / "occelm").resolve():
        print(f"occelm imported from {occelm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    input_seed = seed % SEED_CLASSES
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](input_seed, str(workdir))
        setup_ops = workloads.Ops(meter)
        setups = [setup_ops.call(workload.setup)[1] for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setups)

        ops = workloads.Ops(meter)
        rec = spans.Recorder()
        cycles, untraced, traced, lost = _measure(workload, ops, rec, seconds, trace_on)
        if cycles:
            _check(workload, input_seed, cycles, ops)
        ops.check(lost == 0, f"{lost} cycles raised")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        metrics, human = {}, []
        if trace_on:
            metrics = _layer_metrics(rec, ops, untraced, traced)
            rec.write(str(OUT / f"trace-{name}-seed{seed}.npz"))
        elif cycles:
            e2e, human = workload.e2e(cycles)
            metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **e2e}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"workload": name, "seed": seed, "input_seed": input_seed, **environment()}
    print(f"env {json.dumps(env, sort_keys=True)}")
    for label, value, unit, note in human:
        _say(name, label, value, unit, note)
    frac = ops.failed / max(ops.attempted, 1)
    _say(name, "fail_frac", frac, "1", f"{ops.failed} of {ops.attempted} operations")
    note = f"occelm import {import_s:.3f} s + set-up, medians of {SETUP_REPEATS}"
    _say(name, "setup_s", setup_s, "s", note)
    _say(name, "peak_rss_mb", peak_rss_mb, "MB")
    if meter:
        scale = ops.scaled_s / max(ops.raw_s, 1e-300)
        note = f"reference / measured speed over the timed calls; {len(meter.samples)} samples"
        _say(name, "speed_scale", scale, "1", note)
    counts = f"{len(untraced)} untraced, {len(traced)} traced; untraced walls"
    walls = " ".join(f"{w:.3f}" for w in untraced)
    _say(name, "cycles", len(untraced) + len(traced), "count", f"{counts} {walls}")
    for metric, (value, unit) in metrics.items():
        if metric not in ("setup_s", "peak_rss_mb"):
            _say(name, metric, value, unit)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="re-record expected.json for the workload"
    )
    args = parser.parse_args(argv)

    if not (SRC / "occelm" / "__init__.py").is_file():
        print(f"no occelm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    if args.record:
        return record(args.workload)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
