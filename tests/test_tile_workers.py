"""The row tiles of kernel_gram and hidden_apply run on one thread per CPU
in the process's affinity set. These tests pin what that must not change:
every output bit (on one CPU or many, from one caller or several), numpy's
error state, and a forked child's ability to score."""

import os
import signal
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli, run_code

from occelm.dataset import Dataset, write_csv
from occelm.featuremap import (
    ADDITIVE_SIGMOID,
    NODE_TYPES,
    TILE_CELLS,
    hidden_apply,
    hidden_init,
    kernel_gram,
    linear_kernel,
    polynomial_kernel,
    random_kernel,
    rbf_kernel,
    wavelet_kernel,
)
from occelm.offline import score, train_boundary, train_reconstruction
from occelm.threshold import ThresholdSpec

TESTS = Path(__file__).resolve().parent

KERNELS = {
    "rbf": rbf_kernel(1.3),
    "linear": linear_kernel(),
    "polynomial": polynomial_kernel(3, 1.0),
    "wavelet": wavelet_kernel(1.0, 1.5, 2.25),
}


def _edges(step: int) -> list[int]:
    """Row counts on the edges of a tile step: one tile short of full, one
    full tile, one row into the next, and several tiles plus one row."""
    return [step - 1, step, step + 1, 3 * step + 1]


def tiled_results() -> dict[str, np.ndarray]:
    """kernel_gram for the four explicit kernels and hidden_apply for both
    node types, at row counts on the tile edges; rows repeat."""
    rng = np.random.default_rng(11)
    B = rng.normal(0.0, 1.0, (300, 3))
    out = {}
    for name, spec in KERNELS.items():
        cells = B.size if name == "wavelet" else B.shape[0]
        for rows in _edges(TILE_CELLS // cells):
            A = rng.normal(0.0, 1.0, (rows, 3))
            A[rows // 2 :: 7] = B[0]
            out[f"kernel-{name}-{rows}"] = kernel_gram(spec, A, B)
    for node_type in NODE_TYPES:
        layer = hidden_init(node_type, 100, 3, seed=4)
        for rows in _edges(TILE_CELLS // layer.m):
            X = rng.normal(0.0, 2.0, (rows, 3))
            out[f"nodes-{node_type}-{rows}"] = hidden_apply(layer, X)
    return out


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestWorkerCount:
    """A process pinned to one CPU evaluates every tile on its own thread;
    its bits must be those of a process with a tile thread per CPU."""

    def test_kernels_and_activations_match_one_cpu(self, tmp_path):
        for one_cpu in (False, True):
            run_code(
                f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
                "import numpy as np; from test_tile_workers import tiled_results; "
                f"np.savez('{one_cpu}.npz', **tiled_results())",
                tmp_path,
                one_cpu,
            )
        with np.load(tmp_path / "False.npz") as many, np.load(tmp_path / "True.npz") as one:
            assert sorted(one.files) == sorted(many.files) and len(many.files) == 24
            for name in many.files:
                assert one[name].tobytes() == many[name].tobytes(), name

    @pytest.mark.parametrize(
        "train_flags",
        [
            ["ockelm_thr1"],
            ["aakelm_thr3", "--kernel", "wavelet"],
            ["ockelm_thr2", "--kernel", "polynomial"],
            ["ocelm_thr1_sig"],
            ["aaelm_thr3_rbf"],
        ],
        ids=lambda flags: "-".join(flags),
    )
    def test_score_stdout_matches_one_cpu(self, train_flags, tmp_path):
        rng = np.random.default_rng(5)
        write_csv(Dataset(rng.normal(0.0, 1.0, (300, 3))), str(tmp_path / "train.csv"))
        write_csv(Dataset(rng.normal(0.0, 1.5, (700, 3))), str(tmp_path / "probes.csv"))
        trained = run_cli(
            ["train", *train_flags, "train.csv", "--seed", "3", "-o", "m.occ"], tmp_path
        )
        assert trained.returncode == 0, trained.stderr
        score_cli = (
            "from occelm.cli import main; "
            "raise SystemExit(main(['score', 'm.occ', 'probes.csv']))"
        )
        many = run_code(score_cli, tmp_path, one_cpu=False)
        one = run_code(score_cli, tmp_path, one_cpu=True)
        assert len(many.stdout.splitlines()) == 701
        assert one.stdout == many.stdout


def _model_and_probes():
    rng = np.random.default_rng(8)
    model = train_reconstruction(
        rng.normal(0.0, 1.0, (400, 4)), rbf_kernel(2.0), 1.0, ThresholdSpec("thr3")
    )
    # 600 x 400 cross-matrix cells: four tiles
    return model, rng.normal(0.0, 1.5, (600, 4))


def _score_bytes(model, probes) -> bytes:
    decisions = score(model, probes)
    return b"".join(
        column.tobytes() for column in (decisions.is_target, decisions.score, decisions.thresh)
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_scores_with_the_parents_bits():
    """A child forked after the tile threads started has none of them;
    it must make its own instead of waiting on the parent's forever."""
    model, probes = _model_and_probes()
    expected = _score_bytes(model, probes)
    with warnings.catch_warnings():  # forking a threaded process on purpose
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: SIGALRM ends it if scoring hangs
        code = 1
        try:
            signal.alarm(30)
            code = 0 if _score_bytes(model, probes) == expected else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_numpy_error_state_holds_on_every_tile():
    """offline runs the Gram under np.errstate(all="ignore"); a tile on a
    pool thread must honour it as the caller's thread does, which holds
    since numpy 2.0 keeps the error state in a context variable (the
    pyproject floor)."""
    X = np.random.default_rng(2).normal(0.0, 30.0, (300, 3))
    assert TILE_CELLS // X.shape[0] < X.shape[0]  # several tiles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            K = kernel_gram(polynomial_kernel(400, 1.0), X, X)
    assert np.isinf(K[0]).any() and np.isinf(K[-1]).any()


def test_overflowing_tiled_gram_is_one_error_line(tmp_path):
    """The CLI's training Gram overflows on several tiles: one error line,
    no RuntimeWarning from a pool thread."""
    rows = np.random.default_rng(0).normal(0.0, 1.0, (300, 3))
    write_csv(Dataset(rows), str(tmp_path / "train.csv"))
    argv = ["train", "aakelm_thr1", "train.csv", "--kernel", "polynomial",
            "--kern-par", "400", "--seed", "1", "-o", "m.occ"]
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("kind", ["rbf kernel", "sigmoid nodes"])
def test_concurrent_callers_get_the_bits_of_a_lone_call(kind):
    """OfflineModel promises it can be scored from many threads: callers
    sharing the tile threads, more of them than CPUs and switching often,
    each get a lone call's bits, and all finish."""
    model, probes = _model_and_probes()
    if kind == "sigmoid nodes":
        layer = hidden_init(ADDITIVE_SIGMOID, 100, 4, seed=1)
        model = train_boundary(probes, random_kernel(layer=layer), 1.0, ThresholdSpec("thr1"))
        probes = np.concatenate([probes] * 3)  # 1800 x 100 activations: three tiles
    expected = _score_bytes(model, probes)
    callers = 2 * min(os.cpu_count() or 1, 8) + 1  # more callers than CPUs, up to 8
    start = threading.Barrier(callers)
    results: list[list[bytes]] = [[] for _ in range(callers)]

    def caller(k: int) -> None:
        start.wait()
        for _ in range(4):
            results[k].append(_score_bytes(model, probes))

    threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[expected] * 4] * callers

