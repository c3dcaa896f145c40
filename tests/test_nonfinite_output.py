"""No silent NAN verdicts: finite rows whose model output overflows
(the polynomial kernel's (1 + x.y)^d, a linear kernel's K @ beta) raise
NonFiniteOutput, naming the first such row, and `occelm score` exits 1
instead of writing a `nan` score or a verdict built from one. Training
rows whose z-score stats overflow are refused the same way."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from occelm.bench import VARIANTS, default_params, fit, parse_variant, run_seed, score_model
from occelm.cli import main
from occelm.dataset import Dataset, write_csv, zscore_apply, zscore_fit
from occelm.errors import NonFiniteOutput, OccelmError
from occelm.featuremap import KERNEL_KINDS, NODE_TYPES
from occelm.offline import BOUNDARY, RECONSTRUCTION, decide
from occelm.threshold import ThresholdSpec

# magnitudes 1e154 to 3e307: finite, but their kernel values overflow
HUGE_ROWS = np.array(
    [
        [1e154, 1e154, 1e154],
        [1e200, -1e200, 1.0],
        [1e300, 1e300, -1e300],
        [3e307, -3e307, 0.0],
    ]
)


def _training_rows() -> np.ndarray:
    return np.random.default_rng(0).normal(0.0, 1.0, (60, 3))


@pytest.mark.parametrize("family", [BOUNDARY, RECONSTRUCTION])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decide_names_first_nonfinite_row(family, bad):
    model = SimpleNamespace(family=family, tspec=ThresholdSpec("thr1"), thresh=1.0)
    Xs = np.zeros((5, 3))
    O = np.zeros((5, 1 if family == BOUNDARY else 3))
    O[3, -1] = bad
    O[4, 0] = bad
    with pytest.raises(NonFiniteOutput, match=r"^row 3: "):
        decide(model, Xs, O)


@pytest.mark.parametrize(
    "vid, kernel",
    [
        ("ockelm_thr1", "polynomial"),
        ("aakelm_thr1", "polynomial"),
        ("aakelm_thr3", "polynomial"),
        ("ockelm_thr1", "linear"),
    ],
)
def test_score_command_exits_1(vid, kernel, tmp_path, capsys):
    train, probes = tmp_path / "train.csv", tmp_path / "probes.csv"
    model, out = tmp_path / "m.occ", tmp_path / "scores.csv"
    write_csv(Dataset(_training_rows()), str(train))
    write_csv(Dataset(HUGE_ROWS), str(probes))
    argv = ["train", vid, str(train), "--kernel", kernel, "--seed", "1"]
    assert main(argv + ["-o", str(model)]) == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = main(["score", str(model), str(probes), "-o", str(out)])
    assert code == 1
    assert "error: row " in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_overflowing_stats(tmp_path, capsys):
    """The rows' spread overflows the sample std: no model is written,
    where one with an inf zstd would be refused on load."""
    rows, model = tmp_path / "huge.csv", tmp_path / "m.occ"
    write_csv(Dataset(HUGE_ROWS), str(rows))
    argv = ["train", "ockelm_thr1", str(rows), "--kernel", "polynomial"]
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteOutput, match="mean or sample std"):
            zscore_fit(Dataset(HUGE_ROWS))
        assert main(argv + ["-o", str(model)]) == 1
    assert "error: a feature's mean or sample std" in capsys.readouterr().err
    assert not model.exists()


def test_overflow_reports_only_the_error_line(tmp_path):
    """In a fresh process, with numpy's default warning settings, the
    overflow reaches stderr as the one error line and no RuntimeWarning."""
    write_csv(Dataset(_training_rows()), str(tmp_path / "train.csv"))
    write_csv(Dataset(HUGE_ROWS), str(tmp_path / "huge.csv"))
    flags = ["--kernel", "polynomial", "--seed", "1"]
    argv = ["train", "ockelm_thr1", "train.csv", *flags, "-o", "m.occ"]
    trained = run_cli(argv, tmp_path)
    assert trained.returncode == 0, trained.stderr
    for argv in (
        ["score", "m.occ", "huge.csv"],
        ["train", "ockelm_thr1", "huge.csv", *flags, "-o", "huge.occ"],
    ):
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("vid", ["aakelm_thr1", "os_aaelm_thr1"])
def test_overflowing_error_rejects_without_warnings(vid, tmp_path):
    """Finite outputs whose reconstruction error overflows to inf are
    rejected: exit 0, every decision -1, and nothing on stderr (no numpy
    RuntimeWarning), in a fresh process with numpy's default settings."""
    write_csv(Dataset(_training_rows()), str(tmp_path / "train.csv"))
    write_csv(Dataset(HUGE_ROWS), str(tmp_path / "huge.csv"))
    trained = run_cli(["train", vid, "train.csv", "--seed", "1", "-o", "m.occ"], tmp_path)
    assert trained.returncode == 0, trained.stderr
    proc = run_cli(["score", "m.occ", "huge.csv"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == len(HUGE_ROWS)
    assert all(row.split(",")[1] == "-1" for row in rows), proc.stdout


def test_overflowing_gram_matrix_is_one_error_line(tmp_path):
    """A Gram matrix holding inf is refused before LAPACK sees it, which
    would print DLASCL complaints from the C library."""
    write_csv(Dataset(_training_rows()), str(tmp_path / "train.csv"))
    argv = ["train", "aakelm_thr1", "train.csv", "--kernel", "polynomial",
            "--kern-par", "400", "--seed", "1", "-o", "m.occ"]
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 1
    assert "DLASCL" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Gram matrix" in lines[0]
    assert not (tmp_path / "m.occ").exists()


EXPLICIT_KERNELS = [kind for kind in KERNEL_KINDS if kind != "random"]


def _cases():
    for vid, variant in VARIANTS.items():
        kinds = EXPLICIT_KERNELS if variant.engine == "kernel" else NODE_TYPES
        for kind in kinds:
            yield vid, kind


@functools.lru_cache(maxsize=None)
def _model(vid: str, kind: str):
    mapping = {"kernel": kind} if VARIANTS[vid].engine == "kernel" else {"node_type": kind}
    variant = parse_variant(vid, **mapping)
    rows = _training_rows()
    zstats = zscore_fit(Dataset(rows))
    Xz = zscore_apply(Dataset(rows), zstats).samples
    params = default_params(variant, Xz, {"hidden": 10})
    return fit(variant, params, rows, layer_seed=run_seed(1), zstats=zstats)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(list(_cases())),
    rows=st.lists(st.lists(_finite, min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_finite_rows_never_score_nan(case, rows):
    """For every variant id and kernel (or hidden node type), scoring
    finite rows gives no NAN score, or raises a toolbox error."""
    model = _model(*case)
    try:
        with np.errstate(all="ignore"):
            decisions = score_model(model, np.array(rows))
    except OccelmError:
        return
    assert not np.isnan(decisions.score).any()
