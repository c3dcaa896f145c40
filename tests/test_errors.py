"""Tests for the exception hierarchy: one class per failure kind.

Each condition below once had a class of its own; it now raises the class
that names its kind, and the message tells the conditions apart.
"""

import numpy as np
import pytest

import occelm
import occelm.errors
from occelm.cli import _training_rows, build_parser, cmd_grid, main
from occelm.dataset import Dataset, occ_split, write_csv
from occelm.errors import DimensionMismatch, OccelmError, ParseError, TooFewSamples
from occelm.linsolve import rls_init
from occelm.metrics import aggregate, confuse
from occelm.modelsel import sigma_grid
from occelm.threshold import apply_threshold, thr1_fit

CLASSES = {
    "OccelmError", "ParseError", "TooFewSamples", "DimensionMismatch", "MissingLabels",
    "SingularSystem", "RankDeficient", "Thr3NotApplicable", "NonFiniteOutput",
    "AlreadyFinalized", "NotFinalized", "ModelFormatError", "BadArgument", "UsageError",
}


def _csv(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return str(path)


def _labeled(targets, outliers):
    rows = np.arange(2.0 * (targets + outliers)).reshape(-1, 2)
    return Dataset(rows, [True] * targets + [False] * outliers)


def _no_targets_to_train(tmp_path):
    argv = ["train", "ockelm_thr1", _csv(tmp_path, "1,2,-1\n3,4,-1\n"), "--label-col", "-1"]
    _training_rows(build_parser().parse_args([*argv, "-o", str(tmp_path / "m.occ")]))


def _grid_of_three_features(tmp_path):
    data, model = tmp_path / "d3.csv", str(tmp_path / "m.occ")
    write_csv(Dataset(np.random.default_rng(0).normal(0.0, 1.0, (20, 3))), str(data))
    assert main(["train", "ockelm_thr1", str(data), "--seed", "0", "-o", model]) == 0
    cmd_grid(build_parser().parse_args(["grid", model, "--bounds", "0", "1", "0", "1"]))


# (the condition's former class, the call that hits it, the class that
# raises it now, its message)
CONDITIONS = {
    "thr1_no_errors": (
        "EmptyErrors", lambda tmp_path: thr1_fit(np.array([]), 0.1),
        TooFewSamples, "thr1_fit needs at least one error",
    ),
    "aggregate_no_runs": (
        "EmptyRuns", lambda tmp_path: aggregate([]),
        TooFewSamples, "aggregate needs at least one run",
    ),
    "rls_chunk_below_width": (
        "TooFewInitialSamples", lambda tmp_path: rls_init(np.zeros((3, 5)), np.zeros((3, 1))),
        TooFewSamples, "N0=3 < m=5; grow the initial chunk",
    ),
    "split_few_targets": (
        "NoTargets", lambda tmp_path: occ_split(_labeled(0, 4), 0, 0),
        TooFewSamples, "benchmarking needs at least 3 target rows: each run trains "
                       "on half of them, and z-scoring needs 2",
    ),
    "train_no_targets": (
        "NoTargets", _no_targets_to_train,
        TooFewSamples, "no target-labeled rows to train on",
    ),
    "split_no_outliers": (
        "NoOutliers", lambda tmp_path: occ_split(_labeled(4, 0), 0, 0),
        TooFewSamples, "benchmarking needs at least one outlier row",
    ),
    "identical_rows": (
        "AllPointsIdentical", lambda tmp_path: sigma_grid(np.ones((4, 2))),
        TooFewSamples, "all rows coincide; no nonzero distance",
    ),
    "no_decisions": (
        "LengthMismatch", lambda tmp_path: confuse(apply_threshold([], 0.5), []),
        TooFewSamples, "need at least one decision",
    ),
    "decisions_vs_labels": (
        "LengthMismatch", lambda tmp_path: confuse(apply_threshold([0.0], 0.5), [True, False]),
        DimensionMismatch, "1 decisions vs 2 labels",
    ),
    "grid_not_2d": (
        "NotTwoDimensional", _grid_of_three_features,
        DimensionMismatch, "grid export needs a 2-feature model, got 3",
    ),
    "ragged_rows": (
        "RaggedRows", lambda tmp_path: occelm.load_csv(_csv(tmp_path, "1,2\n3\n")),
        ParseError, "line 2 has 1 cells, expected 2",
    ),
    "empty_file": (
        "EmptyFile", lambda tmp_path: occelm.load_csv(_csv(tmp_path, "")),
        ParseError, "no rows",
    ),
    "header_only": (
        "EmptyFile", lambda tmp_path: occelm.load_csv(_csv(tmp_path, "a,b\n")),
        ParseError, "header only, no data rows",
    ),
    "unknown_label_token": (
        "UnknownLabelToken", lambda tmp_path: occelm.load_csv(_csv(tmp_path, "1,maybe\n"), 1),
        ParseError, "row 1: unknown label token 'maybe'",
    ),
}


def test_the_classes():
    defined = {
        name for name, value in vars(occelm.errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert defined == CLASSES
    assert all(issubclass(getattr(occelm, name), OccelmError) for name in CLASSES)


@pytest.mark.parametrize("name", sorted({former for former, *_ in CONDITIONS.values()}))
def test_folded_name_gone(name):
    assert not hasattr(occelm, name)
    assert not hasattr(occelm.errors, name)


@pytest.mark.parametrize("condition", list(CONDITIONS))
def test_folded_condition(tmp_path, condition):
    """The class that names the condition's kind, with the message it
    always had (load_csv's messages start with the file's path)."""
    _, call, cls, message = CONDITIONS[condition]
    with pytest.raises(cls) as info:
        call(tmp_path)
    text = str(info.value)
    assert text == message or (cls is ParseError and text.endswith(f"d.csv: {message}"))
