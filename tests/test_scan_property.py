"""Property test: the selection scan, which builds features once per
(grid group, fold) and walks the C list on them, gives the same
diagnostics, bit for bit, as one full fit and score per (grid point, fold),
written out below as the reference loop."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occelm.offline
from occelm.bench import (
    _FOLD_STREAM,
    _SELECT_LAYER_STREAM,
    VARIANTS,
    _fold_trainer,
    choose_params,
    fit,
    parse_variant,
    score_model,
    selection_grids,
)
from occelm.errors import FIT_FAILURES, NonFiniteOutput, OccelmError
from occelm.modelsel import error_threshold, fold_assignment, select

_C = [1e-2, 1.0, 1e8, 1e16]
# select's settings under the protocol's defaults
_FOLDS, _SIGMA_THR, _FRACREJ = 5, 2.0, 0.1

# (variant with its feature map, grid without C or None for no C axis)
CASES = [
    (parse_variant("ockelm_thr1"), {"sigma": [0.5, 2.0]}),
    (parse_variant("ockelm_thr2", kernel="linear"), {}),
    (parse_variant("aakelm_thr3"), {"sigma": [0.7, 3.0]}),
    (parse_variant("aakelm_thr1", kernel="polynomial"), {"degree": [2, 3]}),
    (parse_variant("aakelm_thr2", kernel="linear"), {}),
    (parse_variant("ocelm_thr1"), {"m": [5, 40]}),
    (parse_variant("ocelm_thr2_rbf"), {"m": [4, 30]}),
    (parse_variant("aaelm_thr3_rbf"), {"m": [6, 25]}),
    (parse_variant("aaelm_thr1"), {"m": [3, 12]}),
    (parse_variant("os_aaelm_thr3"), None),
    (parse_variant("os_ocelm_thr1_rbf"), None),
    (parse_variant("os_aaelm_thr2_rbf"), None),
]


def _grids(case):
    _, grid = case
    if grid is None:
        return {"m": [2, 4, 8, 20]}
    return {**grid, "C": list(_C)}


def _reference(case, X, grids, fold_seed, seed):
    """One bench.fit plus score_model per (grid point, fold); a point
    failing at any fold records NAN; then the documented preference."""
    variant, _ = case
    N = X.shape[0]
    M = N // _FOLDS
    err_thr = error_threshold(_FRACREJ, _SIGMA_THR, M)
    fold_of = fold_assignment(N, _FOLDS, fold_seed)
    names = list(grids)
    points = []
    for values in itertools.product(*(grids[k] for k in names)):
        params = dict(zip(names, values))
        rejections = []
        try:
            for j in range(_FOLDS):
                model = fit(
                    variant, params, X[fold_of != j],
                    fracrej=_FRACREJ,
                    layer_seed=[seed, 0, _SELECT_LAYER_STREAM, int(params.get("m", 0))],
                )
                is_target = score_model(model, X[fold_of == j]).is_target
                rejections.append(1.0 - float(is_target.mean()))
            rejection = float(np.mean(rejections))
        except FIT_FAILURES:
            rejection = math.nan
        points.append((params, rejection, not math.isnan(rejection) and rejection <= err_thr))

    def complexity(params):
        # every parameter but C in grid order (widest m, else the smallest
        # value), then the smallest C
        order = [(k, -1 if k == "m" else 1) for k in names if k != "C"]
        return tuple(sign * params[k] for k, sign in order + [("C", 1)] if k in params)

    consistent = [p for p in points if p[2]]
    if consistent:
        chosen = min(consistent, key=lambda p: complexity(p[0]))[0]
    else:
        scored = [p for p in points if not math.isnan(p[1])]
        chosen = None if not scored else min(
            scored, key=lambda p: (p[1], complexity(p[0]))
        )[0]
    return err_thr, M, points, chosen, bool(consistent)


def _compare(case, X, seed, fold_seed):
    variant, _ = case
    grids = _grids(case)
    err_thr, M, points, chosen, consistent = _reference(case, X, grids, fold_seed, seed)
    scan = _fold_trainer(variant, _FRACREJ, seed)
    settings = dict(folds=_FOLDS, sigma_thr=_SIGMA_THR, fracrej=_FRACREJ, seed=fold_seed)
    if chosen is None:
        with pytest.raises(OccelmError, match="every grid point failed"):
            select(scan, X, grids, **settings)
        return
    params, diag = select(scan, X, grids, **settings)
    assert (diag.err_thr, diag.fold_size) == (err_thr, M)
    assert [p.params for p in diag.points] == [p[0] for p in points]
    got = np.array([p.rejection for p in diag.points])
    want = np.array([p[1] for p in points])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert [p.consistent for p in diag.points] == [p[2] for p in points]
    assert params == chosen
    assert diag.consistent == consistent


def _rows(data_seed, N, n, duplicates):
    X = np.random.default_rng(data_seed).normal(0.0, 1.0, (N, n))
    if duplicates:
        X[N - duplicates :] = X[:duplicates]
    return X


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CASES),
    data_seed=st.integers(0, 2**32 - 1),
    N=st.integers(15, 40),
    n=st.integers(2, 4),
    duplicates=st.integers(0, 8),
    seed=st.integers(0, 1000),
    fold_seed=st.integers(0, 1000),
)
def test_scan_matches_per_point_fits(case, data_seed, N, n, duplicates, seed, fold_seed):
    _compare(case, _rows(data_seed, N, n, duplicates), seed, fold_seed)


def test_some_c_fail_and_others_do_not():
    """Duplicate rows and C = 1e8 / 1e16 make some solves fail while the
    rest of their group scores; the scan records the same NANs."""
    case = CASES[8]
    X = _rows(0, 30, 3, 10)
    _compare(case, X, 3, 1)
    rejection = [p[1] for p in _reference(case, X, _grids(case), 1, 3)[2]]
    assert any(math.isnan(r) for r in rejection)
    assert not all(math.isnan(r) for r in rejection)


def test_feature_stage_failing_at_one_fold(monkeypatch):
    """A feature stage that raises a fit failure at one (sigma, fold)
    fails every C of that sigma, in the scan as in the reference."""
    real = occelm.offline.kernel_gram
    X = _rows(5, 30, 3, 0)

    def flaky(spec, A, B):
        # the Gram matrix of the one fold that validates on row 0
        gram = A.shape[0] > 10 and not (A == X[0]).all(axis=1).any()
        if spec.sigma == 2.0 and gram:
            raise NonFiniteOutput("injected feature-stage failure")
        return real(spec, A, B)

    monkeypatch.setattr(occelm.offline, "kernel_gram", flaky)
    case = CASES[0]
    _compare(case, X, 0, 2)
    points = _reference(case, X, _grids(case), 2, 0)[2]
    assert [math.isnan(p[1]) for p in points] == [False] * 4 + [True] * 4


@pytest.mark.parametrize("vid", ["ockelm_thr1", "aakelm_thr3", "ocelm_thr1"])
def test_full_protocol_grid(vid):
    """choose_params' own grid (20 widths or 4 hidden widths x 17 C)."""
    X = _rows(9, 36, 4, 4)
    params, diag = choose_params(VARIANTS[vid], X, seed=2)
    case = next(c for c in CASES if c[0] == VARIANTS[vid])
    grids = selection_grids(VARIANTS[vid], X, _FOLDS)
    ref = _reference(case, X, grids, [2, 0, _FOLD_STREAM], 2)
    assert [p.params for p in diag.points] == [p[0] for p in ref[2]]
    np.testing.assert_array_equal(
        np.array([p.rejection for p in diag.points]).view(np.uint64),
        np.array([p[1] for p in ref[2]]).view(np.uint64),
    )
    assert params == ref[3]
