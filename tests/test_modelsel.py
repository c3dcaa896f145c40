"""Tests for consistency-based hyperparameter selection."""

import csv
import math

import numpy as np
import pytest

from occelm.errors import AllPointsIdentical, OccelmError
from occelm.modelsel import (
    C_GRID,
    error_threshold,
    fold_assignment,
    select,
    sigma_grid,
    write_diagnostics,
)


def _scanner(point):
    """Scanner (see select) from point(params, train_rows, val_rows), which
    gives the validation verdicts of one grid point; a point raising a
    toolbox error gives None for its C, as the library scanner does."""

    def scan(params, fold):
        train, val = fold
        if "C" not in params:
            return [point(params, train, val)]
        out = []
        for C in params["C"]:
            try:
                out.append(point({**params, "C": C}, train, val))
            except OccelmError:
                out.append(None)
        return out

    return scan


_accept_all = _scanner(lambda params, train, val: np.ones(len(val), dtype=bool))


def _select(scan, X, grids, *, folds=5, sigma_thr=2.0, fracrej=0.1, seed=0):
    """select under the protocol's default settings."""
    return select(
        scan, X, grids, folds=folds, sigma_thr=sigma_thr, fracrej=fracrej, seed=seed
    )


class TestErrorThreshold:
    def test_hand_case(self):
        """fracrej=0.1, sigma_thr=2, M=25 gives 0.1 + 2 * 0.06 = 0.22."""
        np.testing.assert_allclose(error_threshold(0.1, 2.0, 25), 0.22)

    def test_another_hand_case(self):
        np.testing.assert_allclose(error_threshold(0.1, 2.0, 100), 0.16)

    def test_zero_sigma_thr(self):
        assert error_threshold(0.2, 0.0, 10) == 0.2

    def test_shrinks_with_fold_size(self):
        thresholds = [error_threshold(0.1, 2.0, M) for M in (5, 20, 80, 320)]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            error_threshold(0.1, 2.0, 0)
        with pytest.raises(ValueError):
            error_threshold(1.0, 2.0, 10)
        with pytest.raises(ValueError, match="^sigma_thr must be >= 0$"):
            error_threshold(0.1, -1.0, 10)
        for sigma_thr in (math.nan, math.inf):
            # NAN once passed as a NAN bound, inf as a bound every point met
            with pytest.raises(ValueError, match="^sigma_thr must be finite$"):
                error_threshold(0.1, sigma_thr, 10)


class TestSigmaGrid:
    def test_endpoints_are_extreme_distances(self):
        """3-4-5 triangle rows: distances 5, 5, 10 span the grid."""
        X = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        grid = sigma_grid(X, count=5)
        np.testing.assert_allclose(grid[0], 5.0, atol=1e-12)
        np.testing.assert_allclose(grid[-1], 10.0, atol=1e-12)
        assert grid.shape == (5,)

    def test_geometric_spacing(self):
        X = np.array([[0.0], [1.0], [100.0]])
        grid = sigma_grid(X, count=4)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-10)

    def test_default_count(self):
        rng = np.random.default_rng(3)
        assert sigma_grid(rng.normal(0.0, 1.0, (10, 2))).shape == (20,)

    def test_duplicate_rows_ignored_for_minimum(self):
        """Zero distances never shrink the lower endpoint."""
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        grid = sigma_grid(X, count=3)
        assert grid[0] == 1.0

    def test_identical_rows_rejected(self):
        with pytest.raises(AllPointsIdentical):
            sigma_grid(np.ones((4, 2)))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            sigma_grid(np.ones((1, 2)))


class TestFoldAssignment:
    def test_balanced_sizes(self):
        """Fold sizes differ by at most one row."""
        rng = np.random.default_rng(11)
        for trial in range(20):
            N = int(rng.integers(5, 120))
            folds = int(rng.integers(2, 8))
            fold_of = fold_assignment(N, folds, rng_seed=trial)
            counts = np.bincount(fold_of, minlength=folds)
            assert counts.sum() == N
            assert counts.max() - counts.min() <= 1

    def test_deterministic_per_seed(self):
        a = fold_assignment(30, 5, rng_seed=4)
        b = fold_assignment(30, 5, rng_seed=4)
        c = fold_assignment(30, 5, rng_seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shuffled_not_contiguous(self):
        fold_of = fold_assignment(50, 5, rng_seed=0)
        assert not np.array_equal(fold_of, np.arange(50) % 5)


class TestSelect:
    def _rows(self, n=40):
        rng = np.random.default_rng(8)
        return rng.normal(0.0, 1.0, (n, 2))

    def test_most_complex_consistent_sigma(self):
        """All-consistent grids pick the smallest sigma, then smallest C."""
        grids = {"sigma": [0.5, 1.0, 2.0], "C": [1.0, 10.0]}
        params, diag = _select(_accept_all, self._rows(), grids)
        assert params == {"sigma": 0.5, "C": 1.0}
        assert diag.consistent
        assert len(diag.points) == 6

    def test_hidden_grid_prefers_widest(self):
        """Grids without sigma rank wider hidden layers as more complex."""
        grids = {"m": [5, 20, 50], "C": [1.0, 10.0]}
        params, diag = _select(_accept_all, self._rows(), grids)
        assert params == {"m": 50, "C": 1.0}

    @pytest.mark.parametrize("name", ["b_w", "degree"])
    def test_kernel_parameter_compared_before_c(self, name):
        """The wavelet width and the polynomial degree, like sigma, come
        before C: consistent at (2, C = 100) and (3, C = 1), the smaller
        kernel parameter wins. They were once compared after C."""

        @_scanner
        def trainer(params, train_rows, val):
            ok = (params[name], params["C"]) in ((2, 100.0), (3, 1.0))
            return np.full(len(val), ok, dtype=bool)

        grids = {name: [2, 3], "C": [1.0, 100.0]}
        params, diag = _select(trainer, self._rows(), grids)
        assert params == {name: 2, "C": 100.0}
        assert diag.consistent

    def test_consistency_bound_filters(self):
        """Narrow kernels that reject too many targets are skipped."""

        @_scanner
        def trainer(params, train_rows, val):
            ok = params["sigma"] >= 1.0
            return np.full(len(val), ok, dtype=bool)

        params, diag = _select(trainer, self._rows(), {"sigma": [0.25, 0.5, 1.0, 2.0]})
        assert params == {"sigma": 1.0}
        assert diag.consistent
        by_sigma = {p.params["sigma"]: p for p in diag.points}
        assert by_sigma[0.25].rejection == 1.0
        assert not by_sigma[0.25].consistent
        assert by_sigma[2.0].consistent

    def test_err_thr_uses_integer_fold_size(self):
        """M = floor(N / folds) feeds the bound."""
        rows = self._rows(43)
        params, diag = _select(_accept_all, rows, {"C": [1.0]}, folds=5)
        assert diag.fold_size == 8
        np.testing.assert_allclose(diag.err_thr, error_threshold(0.1, 2.0, 8))

    def test_nothing_consistent_flags_minimum_rejection(self):
        """The fallback is the lowest-rejection point, marked inconsistent."""

        @_scanner
        def trainer(params, train_rows, val):
            keep = 1.0 - params["C"] / 10.0  # C=2 -> 80% kept, C=5 -> 50%
            k = int(keep * len(val))
            out = np.zeros(len(val), dtype=bool)
            out[:k] = True
            return out

        params, diag = _select(trainer, self._rows(40), {"C": [2.0, 5.0]}, sigma_thr=0.0)
        assert params == {"C": 2.0}
        assert not diag.consistent

    def test_failed_points_record_nan_and_never_win(self):
        @_scanner
        def trainer(params, train_rows, val):
            if params["C"] == 1.0:
                raise OccelmError("unstable")
            return np.ones(len(val), dtype=bool)

        params, diag = _select(trainer, self._rows(), {"C": [1.0, 10.0]})
        assert params == {"C": 10.0}
        by_c = {p.params["C"]: p for p in diag.points}
        assert math.isnan(by_c[1.0].rejection)
        assert not by_c[1.0].consistent

    def test_all_failures_raise(self):
        def trainer(params, fold):
            raise OccelmError("nope")

        with pytest.raises(OccelmError):
            _select(trainer, self._rows(), {"C": [1.0, 2.0]})

    def test_folds_are_paired_across_grid(self):
        """Every combination sees the same train/validation partition."""
        seen = []

        @_scanner
        def trainer(params, train_rows, val):
            seen.append(np.asarray(train_rows).sum())
            return np.ones(len(val), dtype=bool)

        # one scan call per (sigma, fold); C values share their call
        _select(trainer, self._rows(), {"sigma": [1.0, 2.0, 3.0]}, folds=4)
        assert len(seen) == 12
        first = seen[:4]
        np.testing.assert_allclose(seen[4:8], first, atol=1e-12)
        np.testing.assert_allclose(seen[8:], first, atol=1e-12)

    def test_rejection_is_fold_average(self):
        calls = {"i": 0}

        @_scanner
        def trainer(params, train_rows, val):
            # alternate folds: all accepted, none accepted
            calls["i"] += 1
            return np.full(len(val), calls["i"] % 2 == 1, dtype=bool)

        params, diag = _select(trainer, self._rows(40), {"C": [1.0]}, folds=4)
        np.testing.assert_allclose(diag.points[0].rejection, 0.5)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            _select(_accept_all, np.zeros((4, 2)), {"C": [1.0]}, folds=5)

    def test_deterministic_given_seed(self):
        grids = {"sigma": [0.5, 1.0], "C": [1.0]}
        a = _select(_accept_all, self._rows(), grids, seed=7)[1]
        b = _select(_accept_all, self._rows(), grids, seed=7)[1]
        assert [p.rejection for p in a.points] == [p.rejection for p in b.points]


class TestScannerContract:
    def _rows(self, n=40):
        return np.random.default_rng(8).normal(0.0, 1.0, (n, 2))

    def test_one_call_per_group_and_fold_with_the_whole_c_list(self):
        calls = []

        def scan(params, fold):
            calls.append((params["sigma"], list(params["C"]), fold[1].shape[0]))
            return [np.ones(len(fold[1]), dtype=bool) for _ in params["C"]]

        grids = {"sigma": [0.5, 1.0], "C": [1.0, 10.0, 100.0]}
        _, diag = _select(scan, self._rows(), grids, folds=3)
        assert [(s, c) for s, c, _ in calls] == [
            (s, [1.0, 10.0, 100.0]) for s in (0.5, 0.5, 0.5, 1.0, 1.0, 1.0)
        ]
        assert sum(m for _, _, m in calls[:3]) == 40
        assert [(p.params["sigma"], p.params["C"]) for p in diag.points] == [
            (s, c) for s in (0.5, 1.0) for c in (1.0, 10.0, 100.0)
        ]

    def test_failed_c_is_not_fitted_at_later_folds(self):
        seen = []

        def scan(params, fold):
            seen.append(list(params["C"]))
            return [
                None if (C == 10.0 and len(seen) == 2) else np.ones(len(fold[1]), bool)
                for C in params["C"]
            ]

        params, diag = _select(scan, self._rows(), {"C": [1.0, 10.0, 100.0]}, folds=4)
        assert seen == [[1.0, 10.0, 100.0]] * 2 + [[1.0, 100.0]] * 2
        assert [math.isnan(p.rejection) for p in diag.points] == [False, True, False]
        assert params == {"C": 1.0}

    def test_group_with_every_c_failed_is_not_scanned_again(self):
        """A grid without C (the online engine's) has one fit per call."""
        calls = []

        def scan(params, fold):
            calls.append(params["m"])
            if params["m"] == 5:
                raise OccelmError("rank deficient")
            return [np.ones(len(fold[1]), dtype=bool)]

        params, diag = _select(scan, self._rows(), {"m": [5, 9]}, folds=4)
        assert calls == [5, 9, 9, 9, 9]
        assert params == {"m": 9}
        assert math.isnan(diag.points[0].rejection)

    def test_raising_scanner_fails_every_c_of_its_group(self):
        def scan(params, fold):
            if params["sigma"] == 0.5 and fold[1].shape[0] == 13:
                raise OccelmError("feature stage failed")
            return [np.ones(len(fold[1]), dtype=bool) for _ in params["C"]]

        grids = {"sigma": [0.5, 1.0], "C": [1.0, 2.0]}
        params, diag = _select(scan, self._rows(), grids, folds=3)
        assert [math.isnan(p.rejection) for p in diag.points] == [
            True, True, False, False
        ]
        assert params == {"sigma": 1.0, "C": 1.0}

    def test_points_follow_grid_order_when_c_comes_first(self):
        _, diag = _select(_accept_all, self._rows(), {"C": [1.0, 2.0], "m": [5, 9]})
        assert [p.params for p in diag.points] == [
            {"C": 1.0, "m": 5}, {"C": 1.0, "m": 9},
            {"C": 2.0, "m": 5}, {"C": 2.0, "m": 9},
        ]

    def test_verdict_count_must_match_the_c_list(self):
        with pytest.raises(ValueError):
            _select(
                lambda params, fold: [np.ones(len(fold[1]), bool)],
                self._rows(), {"C": [1.0, 2.0]},
            )


class TestSelectionConfig:
    """The selection's settings: select's own checks of its arguments and
    the built-in C grid."""

    def test_validation(self):
        """Refused before the scanner is first called."""

        def scan(params, fold):
            raise AssertionError("scanned")

        rows = np.random.default_rng(8).normal(0.0, 1.0, (40, 2))
        for grids, settings, message in [
            ({}, {}, "every grid must be nonempty"),
            ({"C": []}, {}, "every grid must be nonempty"),
            ({"C": [1.0]}, {"folds": 1}, "folds must be >= 2"),
            ({"C": [1.0]}, {"fracrej": 0.0}, r"fracrej must lie in \(0, 1\)"),
            ({"C": [1.0]}, {"fracrej": 1.5}, r"fracrej must lie in \(0, 1\)"),
            ({"C": [1.0]}, {"fracrej": math.nan}, r"fracrej must lie in \(0, 1\)"),
            ({"C": [1.0]}, {"sigma_thr": math.nan}, "sigma_thr must be finite"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                _select(scan, rows, grids, **settings)

    def test_c_grid_span(self):
        """Built-in C grid covers 1e-8 through 1e8 in decades."""
        assert C_GRID[0] == 1e-8
        assert C_GRID[-1] == 1e8
        assert len(C_GRID) == 17


class TestWriteDiagnostics:
    def test_csv_round_trip(self, tmp_path):
        @_scanner
        def trainer(params, train_rows, val):
            if params["C"] == 2.0:
                raise OccelmError("fails")
            return np.ones(len(val), dtype=bool)

        rng = np.random.default_rng(5)
        grids = {"sigma": [0.5, 1.5], "C": [1.0, 2.0]}
        _, diag = _select(trainer, rng.normal(0.0, 1.0, (30, 2)), grids)
        out = tmp_path / "grid.csv"
        write_diagnostics(diag, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "C", "rejection", "consistent"]
        assert len(rows) == 5
        nan_rows = [r for r in rows[1:] if r[2] == "NAN"]
        assert len(nan_rows) == 2
        for r in rows[1:]:
            assert r[3] in ("0", "1")
            if r[2] != "NAN":
                assert float(r[2]) == 0.0
