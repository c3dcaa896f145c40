"""Tests for the sequential (online) one-class classifiers."""

import numpy as np
import pytest

from occelm.dataset import zscore_fit, Dataset
from occelm.errors import (
    AlreadyFinalized,
    DimensionMismatch,
    NotFinalized,
    Thr3NotApplicable,
    TooFewInitialSamples,
    TooFewSamples,
)
from occelm.featuremap import hidden_apply, hidden_init, rbf_kernel
from occelm.offline import score, train_boundary
from occelm.online import os_finalize, os_init, os_score, os_update
from occelm.threshold import ThresholdSpec, thr1_fit, thr2_fit


def _cloud(seed, count=60, n=3):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (count, n))


def _layer(m=8, n=3, seed=0, node="additive_sigmoid"):
    return hidden_init(node, m, n, seed=seed)


class TestOsInit:
    def test_beta_matches_least_squares(self):
        """Initial weights are the pseudo-solution on the first chunk."""
        X0 = _cloud(1, count=20)
        layer = _layer()
        model = os_init("boundary", layer, X0)
        H0 = hidden_apply(layer, X0)
        expected, *_ = np.linalg.lstsq(H0, np.ones((20, 1)), rcond=None)
        np.testing.assert_allclose(model.rls.beta, expected, atol=1e-9)
        assert model.seen_count == 20
        assert model.n0 == 20

    def test_reconstruction_targets_are_inputs(self):
        X0 = _cloud(2, count=15)
        layer = _layer()
        model = os_init("reconstruction", layer, X0)
        H0 = hidden_apply(layer, X0)
        expected, *_ = np.linalg.lstsq(H0, X0, rcond=None)
        np.testing.assert_allclose(model.rls.beta, expected, atol=1e-9)

    def test_chunk_smaller_than_layer_refused(self):
        """The initialization chunk must cover the hidden dimension."""
        with pytest.raises(TooFewInitialSamples):
            os_init("boundary", _layer(m=10), _cloud(3, count=5))

    def test_family_checked(self):
        with pytest.raises(ValueError):
            os_init("generative", _layer(), _cloud(4, count=20))

    def test_records_errors_and_rows(self):
        """The chunk's rows are kept; their errors are computed once, at
        finalize."""
        model = os_init("boundary", _layer(), _cloud(5, count=12))
        assert len(model.retained_rows) == 1
        assert isinstance(model.train_errors, np.ndarray)
        assert model.train_errors.size == 0
        assert not model.finalized
        os_finalize(model, ThresholdSpec("thr1"))
        assert model.train_errors.shape == (12,)


class TestOsUpdate:
    def test_stream_matches_batch_solution(self):
        """init + updates converge to the full-data least squares fit."""
        rng = np.random.default_rng(7)
        layer = _layer(m=6)
        X = rng.normal(0.0, 1.0, (50, 3))
        model = os_init("boundary", layer, X[:12])
        for start in range(12, 50, 5):
            os_update(model, X[start : start + 5])
        H = hidden_apply(layer, X)
        expected, *_ = np.linalg.lstsq(H, np.ones((50, 1)), rcond=None)
        np.testing.assert_allclose(model.rls.beta, expected, atol=1e-8)
        assert model.seen_count == 50

    def test_single_row_chunks(self):
        layer = _layer(m=4)
        X = _cloud(8, count=20)
        model = os_init("reconstruction", layer, X[:8])
        for i in range(8, 20):
            os_update(model, X[i : i + 1])
        H = hidden_apply(layer, X)
        expected, *_ = np.linalg.lstsq(H, X, rcond=None)
        np.testing.assert_allclose(model.rls.beta, expected, atol=1e-8)

    def test_chunk_order_does_not_matter_much(self):
        """Any chunk arrival order lands on the same batch solution."""
        rng = np.random.default_rng(9)
        layer = _layer(m=5)
        X = rng.normal(0.0, 1.0, (30, 3))
        a = os_init("boundary", layer, X[:10])
        os_update(a, X[10:20])
        os_update(a, X[20:])
        b = os_init("boundary", layer, X[:10])
        os_update(b, X[20:])
        os_update(b, X[10:20])
        np.testing.assert_allclose(a.rls.beta, b.rls.beta, atol=1e-9)

    def test_feature_count_checked(self):
        model = os_init("boundary", _layer(), _cloud(10, count=12))
        with pytest.raises(DimensionMismatch):
            os_update(model, np.zeros((2, 5)))

    def test_no_updates_after_finalize(self):
        model = os_init("boundary", _layer(), _cloud(11, count=12))
        os_finalize(model, ThresholdSpec("thr1"))
        with pytest.raises(AlreadyFinalized):
            os_update(model, _cloud(12, count=2))


class TestOsFinalize:
    def test_threshold_from_final_weights(self):
        """The errors of every retained row are computed under the final
        weights, so the threshold matches an offline-style refit."""
        layer = _layer(m=6)
        X = _cloud(13, count=40)
        model = os_init("boundary", layer, X[:15])
        os_update(model, X[15:])
        os_finalize(model, ThresholdSpec("thr1"))
        H = hidden_apply(layer, X)
        errors = np.abs((H @ model.rls.beta).ravel() - 1.0)
        assert model.thresh == thr1_fit(errors, 0.1)
        np.testing.assert_allclose(model.train_errors, errors, atol=1e-12)

    def test_thr2_boundary_squares_deviation(self):
        """The stored training errors are the squared deviations thr2
        cuts, as an offline boundary model stores them."""
        layer = _layer(m=6)
        X = _cloud(15, count=30)
        model = os_init("boundary", layer, X[:12])
        os_update(model, X[12:])
        os_finalize(model, ThresholdSpec("thr2"))
        deviation = np.abs((hidden_apply(layer, X) @ model.rls.beta).ravel() - 1.0)
        np.testing.assert_array_equal(model.train_errors, deviation**2)
        assert model.thresh == thr2_fit(model.train_errors, 0.2)

    def test_thr3_boundary_rejected(self):
        model = os_init("boundary", _layer(), _cloud(16, count=12))
        with pytest.raises(Thr3NotApplicable):
            os_finalize(model, ThresholdSpec("thr3"))

    def test_double_finalize_rejected(self):
        model = os_init("boundary", _layer(), _cloud(17, count=12))
        os_finalize(model, ThresholdSpec("thr1"))
        with pytest.raises(AlreadyFinalized):
            os_finalize(model, ThresholdSpec("thr1"))

    def test_thr3_reconstruction_nan_thresh(self):
        model = os_init("reconstruction", _layer(), _cloud(18, count=12))
        os_finalize(model, ThresholdSpec("thr3"))
        assert np.isnan(model.thresh)
        assert model.finalized


class TestOsScore:
    def test_requires_finalize(self):
        model = os_init("boundary", _layer(), _cloud(19, count=12))
        with pytest.raises(NotFinalized):
            os_score(model, _cloud(20, count=3))

    def test_training_rows_mostly_accepted(self):
        X = _cloud(21, count=100)
        model = os_init("boundary", _layer(m=10), X[:30])
        os_update(model, X[30:])
        os_finalize(model, ThresholdSpec("thr1"))
        decisions = os_score(model, X)
        accepted = sum(d.is_target for d in decisions)
        assert accepted == 90

    def test_zscore_stats_respected(self):
        """Stats fitted on raw data normalize both training and scoring."""
        raw = _cloud(22, count=40) * 3.0 + 5.0
        stats = zscore_fit(Dataset(raw))
        layer = _layer(m=6)
        model = os_init("reconstruction", layer, raw[:15], zstats=stats)
        os_update(model, raw[15:])
        os_finalize(model, ThresholdSpec("thr2"))
        scores = [d.score for d in os_score(model, raw)]
        np.testing.assert_allclose(scores, model.train_errors, atol=1e-10)

    def test_reconstruction_thr3_per_sample(self):
        X = _cloud(23, count=30)
        model = os_init("reconstruction", _layer(m=25), X)
        os_finalize(model, ThresholdSpec("thr3"))
        for d in os_score(model, X[:5]):
            assert d.thresh == 0.1
            assert 0.0 <= d.score <= 1.0

    def test_feature_count_checked(self):
        model = os_init("boundary", _layer(), _cloud(24, count=12))
        os_finalize(model, ThresholdSpec("thr1"))
        with pytest.raises(DimensionMismatch):
            os_score(model, np.zeros((2, 7)))

    def test_too_few_samples_for_finalize(self):
        layer = _layer(m=1, n=2)
        model = os_init("boundary", layer, np.array([[0.5, 1.0]]))
        with pytest.raises(TooFewSamples):
            os_finalize(model, ThresholdSpec("thr1"))


class TestOneWidthCheck:
    """zscore_apply alone checks a row set against a model's feature
    count, so every front end refuses a wrong-width set in the same words."""

    def test_same_message_from_every_front_end(self):
        X = _cloud(25, count=20)
        stats = zscore_fit(Dataset(X))
        wide = np.zeros((4, 5))
        tspec = ThresholdSpec("thr1")
        offline = train_boundary(X, rbf_kernel(1.0), 1.0, tspec, zstats=stats)
        growing = os_init("boundary", _layer(), X[:12], zstats=stats)
        finalized = os_finalize(os_init("boundary", _layer(), X[:12]), tspec)
        calls = {
            "score": lambda: score(offline, wide),
            "os_update": lambda: os_update(growing, wide),
            "os_score": lambda: os_score(finalized, wide),
            # the layer reads 5 features: only the stats refuse the rows
            "os_init": lambda: os_init("boundary", _layer(n=5), wide, zstats=stats),
            "train_boundary": lambda: train_boundary(
                wide, rbf_kernel(1.0), 1.0, tspec, zstats=stats
            ),
        }
        for name, call in calls.items():
            with pytest.raises(DimensionMismatch) as info:
                call()
            assert str(info.value) == "rows have 5 features, expected 3", name
