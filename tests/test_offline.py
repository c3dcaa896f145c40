"""Tests for the offline boundary and reconstruction classifiers."""

import tracemalloc

import numpy as np
import pytest

from occelm.dataset import Dataset, gen_banana, zscore_apply, zscore_fit
from occelm.errors import DimensionMismatch, Thr3NotApplicable
from occelm.featuremap import (
    hidden_apply,
    hidden_init,
    kernel_gram,
    linear_kernel,
    random_kernel,
    rbf_kernel,
)
from occelm.offline import (
    BOUNDARY,
    DEFAULT_HIDDEN,
    RECONSTRUCTION,
    score,
    train_boundary,
    train_reconstruction,
)
from occelm.threshold import ThresholdSpec


def _cloud(seed, count=40, n=3):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (count, n))


class TestTrainBoundary:
    def test_beta_solves_regularized_system(self):
        """Weights match a direct solve of (Omega + I/C) beta = R."""
        X = _cloud(1)
        model = train_boundary(X, rbf_kernel(1.0), 10.0, ThresholdSpec("thr1"))
        omega = kernel_gram(rbf_kernel(1.0), X, X)
        expected = np.linalg.solve(
            omega + np.eye(40) / 10.0, np.ones((40, 1))
        )
        np.testing.assert_allclose(model.beta, expected, atol=1e-9)

    def test_outputs_near_r_for_large_c(self):
        """Weak regularization drives training outputs onto the target 1."""
        X = _cloud(2, count=25)
        model = train_boundary(X, rbf_kernel(1.5), 1e8, ThresholdSpec("thr1"))
        assert np.max(model.train_errors) < 1e-3

    def test_thr1_scores_absolute_deviation(self):
        X = _cloud(3)
        m1 = train_boundary(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"))
        m2 = train_boundary(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr2"))
        np.testing.assert_allclose(
            m2.train_errors, m1.train_errors**2, atol=1e-12
        )

    def test_thr3_rejected(self):
        with pytest.raises(Thr3NotApplicable):
            train_boundary(
                _cloud(5), rbf_kernel(1.0), 1.0, ThresholdSpec("thr3")
            )

    def test_family_tag(self):
        model = train_boundary(
            _cloud(6), rbf_kernel(1.0), 1.0, ThresholdSpec("thr1")
        )
        assert model.family == BOUNDARY


class TestTrainReconstruction:
    def test_beta_solves_autoassociative_system(self):
        """Targets are the normalized inputs themselves."""
        X = _cloud(7, count=30, n=4)
        model = train_reconstruction(
            X, rbf_kernel(2.0), 100.0, ThresholdSpec("thr2")
        )
        omega = kernel_gram(rbf_kernel(2.0), X, X)
        expected = np.linalg.solve(omega + np.eye(30) / 100.0, X)
        np.testing.assert_allclose(model.beta, expected, atol=1e-8)

    def test_errors_are_squared_residual_sums(self):
        X = _cloud(8, count=20)
        model = train_reconstruction(
            X, rbf_kernel(1.0), 10.0, ThresholdSpec("thr2")
        )
        omega = kernel_gram(rbf_kernel(1.0), X, X)
        O = omega @ model.beta
        np.testing.assert_allclose(
            model.train_errors, ((X - O) ** 2).sum(axis=1), atol=1e-10
        )

    def test_near_perfect_reconstruction_for_large_c(self):
        X = _cloud(9, count=25)
        model = train_reconstruction(
            X, rbf_kernel(1.5), 1e8, ThresholdSpec("thr1")
        )
        assert np.max(model.train_errors) < 1e-3

    def test_all_threshold_kinds_accepted(self):
        X = _cloud(10, count=15)
        for kind in ("thr1", "thr2", "thr3"):
            model = train_reconstruction(
                X, rbf_kernel(1.0), 1.0, ThresholdSpec(kind)
            )
            assert model.family == RECONSTRUCTION

    def test_thr3_threshold_is_nan(self):
        """thr3 has no scalar training cut; it decides per sample."""
        model = train_reconstruction(
            _cloud(11), rbf_kernel(1.0), 1.0, ThresholdSpec("thr3")
        )
        assert np.isnan(model.thresh)


class TestRandomMapping:
    def test_default_hidden_count(self):
        model = train_boundary(
            _cloud(12), random_kernel(), 1.0, ThresholdSpec("thr1")
        )
        assert model.mapping.layer.m == DEFAULT_HIDDEN

    def test_basis_holds_activations(self):
        X = _cloud(13, count=20)
        model = train_boundary(
            X, random_kernel(m=30), 1.0, ThresholdSpec("thr1"), seed=5
        )
        layer = model.mapping.layer
        np.testing.assert_allclose(
            model.basis, hidden_apply(layer, X), atol=1e-14
        )

    def test_same_seed_same_model(self):
        X = _cloud(14)
        a = train_boundary(X, random_kernel(m=20), 1.0, ThresholdSpec("thr1"), seed=3)
        b = train_boundary(X, random_kernel(m=20), 1.0, ThresholdSpec("thr1"), seed=3)
        c = train_boundary(X, random_kernel(m=20), 1.0, ThresholdSpec("thr1"), seed=4)
        np.testing.assert_array_equal(a.beta, b.beta)
        assert not np.array_equal(a.beta, c.beta)

    def test_matches_linear_kernel_on_activations(self):
        """The random kernel is the linear kernel applied to hidden
        activations, so both routes give the same training errors."""
        X = _cloud(15, count=25)
        layer = hidden_init("additive_sigmoid", 15, 3, seed=8)
        H = hidden_apply(layer, X)
        via_random = train_boundary(
            X, random_kernel(layer=layer), 5.0, ThresholdSpec("thr1")
        )
        via_linear = train_boundary(
            H, linear_kernel(), 5.0, ThresholdSpec("thr1")
        )
        np.testing.assert_allclose(
            via_random.train_errors, via_linear.train_errors, atol=1e-9
        )

    def test_layer_feature_count_checked(self):
        layer = hidden_init("additive_sigmoid", 10, 5, seed=0)
        with pytest.raises(DimensionMismatch):
            train_boundary(
                _cloud(16, n=3), random_kernel(layer=layer), 1.0,
                ThresholdSpec("thr1"),
            )


class TestScore:
    def test_training_rows_reproduce_training_errors(self):
        """Scoring the training set through the cross matrix agrees with
        the errors computed at fit time."""
        X = _cloud(17, count=30)
        for mapping in (rbf_kernel(1.0), random_kernel(m=40)):
            model = train_boundary(X, mapping, 10.0, ThresholdSpec("thr1"))
            got = [d.score for d in score(model, X)]
            np.testing.assert_allclose(got, model.train_errors, atol=1e-8)

    def test_thr1_rejects_about_fracrej_of_trainset(self):
        X = _cloud(18, count=200)
        model = train_boundary(
            X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1", fracrej=0.1)
        )
        rejected = sum(not d.is_target for d in score(model, X))
        assert rejected == 20

    def test_far_away_rows_rejected(self):
        X = _cloud(19, count=60, n=2)
        model = train_boundary(X, rbf_kernel(1.0), 100.0, ThresholdSpec("thr1"))
        far = np.full((5, 2), 50.0)
        assert all(not d.is_target for d in score(model, far))

    def test_zscore_stats_applied(self):
        """Training with stats and scoring raw rows matches training on
        pre-normalized rows scored with normalized rows."""
        raw = Dataset(_cloud(20, count=30) * 4.0 + 7.0)
        stats = zscore_fit(raw)
        Xz = zscore_apply(raw, stats).samples
        with_stats = train_reconstruction(
            raw.samples, rbf_kernel(1.0), 10.0, ThresholdSpec("thr2"),
            zstats=stats,
        )
        pre_normalized = train_reconstruction(
            Xz, rbf_kernel(1.0), 10.0, ThresholdSpec("thr2")
        )
        np.testing.assert_allclose(
            with_stats.train_errors, pre_normalized.train_errors, atol=1e-10
        )
        got = [d.score for d in score(with_stats, raw.samples)]
        np.testing.assert_allclose(got, with_stats.train_errors, atol=1e-8)

    def test_thr3_decisions_per_sample(self):
        X = _cloud(21, count=30)
        model = train_reconstruction(
            X, rbf_kernel(1.5), 1e6, ThresholdSpec("thr3")
        )
        decisions = score(model, X)
        assert all(d.is_target for d in decisions)
        assert all(d.thresh == 0.1 for d in decisions)

    def test_feature_count_checked(self):
        model = train_boundary(
            _cloud(22, n=3), rbf_kernel(1.0), 1.0, ThresholdSpec("thr1")
        )
        with pytest.raises(DimensionMismatch):
            score(model, np.zeros((2, 4)))

    def test_accepts_dataset_input(self):
        data = gen_banana(40, noise_std=0.5, seed=2)
        model = train_boundary(
            data, rbf_kernel(2.0), 10.0, ThresholdSpec("thr1")
        )
        assert len(score(model, data)) == 40


@pytest.mark.parametrize("train", [train_boundary, train_reconstruction])
@pytest.mark.parametrize(
    "mapping", [rbf_kernel(2.0), random_kernel(100)], ids=["rbf", "random"]
)
def test_training_peak_memory(train, mapping):
    """Training holds Omega, N^2 doubles, and the solve factors it in
    Omega's own memory: at N = 1500 the tracemalloc peak was 1.18-1.25 N^2
    doubles, where factoring a copy of Omega took 2.01-2.08 N^2."""
    n = 1500
    X = _cloud(23, count=n, n=5)
    tracemalloc.start()
    try:
        train(X, mapping, 1.0, ThresholdSpec("thr1"), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * n * n * 8
