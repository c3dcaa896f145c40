"""Tests for the three threshold criteria and the strict decision rule."""

import numpy as np
import pytest

from occelm.threshold import (
    Decision,
    ThresholdSpec,
    apply_threshold,
    relative_errors,
    thr1_fit,
    thr2_fit,
    thr3_decide,
)
from occelm.errors import DimensionMismatch, TooFewSamples


class TestThr1:
    def test_ten_errors_fracrej_tenth(self):
        """fracrej=0.1 on 10 errors picks the single largest error."""
        errors = np.arange(1.0, 11.0)
        assert thr1_fit(errors, 0.1) == 10.0

    def test_twenty_errors_fracrej_tenth(self):
        """round(0.1 * 20) = 2, so the 2nd largest error is the cut."""
        errors = np.arange(1.0, 21.0)
        assert thr1_fit(errors, 0.1) == 19.0

    def test_half_up_index(self):
        """N=5, fracrej=0.1: index round(0.5) = 1 picks the maximum."""
        errors = np.array([3.0, 1.0, 4.0, 1.5, 2.0])
        assert thr1_fit(errors, 0.1) == 4.0

    def test_zero_fracrej_clamps_to_max(self):
        errors = np.array([2.0, 7.0, 5.0])
        assert thr1_fit(errors, 0.0) == 7.0

    def test_high_fracrej_clamps_to_min(self):
        errors = np.array([2.0, 7.0, 5.0])
        assert thr1_fit(errors, 0.99) == 2.0

    def test_order_invariant(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            errors = rng.uniform(0.0, 5.0, int(rng.integers(1, 40)))
            t = thr1_fit(errors, 0.2)
            assert t == thr1_fit(errors[::-1], 0.2)
            assert t == thr1_fit(np.sort(errors), 0.2)

    def test_threshold_is_an_observed_error(self):
        rng = np.random.default_rng(21)
        errors = rng.uniform(0.0, 1.0, 30)
        assert thr1_fit(errors, 0.1) in errors

    def test_rejection_rate_close_to_fracrej(self):
        """Strict score < thresh rejects about fracrej of the fit errors."""
        rng = np.random.default_rng(90)
        errors = rng.uniform(0.0, 1.0, 200)
        t = thr1_fit(errors, 0.1)
        rejected = np.count_nonzero(errors >= t)
        assert rejected == 20

    def test_empty_errors_rejected(self):
        with pytest.raises(TooFewSamples, match="^thr1_fit needs at least one error$"):
            thr1_fit(np.array([]), 0.1)

    def test_fracrej_range_checked(self):
        with pytest.raises(ValueError):
            thr1_fit(np.ones(3), 1.0)
        with pytest.raises(ValueError):
            thr1_fit(np.ones(3), -0.1)


class TestThr2:
    def test_hand_case(self):
        """Errors 1..5: mean 3, sample std sqrt(2.5)."""
        errors = np.arange(1.0, 6.0)
        expected = 3.0 + 0.2 * np.sqrt(2.5)
        np.testing.assert_allclose(thr2_fit(errors), expected, atol=1e-14)

    def test_constant_errors(self):
        assert thr2_fit(np.full(4, 2.5)) == 2.5

    def test_custom_multiplier(self):
        errors = np.array([0.0, 2.0])
        np.testing.assert_allclose(
            thr2_fit(errors, std_mult=1.0), 1.0 + np.sqrt(2.0), atol=1e-14
        )

    def test_needs_two_errors(self):
        with pytest.raises(TooFewSamples):
            thr2_fit(np.array([1.0]))

    def test_above_mean(self):
        rng = np.random.default_rng(44)
        for trial in range(20):
            errors = rng.uniform(0.0, 3.0, int(rng.integers(2, 50)))
            assert thr2_fit(errors) >= errors.mean()


class TestRelativeErrors:
    def test_hand_values(self):
        actual = np.array([1.0, 2.0])
        predicted = np.array([3.0, 2.0])
        np.testing.assert_allclose(
            relative_errors(actual, predicted), [0.5, 0.0], atol=1e-15
        )

    def test_singular_denominator_agreement(self):
        """a = p = 0 and a = -p with equal values both hit |a+p| ~ 0."""
        err = relative_errors([0.0, 1.0], [0.0, -1.0])
        assert err[0] == 0.0
        assert err[1] == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0.5, 2.0, 6)
        p = rng.uniform(0.5, 2.0, 6)
        np.testing.assert_allclose(
            relative_errors(a, p), relative_errors(10.0 * a, 10.0 * p),
            atol=1e-12,
        )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_errors([1.0, 2.0], [1.0])


class TestThr3:
    def test_perfect_reconstruction_is_target(self):
        d = thr3_decide([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d.is_target[0]
        assert d.score[0] == 0.0

    def test_inclusive_feature_budget(self):
        """With 10 features and condn2_frac=0.1, exactly one bad feature
        still counts as a target (inclusive comparison)."""
        actual = np.ones(10)
        predicted = np.ones(10)
        predicted[0] = 100.0
        d = thr3_decide(actual, predicted, condn1=0.5, condn2_frac=0.1)
        assert d.is_target[0]
        assert d.score[0] == 0.1

    def test_one_over_budget_rejects(self):
        actual = np.ones(10)
        predicted = np.ones(10)
        predicted[0] = 100.0
        predicted[1] = 100.0
        d = thr3_decide(actual, predicted, condn1=0.5, condn2_frac=0.1)
        assert not d.is_target[0]
        assert d.score[0] == 0.2

    def test_condn1_boundary_counts_as_bad(self):
        """A feature whose relative error equals condn1 is already bad."""
        d = thr3_decide([3.0], [1.0], condn1=0.5, condn2_frac=0.0)
        assert not d.is_target[0]

    def test_just_below_condn1_is_fine(self):
        d = thr3_decide([2.9], [1.0], condn1=0.5, condn2_frac=0.0)
        assert d.is_target[0]

    def test_score_is_bad_feature_fraction(self):
        rng = np.random.default_rng(33)
        for trial in range(20):
            n = int(rng.integers(1, 12))
            a = rng.uniform(0.5, 2.0, n)
            p = rng.uniform(0.5, 2.0, n)
            d = thr3_decide(a, p)
            bad = np.count_nonzero(relative_errors(a, p) >= 0.5)
            assert d.score[0] == bad / n
            assert d.thresh[0] == 0.1

    def test_empty_vectors_rejected(self):
        with pytest.raises(DimensionMismatch):
            thr3_decide([], [])


class TestApplyThreshold:
    def test_strict_rule(self):
        """Equality means rejection: target iff score < thresh."""
        d = apply_threshold([0.9, 1.0, 1.1], 1.0)
        assert d.is_target.tolist() == [True, False, False]

    def test_decision_carries_inputs(self):
        assert list(apply_threshold([0.25], 0.75)) == [Decision(True, 0.25, 0.75)]


class TestThresholdSpec:
    def test_defaults(self):
        spec = ThresholdSpec("thr1")
        assert spec.fracrej == 0.1
        assert spec.std_mult == 0.2
        assert spec.condn1 == 0.5
        assert spec.condn2_frac == 0.1

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            ThresholdSpec("thr4")

    def test_fracrej_checked(self):
        with pytest.raises(ValueError):
            ThresholdSpec("thr1", fracrej=1.0)
