"""Tests for confusion accounting, percent measures, and aggregation."""

import math

import numpy as np
import pytest

from occelm.errors import DimensionMismatch, TooFewSamples
from occelm.metrics import (
    ConfusionCounts,
    EvalReport,
    aggregate,
    confuse,
    measures,
    render_value,
)
from occelm.threshold import apply_threshold


def _decisions(is_target):
    """Decisions with the given verdicts (score 0 accepts, 1 rejects)."""
    return apply_threshold([0.0 if t else 1.0 for t in is_target], 0.5)


class TestConfuse:
    def test_hand_tally(self):
        predicted = _decisions([True, True, False, False, True])
        actual = [True, False, False, True, True]
        c = confuse(predicted, actual)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
        assert c.total == 5

    def test_accepts_decisions(self):
        decisions = apply_threshold([0.1, 0.9], 0.5)
        c = confuse(decisions, [True, True])
        assert (c.tp, c.fn) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^1 decisions vs 2 labels$"):
            confuse(_decisions([True]), [True, False])

    def test_empty_rejected(self):
        with pytest.raises(TooFewSamples, match="^need at least one decision$"):
            confuse(_decisions([]), [])


class TestMeasures:
    def test_reference_counts(self):
        """Sensitivity 75.57 and specificity 98.38 average to AUC 86.98
        (balanced accuracy at the operating threshold, not ROC area)."""
        c = ConfusionCounts(tp=7557, fp=162, tn=9838, fn=2443)
        r = measures(c)
        np.testing.assert_allclose(r.recall, 75.57)
        np.testing.assert_allclose(r.specificity, 98.38)
        np.testing.assert_allclose(r.auc, 86.975)

    def test_perfect_classifier(self):
        r = measures(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
        assert r.precision == 100.0
        assert r.recall == 100.0
        assert r.specificity == 100.0
        assert r.f1 == 100.0
        assert r.accuracy == 100.0
        assert r.auc == 100.0

    def test_simple_hand_case(self):
        """tp=8 fp=2 tn=6 fn=4: precision 80, recall 66.67, f1 72.73."""
        r = measures(ConfusionCounts(tp=8, fp=2, tn=6, fn=4))
        np.testing.assert_allclose(r.precision, 80.0)
        np.testing.assert_allclose(r.recall, 100.0 * 8 / 12)
        np.testing.assert_allclose(r.specificity, 75.0)
        np.testing.assert_allclose(r.f1, 100.0 * 2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))
        np.testing.assert_allclose(r.accuracy, 70.0)
        np.testing.assert_allclose(r.auc, (100.0 * 8 / 12 + 75.0) / 2)

    def test_undefined_precision_is_nan(self):
        """No positive predictions: precision and F1 are undefined."""
        r = measures(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
        assert math.isnan(r.precision)
        assert math.isnan(r.f1)
        assert r.specificity == 100.0
        assert r.recall == 0.0

    def test_no_negatives_makes_auc_nan(self):
        """Specificity 0/0 poisons the AUC average."""
        r = measures(ConfusionCounts(tp=5, fp=0, tn=0, fn=0))
        assert math.isnan(r.specificity)
        assert math.isnan(r.auc)

    def test_single_run_defaults(self):
        r = measures(ConfusionCounts(tp=1, fp=1, tn=1, fn=1))
        assert r.std_auc == 0.0
        assert r.run_count == 1


class TestAggregate:
    def test_mean_and_std(self):
        runs = [
            EvalReport(80.0, 70.0, 90.0, 74.0, 82.0, 80.0),
            EvalReport(90.0, 80.0, 100.0, 84.0, 92.0, 90.0),
        ]
        agg = aggregate(runs)
        assert agg.auc == 85.0
        np.testing.assert_allclose(agg.std_auc, np.std([80.0, 90.0], ddof=1))
        assert agg.precision == 85.0
        assert agg.run_count == 2

    def test_single_run_zero_std(self):
        agg = aggregate([EvalReport(80.0, 70.0, 90.0, 74.0, 82.0, 80.0)])
        assert agg.std_auc == 0.0
        assert agg.run_count == 1

    def test_nan_propagates(self):
        runs = [
            EvalReport(80.0, 70.0, 90.0, 74.0, 82.0, 80.0),
            EvalReport(float("nan"), 80.0, 100.0, float("nan"), 92.0, 90.0),
        ]
        agg = aggregate(runs)
        assert math.isnan(agg.precision)
        assert math.isnan(agg.f1)
        assert agg.recall == 75.0

    def test_empty_rejected(self):
        with pytest.raises(TooFewSamples, match="^aggregate needs at least one run$"):
            aggregate([])

    def test_twenty_run_sample_std(self):
        rng = np.random.default_rng(15)
        aucs = rng.uniform(60.0, 95.0, 20)
        runs = [EvalReport(50.0, 50.0, 50.0, 50.0, 50.0, a) for a in aucs]
        agg = aggregate(runs)
        np.testing.assert_allclose(agg.std_auc, aucs.std(ddof=1), atol=1e-12)
        np.testing.assert_allclose(agg.auc, aucs.mean(), atol=1e-12)
        assert agg.run_count == 20


class TestRenderValue:
    def test_two_decimals(self):
        assert render_value(86.975) == "86.97"
        assert render_value(86.976) == "86.98"
        assert render_value(100.0) == "100.00"

    def test_nan_literal(self):
        assert render_value(float("nan")) == "NAN"
