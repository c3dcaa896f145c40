"""Confusion accounting, the six evaluation measures (percent), and
multi-run aggregation.

AUC here is the single-threshold balanced accuracy
(sensitivity + specificity) / 2, not ROC area. Undefined ratios (0/0)
become NAN and propagate through aggregation unchanged; report CSVs render
them as the literal token "NAN".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewSamples
from .threshold import Decisions


@dataclass(frozen=True)
class ConfusionCounts:
    """Target = positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class EvalReport:
    """Percent-scale measures; NAN marks undefined ratios."""

    precision: float
    recall: float
    specificity: float
    f1: float
    accuracy: float
    auc: float
    std_auc: float = 0.0
    run_count: int = 1


# each measure's EvalReport field and column name, in report order
MEASURES = (("precision", "precision"), ("recall", "recall"), ("specificity", "specificity"),
            ("f1", "F1"), ("accuracy", "ACC"), ("auc", "AUC"))


def confuse(decisions: Decisions, labels) -> ConfusionCounts:
    """Tally the verdicts of decisions against boolean labels
    (True = target)."""
    predicted = decisions.is_target
    actual = np.asarray(labels, dtype=bool)
    if predicted.shape != actual.shape:
        raise DimensionMismatch(f"{predicted.shape[0]} decisions vs {actual.shape[0]} labels")
    if predicted.size == 0:
        raise TooFewSamples("need at least one decision")
    return ConfusionCounts(
        tp=int(np.count_nonzero(predicted & actual)),
        fp=int(np.count_nonzero(predicted & ~actual)),
        tn=int(np.count_nonzero(~predicted & ~actual)),
        fn=int(np.count_nonzero(~predicted & actual)),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("nan")


def measures(c: ConfusionCounts) -> EvalReport:
    """Single-run report: precision, recall, specificity, F1, accuracy,
    AUC, all in percent."""
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    specificity = _ratio(c.tn, c.tn + c.fp)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    accuracy = _ratio(c.tp + c.tn, c.total)
    auc = (recall + specificity) / 2.0
    return EvalReport(
        precision=100.0 * precision,
        recall=100.0 * recall,
        specificity=100.0 * specificity,
        f1=100.0 * f1,
        accuracy=100.0 * accuracy,
        auc=100.0 * auc,
    )


def aggregate(runs: list[EvalReport]) -> EvalReport:
    """Mean of each measure over runs (NAN-propagating) plus the sample
    standard deviation of the per-run AUC (0 for a single run)."""
    if not runs:
        raise TooFewSamples("aggregate needs at least one run")
    std_auc = 0.0 if len(runs) == 1 else float(np.std([r.auc for r in runs], ddof=1))
    return EvalReport(
        **{f: float(np.mean([getattr(r, f) for r in runs])) for f, _ in MEASURES},
        std_auc=std_auc,
        run_count=len(runs),
    )


def render_value(value: float) -> str:
    """Two-decimal cell text with NAN spelled literally."""
    return "NAN" if math.isnan(value) else f"{value:.2f}"


REPORT_COLUMNS = ["dataset", "classifier", "variant", "F1", "ACC", "AUC", "Std_AUC"]

