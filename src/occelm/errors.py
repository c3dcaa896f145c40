"""Exception hierarchy for the toolbox.

Every error raised by occelm derives from OccelmError so callers (and the
CLI) can catch toolbox failures with a single except clause.
"""


class OccelmError(Exception):
    """Base class for all toolbox errors."""


# dataset
class ParseError(OccelmError):
    """A CSV cell failed to parse; the message names row and column."""


class RaggedRows(OccelmError):
    """CSV rows disagree on column count."""


class EmptyFile(OccelmError):
    """CSV contains no data rows."""


class UnknownLabelToken(OccelmError):
    """Label cell holds a token outside the accepted map."""


class TooFewSamples(OccelmError):
    """An operation needs more rows than were given."""


class DimensionMismatch(OccelmError):
    """Matrix/vector shapes are inconsistent."""


class MissingLabels(OccelmError):
    """A labeled dataset was required."""


class NoTargets(OccelmError):
    """The labeled dataset contains no target rows."""


class NoOutliers(OccelmError):
    """The labeled dataset contains no outlier rows."""


# linsolve
class SingularSystem(OccelmError):
    """The regularized system could not be solved to tolerance."""


class RankDeficient(OccelmError):
    """H0'H0 is numerically singular (condition number reported)."""


class TooFewInitialSamples(OccelmError):
    """Initial chunk smaller than the hidden width (N0 < m)."""


# threshold
class EmptyErrors(OccelmError):
    """Threshold fitting needs at least one error value."""


class Thr3NotApplicable(OccelmError):
    """Thr3 is defined only for reconstruction-based models."""


# scoring
class NonFiniteOutput(OccelmError):
    """Finite rows overflowed to inf or NAN in the z-score stats, a z-scored
    value or a model output (the message names the first such row)."""


# online
class AlreadyFinalized(OccelmError):
    """Sequential updates are closed once a model is finalized."""


class NotFinalized(OccelmError):
    """Scoring/saving an online model requires finalize first."""


# modelsel
class AllPointsIdentical(OccelmError):
    """No nonzero pairwise distance exists to build a sigma grid."""


# metrics
class LengthMismatch(OccelmError):
    """Decision and label vectors differ in length."""


class EmptyRuns(OccelmError):
    """Aggregation needs at least one run."""


# cli / model io
class NotTwoDimensional(OccelmError):
    """Boundary-grid export needs a model trained on 2-D data."""


class ModelFormatError(OccelmError):
    """Model file is malformed or has an unsupported version."""
