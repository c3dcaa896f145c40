"""Exception hierarchy for the toolbox: one class per failure kind.

Toolbox refusals derive from OccelmError (CLI exit 1). Three kinds stay
builtins: an argument out of range is a ValueError (exit 1; the selection
scan counts an OccelmError as a failed grid point, and a bad grid value
must not become a NAN point), an unknown variant or a flag the run does
not read a KeyError (exit 2), and a dead selection worker a
ChildProcessError (exit 1).
"""


class OccelmError(Exception):
    """Base class for all toolbox errors."""


# dataset
class ParseError(OccelmError):
    """A CSV file failed to parse: a bad cell (the message names row and
    column), ragged rows, no rows, a header only or an unknown label token."""


class TooFewSamples(OccelmError):
    """An operation needs more rows than were given: targets, outliers,
    N0 >= m initial rows, errors, decisions, runs or two distinct rows."""


class DimensionMismatch(OccelmError):
    """Shapes are inconsistent: matrices and vectors, decisions vs labels,
    or a grid export of a model not trained on 2-D data."""


class MissingLabels(OccelmError):
    """A labeled dataset was required."""


# linsolve
class SingularSystem(OccelmError):
    """Neither Cholesky nor the eigen fallback met the residual bound; the
    message states the 2-norm condition of Omega + I/C (nan for a NaN)."""


class RankDeficient(OccelmError):
    """H0'H0 is numerically singular (condition number reported)."""


# threshold
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


# model io
class ModelFormatError(OccelmError):
    """Model file is malformed or has an unsupported version."""
