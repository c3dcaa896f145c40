"""Exception hierarchy for the toolbox: one class per failure kind, 14 in all.

Every refusal derives from OccelmError. A BadArgument is also a ValueError
and a UsageError also a KeyError, so callers that catch the builtins keep
working. The CLI exits 2 for a UsageError and 1 for any other OccelmError or
an OSError. FIT_FAILURES are the failures a fit can meet at a valid grid
point: selection records that point as NAN, and any other error ends it.

One builtin stays: save_model's TypeError for an object that is no model
(a caller's programming error). Anything else ends in a traceback: a defect,
or a refused allocation (MemoryError), a limit of the machine, not a bad input.
"""


class OccelmError(Exception):
    """Base class for all toolbox errors."""


class BadArgument(OccelmError, ValueError):
    """An argument is out of range (the message names it and its range)."""


class UsageError(OccelmError, KeyError):
    """An unknown variant, node type or kernel, or a flag the run does not read."""


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


class SingularSystem(OccelmError):
    """Neither Cholesky nor the eigen fallback met the residual bound; the
    message states the 2-norm condition of Omega + I/C (nan for a NaN)."""


class RankDeficient(OccelmError):
    """H0'H0 is numerically singular (condition number reported)."""


class Thr3NotApplicable(OccelmError):
    """Thr3 is defined only for reconstruction-based models."""


class NonFiniteOutput(OccelmError):
    """Finite rows overflowed to inf or NAN in the z-score stats, a z-scored
    value or a model output (the message names the first such row)."""


class AlreadyFinalized(OccelmError):
    """Sequential updates are closed once a model is finalized."""


class NotFinalized(OccelmError):
    """Scoring/saving an online model requires finalize first."""


class ModelFormatError(OccelmError):
    """Model file is malformed or has an unsupported version."""


FIT_FAILURES = (SingularSystem, RankDeficient, NonFiniteOutput, TooFewSamples)
