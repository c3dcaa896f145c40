"""Property tests: the columnar decision path equals, bit for bit, the
per-row rules it replaced (one thr3 verdict and one strict comparison per
sample), including the singular and tie edges of each rule."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from occelm.offline import BOUNDARY, RECONSTRUCTION, decide
from occelm.threshold import Decision, Decisions, ThresholdSpec, relative_errors

_EPS = 1e-12


def _ref_relative_errors(a, p):
    num = np.abs(a - p)
    den = np.abs(a + p)
    err = np.empty_like(num)
    regular = den >= _EPS
    err[regular] = num[regular] / den[regular]
    err[~regular] = np.where(num[~regular] < _EPS, 0.0, 1.0)
    return err


def _ref_thr3(a, p, condn1, condn2_frac):
    err = _ref_relative_errors(a, p)
    n = err.size
    not_well = int(np.count_nonzero(err >= condn1))
    return Decision(not_well <= condn2_frac * n, not_well / n, condn2_frac)


def _ref_apply(score, thresh):
    return Decision(bool(score < thresh), float(score), float(thresh))


def _ref_decide(model, Xs, O):
    """The per-row decision loop, one Python Decision per sample."""
    kind = model.tspec.kind
    if model.family == BOUNDARY:
        dev = O.ravel() - model.R
        errors = np.abs(dev) if kind == "thr1" else dev**2
        return [_ref_apply(e, model.thresh) for e in errors]
    if kind == "thr3":
        return [
            _ref_thr3(Xs[i], O[i], model.tspec.condn1, model.tspec.condn2_frac)
            for i in range(Xs.shape[0])
        ]
    errors = ((Xs - O) ** 2).sum(axis=1)
    return [_ref_apply(e, model.thresh) for e in errors]


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _assert_same(got: Decisions, ref: list[Decision]) -> None:
    assert isinstance(got, Decisions)
    assert len(got) == len(ref)
    assert got.is_target.tolist() == [d.is_target for d in ref]
    assert got.score.tobytes() == _bits([d.score for d in ref])
    assert got.thresh.tobytes() == _bits([d.thresh for d in ref])
    for d, r in zip(got, ref):
        assert type(d.is_target) is bool and d.is_target == r.is_target
        assert _bits([d.score, d.thresh]) == _bits([r.score, r.thresh])


# Each cell of a predicted matrix is built from its actual value by one of
# these rules, so singular denominators and exact condn1 hits show up often.
_RANDOM, _NEGATED, _ZERO_PAIR, _AT_HALF, _EQUAL, _NEAR_NEGATED = range(6)


@st.composite
def _pairs(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 10))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    A = np.array(draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)))
    P = np.array(draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)))
    rule = np.array(
        draw(st.lists(st.integers(0, 5), min_size=rows * cols, max_size=rows * cols))
    )
    scale = 2.0 ** np.array(
        draw(st.lists(st.integers(-4, 4), min_size=rows * cols, max_size=rows * cols))
    )
    P = np.where(rule == _NEGATED, -A, P)
    A = np.where(rule == _ZERO_PAIR, 0.0, A)
    P = np.where(rule == _ZERO_PAIR, 0.0, P)
    # |3s - s| / |3s + s| is exactly 0.5 for a power-of-two scale s
    A = np.where(rule == _AT_HALF, 3.0 * scale, A)
    P = np.where(rule == _AT_HALF, scale, P)
    P = np.where(rule == _EQUAL, A, P)
    # |a + p| of one ulp: nonzero, yet below the singular cutoff
    P = np.where(rule == _NEAR_NEGATED, np.nextafter(-A, 0.0), P)
    return A.reshape(rows, cols), P.reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(
    pair=_pairs(),
    condn1=st.sampled_from([0.5, 0.25, 1.0, 0.0]) | st.floats(0.0, 2.0),
    budget=st.integers(0, 10),
)
def test_thr3_matches_per_row_rule(pair, condn1, budget):
    """Relative errors exactly at condn1 count as bad, and a bad-feature
    count exactly at the condn2_frac budget still accepts."""
    Xs, O = pair
    cols = Xs.shape[1]
    condn2_frac = min(budget, cols) / cols  # the budget lands on a whole count
    model = SimpleNamespace(
        family=RECONSTRUCTION,
        tspec=ThresholdSpec("thr3", condn1=condn1, condn2_frac=condn2_frac),
        thresh=float("nan"),
        R=1.0,
    )
    _assert_same(decide(model, Xs, O), _ref_decide(model, Xs, O))


@settings(max_examples=200, deadline=None)
@given(pair=_pairs(), poison=st.integers(0, 2**32 - 1))
def test_relative_errors_match_masked_form(pair, poison):
    """Bit for bit, non-finite cells included: NaN and inf in either
    operand, and signed zeros."""
    A, P = pair
    rng = np.random.default_rng(poison)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    for M in (A, P):
        hit = rng.random(M.shape) < 0.2
        M[hit] = rng.choice(special, np.count_nonzero(hit))
    with np.errstate(invalid="ignore"):
        assert relative_errors(A, P).tobytes() == _ref_relative_errors(A, P).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    pair=_pairs(),
    family=st.sampled_from([BOUNDARY, RECONSTRUCTION]),
    kind=st.sampled_from(["thr1", "thr2"]),
    R=st.sampled_from([1.0, -2.5, 0.0]),
    tie=st.integers(0, 11),
    offset=st.sampled_from([0.0, 0.0, -1e-9, 1e-9, 5.0]),
)
def test_thr1_thr2_match_per_row_rule(pair, family, kind, R, tie, offset):
    """Strict rule: a score equal to the threshold rejects."""
    Xs, A = pair
    O = A[:, :1] if family == BOUNDARY else A
    probe = SimpleNamespace(family=family, tspec=ThresholdSpec(kind), thresh=0.0, R=R)
    scores = [d.score for d in _ref_decide(probe, Xs, O)]
    # the cut is one of the scores itself (a tie) or just beside it
    thresh = scores[tie % len(scores)] + offset
    model = SimpleNamespace(family=family, tspec=ThresholdSpec(kind), thresh=thresh, R=R)
    ref = _ref_decide(model, Xs, O)
    if offset == 0.0:
        assert not ref[tie % len(scores)].is_target
    _assert_same(decide(model, Xs, O), ref)


def test_indexing_and_iteration_give_decision():
    got = Decisions(
        is_target=np.array([True, False]),
        score=np.array([0.25, 2.0]),
        thresh=np.array([1.0, 1.0]),
    )
    assert got[0] == Decision(True, 0.25, 1.0)
    assert got[-1] == Decision(False, 2.0, 1.0)
    assert list(got) == [got[0], got[1]]
    assert len(got) == 2
