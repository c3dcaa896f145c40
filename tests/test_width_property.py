"""Property tests: the default kernel width (bench.median_pairwise), the
selection's sigma grid (modelsel.sigma_grid) and the thr1 cut
(threshold.thr1_fit) take their order statistics without a full sort,
and give the bits of the sorting and masking formulas written out below
as references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from occelm.bench import median_pairwise
from occelm.dataset import round_half_up
from occelm.errors import TooFewSamples
from occelm.modelsel import sigma_grid
from occelm.threshold import thr1_fit

COINCIDE = "all rows coincide; no nonzero distance"


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


@st.composite
def tables(draw):
    """Small integer tables: duplicate rows, some NAN rows, and now and
    then rows that all coincide."""
    n = draw(st.integers(2, 24))
    cols = draw(st.integers(1, 3))
    cells = st.integers(-2, 2) if draw(st.booleans()) else st.integers(0, 0)
    X = np.array(draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                               min_size=n, max_size=n)), dtype=float)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        X[i] = np.nan
    return X


def _nonzero(X):
    d = pdist(X)
    return d[d > 0]


@settings(max_examples=300, deadline=None)
@given(tables())
@example(np.arange(4.0)[:, None])  # 6 distinct pairs at 3 values: an even count
@example(np.arange(3.0)[:, None])  # 3 pairs: an odd count
@example(np.array([[0.0], [0.0], [1.0], [np.nan]]))
def test_median_pairwise_is_the_median_of_the_nonzero_distances(X):
    d = _nonzero(X)
    if d.size == 0:
        with pytest.raises(TooFewSamples, match=COINCIDE):
            median_pairwise(X)
    else:
        assert _bits(median_pairwise(X)) == _bits(np.median(d))


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(2, 6))
def test_sigma_grid_spans_the_smallest_and_largest_nonzero_distance(X, count):
    d = _nonzero(X)
    if d.size == 0:
        with pytest.raises(TooFewSamples, match=COINCIDE):
            sigma_grid(X, count)
    else:
        assert _bits(sigma_grid(X, count)) == _bits(np.geomspace(d.min(), d.max(), count))


def test_rows_too_close_for_pdist_coincide():
    """pdist squares the differences, so rows 1e-170 apart are at distance
    0; its smallest nonzero distance still squares to a positive number,
    so no grid width reaches the rbf refusal of sigma**2 == 0."""
    with pytest.raises(TooFewSamples, match=COINCIDE):
        sigma_grid(np.array([[0.0], [1e-170]]))
    grid = sigma_grid(np.array([[0.0], [3e-162], [1.0]]))
    assert grid[0] ** 2 > 0


errors = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]),
              st.floats(min_value=0.0, allow_nan=False)),
    min_size=1, max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(errors, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_thr1_cut_is_the_sorted_descending_error(e, fracrej):
    e = np.array(e)
    index = min(max(round_half_up(fracrej * e.size), 1), e.size)
    assert _bits(thr1_fit(e, fracrej)) == _bits(np.sort(e)[::-1][index - 1])


def test_thr1_fit_leaves_its_errors_as_they_were():
    e = np.array([3.0, 1.0, 2.0, 0.0])
    thr1_fit(e, 0.5)
    assert e.tolist() == [3.0, 1.0, 2.0, 0.0]


def test_median_pairwise_selects_in_the_one_distance_buffer():
    """The peak is the N(N-1)/2 pdist buffer and a mask of one byte per
    distance; masking and np.median's copy once took it past 2x."""
    X = np.random.default_rng(0).normal(size=(1000, 9))
    buffer = 1000 * 999 // 2 * 8
    tracemalloc.start()
    try:
        median_pairwise(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * buffer
