"""Property tests of the sequential RLS update: any chunking of a stream
gives the batch least-squares weights within 1e-7 relative, and the
inverse information matrix P stays exactly symmetric and positive
definite after every update."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occelm.linsolve import rls_init, rls_update

_REL_BOUND = 1e-7


def _relative_drift(beta, H, T):
    direct, *_ = np.linalg.lstsq(H, T, rcond=None)
    return np.linalg.norm(beta - direct) / np.linalg.norm(direct)


def _assert_spd(P):
    np.testing.assert_array_equal(P, P.T)
    np.linalg.cholesky(P)


@st.composite
def _streams(draw):
    """Gaussian rows, an initial chunk of m..3m rows and follow-up chunks
    of 1..3m rows each."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    n0 = draw(st.integers(m, 3 * m))
    chunks = draw(st.lists(st.integers(1, 3 * m), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = n0 + sum(chunks)
    return rng.normal(0.0, 1.0, (N, m)), rng.normal(0.0, 1.0, (N, k)), n0, chunks


@settings(max_examples=200, deadline=None)
@given(_streams())
def test_random_chunkings_match_batch(stream):
    H, T, n0, chunks = stream
    # P0 = (H0'H0)^-1 squares the initial chunk's conditioning; the bound
    # presumes a comfortably conditioned start
    assume(np.linalg.cond(H[:n0]) <= 1e3)
    state = rls_init(H[:n0], T[:n0])
    _assert_spd(state.P)
    start = n0
    for size in chunks:
        state = rls_update(state, H[start : start + size], T[start : start + size])
        start += size
        _assert_spd(state.P)
    assert _relative_drift(state.beta, H, T) <= _REL_BOUND


def test_long_one_row_stream_matches_batch():
    """10^4 one-row updates after an initial chunk of 2m rows."""
    rng = np.random.default_rng(8)
    m, n0 = 20, 40
    H = rng.normal(0.0, 1.0, (n0 + 10_000, m))
    T = rng.normal(0.0, 1.0, (n0 + 10_000, 2))
    state = rls_init(H[:n0], T[:n0])
    for i in range(n0, H.shape[0]):
        state = rls_update(state, H[i : i + 1], T[i : i + 1])
        _assert_spd(state.P)
    assert _relative_drift(state.beta, H, T) <= _REL_BOUND
