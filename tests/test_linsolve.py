"""Tests for the regularized batch solve and the RLS recursion."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from occelm.featuremap import (
    hidden_apply,
    hidden_init,
    kernel_gram,
    random_kernel_gram,
    rbf_kernel,
)
from occelm.linsolve import RlsState, rls_init, rls_update, solve_regularized
from occelm.errors import (
    DimensionMismatch,
    RankDeficient,
    SingularSystem,
    TooFewInitialSamples,
)


class TestSolveRegularized:
    def test_identity_omega_scales_rhs(self):
        """With Omega = I and C = 1 the system is 2 beta = T."""
        T = np.array([2.0, 4.0, -6.0])
        beta = solve_regularized(np.eye(3), T, 1.0)
        np.testing.assert_allclose(beta, T / 2.0, atol=1e-12)

    def test_zero_omega_recovers_c_times_t(self):
        """Omega = 0 collapses to beta = C * T."""
        T = np.array([[1.0, -1.0], [0.5, 2.0]])
        beta = solve_regularized(np.zeros((2, 2)), T, 10.0)
        np.testing.assert_allclose(beta, 10.0 * T, atol=1e-10)

    def test_residual_bound(self):
        """Residual stays below 1e-8 * (1 + ||T||) on random PSD systems."""
        rng = np.random.default_rng(101)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            G = rng.normal(0.0, 1.0, (n, n))
            omega = G @ G.T
            T = rng.normal(0.0, 1.0, (n, 2))
            C = float(10.0 ** rng.integers(-8, 9))
            beta = solve_regularized(omega, T, C)
            A = omega + np.eye(n) / C
            resid = np.linalg.norm(T - A @ beta)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(T))

    @pytest.mark.parametrize("C", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_bits_match_dense_identity_form(self, C):
        """Adding 1/C on the diagonal in place, and reusing the last
        residual norm, gives the bits of the form that builds I / C and
        recomputes the final residual; signed zeros in Omega included."""
        rng = np.random.default_rng(int(np.log10(C)) + 20)
        H = rng.normal(0.0, 1.0, (30, 40))
        omega = H @ H.T
        omega[:15, 15:] = omega[15:, :15] = -0.0
        T = rng.normal(0.0, 1.0, (30, 3))
        A = omega + np.eye(30) / C
        factor = scipy.linalg.cho_factor(A, check_finite=False)
        beta = scipy.linalg.cho_solve(factor, T, check_finite=False)
        tol = 1e-8 * (1.0 + np.linalg.norm(T))
        for _ in range(4):
            residual = T - A @ beta
            if np.linalg.norm(residual) <= tol:
                break
            beta = beta + scipy.linalg.cho_solve(factor, residual, check_finite=False)
        assert np.linalg.norm(T - A @ beta) <= tol
        assert solve_regularized(omega, T, C).tobytes() == beta.tobytes()

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(55)
        G = rng.normal(0.0, 1.0, (12, 12))
        omega = G @ G.T
        T = rng.normal(0.0, 1.0, 12)
        beta = solve_regularized(omega, T, 100.0)
        expected = np.linalg.solve(omega + np.eye(12) / 100.0, T)
        np.testing.assert_allclose(beta, expected, atol=1e-9)

    def test_vector_rhs_keeps_shape(self):
        beta = solve_regularized(np.eye(2), np.array([1.0, 2.0]), 1.0)
        assert beta.shape == (2,)
        beta2 = solve_regularized(np.eye(2), np.array([[1.0], [2.0]]), 1.0)
        assert beta2.shape == (2, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_regularized(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(DimensionMismatch):
            solve_regularized(np.zeros((2, 3)), np.zeros(2), 1.0)
        with pytest.raises(DimensionMismatch):
            solve_regularized(np.eye(2), np.zeros(3), 1.0)

    def test_empty_system_gives_empty_beta(self):
        assert solve_regularized(np.zeros((0, 0)), np.zeros(0), 1.0).shape == (0,)
        assert solve_regularized(np.zeros((0, 0)), np.zeros((0, 2)), 1.0).shape == (0, 2)

    def test_exactly_singular_system_raises(self):
        """Omega with eigenvalue -1/C makes the shifted matrix singular."""
        omega = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularSystem):
            solve_regularized(omega, np.array([1.0, 0.0]), 1.0)


def _dense_reference(omega, T, C):
    """The solve with Omega + I/C held apart from its factor: a dense
    "omega + 0.0" copy with 1/C added to the diagonal, cho_factor, or
    lu_factor when Cholesky fails, refined against that copy. Returns
    None where the residual bound is not met."""
    T2 = T.reshape(-1, 1) if T.ndim == 1 else T
    A = omega + 0.0
    A.flat[:: A.shape[0] + 1] += 1.0 / C
    tol = 1e-8 * (1.0 + np.linalg.norm(T2))
    try:
        factor = scipy.linalg.cho_factor(A, check_finite=False)

        def solve(rhs):
            return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    except scipy.linalg.LinAlgError:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(A, check_finite=False)

        def solve(rhs):
            return scipy.linalg.lu_solve(lu, rhs, check_finite=False)

    with np.errstate(all="ignore"):
        beta = solve(T2)
        for _ in range(4):
            residual = T2 - A @ beta
            final = np.linalg.norm(residual)
            if final <= tol:
                break
            beta = beta + solve(residual)
        else:
            final = np.linalg.norm(T2 - A @ beta)
    if not final <= tol:
        return None
    return beta.ravel() if T.ndim == 1 else beta


@st.composite
def _borrowed_systems(draw):
    """Omega of one of five kinds (PSD, PSD with -0.0 off-diagonal blocks,
    indefinite so Cholesky fails, exactly singular once shifted, or with a
    NaN), in one of four layouts (C order, Fortran order, a strided view,
    read-only), with C from 1e-8 to 1e8 and a 1-D or 2-D T."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["psd", "signed_zero", "indefinite", "singular", "nan"]))
    C = 10.0 ** draw(st.floats(-8.0, 8.0))
    if kind == "singular":
        # 1/C is a power of two, so (1 - 1/C) + 1/C is exactly 1 and the
        # shifted matrix is all ones: rank one
        C = 2.0 ** draw(st.integers(-20, 20))
        n = max(n, 2)
        omega = np.ones((n, n))
        omega.flat[:: n + 1] -= 1.0 / C
    elif kind == "indefinite":
        G = rng.normal(0.0, 1.0, (n, n))
        omega = G + G.T - (2.0 * n + 1.0 / C) * np.eye(n)
    else:
        H = rng.normal(0.0, 1.0, (n, int(rng.integers(1, 60))))
        omega = H @ H.T
        if kind == "signed_zero":
            half = n // 2
            omega[:half, half:] = omega[half:, :half] = -0.0
        if kind == "nan":
            omega[rng.integers(n), rng.integers(n)] = np.nan
    layout = draw(st.sampled_from(["C", "F", "strided", "readonly"]))
    if layout == "F":
        omega = np.asfortranarray(omega)
    elif layout == "strided":
        wide = np.full((n, 2 * n), 7.0)
        wide[:, ::2] = omega
        omega = wide[:, ::2]
    elif layout == "readonly":
        omega.flags.writeable = False
    k = draw(st.integers(0, 4))
    T = rng.normal(0.0, 1.0, n if k == 0 else (n, k))
    return omega, T, C


class TestBorrowedOmega:
    """solve_regularized factors in its own Fortran-order workspace and
    borrows Omega, its diagonal shifted by 1/C, as the refinement operator:
    beta keeps the bits of the dense reference and Omega ends unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(_borrowed_systems())
    def test_bits_match_dense_reference_and_omega_is_restored(self, case):
        omega, T, C = case
        before = omega.tobytes()
        expected = _dense_reference(omega, T, C)
        if expected is None:
            with pytest.raises(SingularSystem):
                solve_regularized(omega, T, C)
        else:
            beta = solve_regularized(omega, T, C)
            assert beta.shape == expected.shape
            assert beta.tobytes() == expected.tobytes()
        assert omega.tobytes() == before

    def test_indefinite_case_takes_the_lu_fallback(self):
        """The indefinite kind above really fails Cholesky, so the LU
        branch and its refill of the workspace are covered."""
        G = np.random.default_rng(3).normal(0.0, 1.0, (6, 6))
        omega = G + G.T - 13.0 * np.eye(6)
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(omega + np.eye(6))
        T = np.arange(6.0)
        assert solve_regularized(omega, T, 1.0).tobytes() == (
            _dense_reference(omega, T, 1.0).tobytes()
        )

    def test_omega_sharing_memory_with_t_is_copied(self):
        """A right-hand side that views Omega's diagonal stays unshifted."""
        rng = np.random.default_rng(8)
        H = rng.normal(0.0, 1.0, (12, 20))
        omega = H @ H.T
        T = omega[:, :2]
        expected = _dense_reference(omega, T.copy(), 0.5)
        assert solve_regularized(omega, T, 0.5).tobytes() == expected.tobytes()

    def test_peak_memory_is_one_workspace(self):
        """The solve's own peak is one N x N workspace plus O(N k); with
        Omega + I/C held apart from its factor it was 2.00 N^2 doubles."""
        n, k = 1500, 2
        rng = np.random.default_rng(4)
        H = rng.normal(0.0, 1.0, (n, 60))
        omega = H @ H.T
        T = rng.normal(0.0, 1.0, (n, k))
        tracemalloc.start()
        try:
            solve_regularized(omega, T, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * n * 8 + 16 * n * (k + 1) * 8


def _fortran_copy_reference(omega, T, C):
    """The solve as it stood before C-order Omega was copied through its
    transpose: Omega + I/C copied into a Fortran-order array by a
    transposing copy, dpotrf/dpotrs on it, or LU of a refill when Cholesky
    fails, refined against Omega + I/C."""
    A = omega + 0.0
    A.flat[:: A.shape[0] + 1] += 1.0 / C
    F = np.add(A, 0.0, out=np.empty(A.shape, order="F"))
    tol = 1e-8 * (1.0 + np.linalg.norm(T))
    _, info = scipy.linalg.lapack.dpotrf(F, lower=0, clean=0, overwrite_a=1)
    if info == 0:

        def solve(rhs):
            return scipy.linalg.lapack.dpotrs(F, rhs, lower=0)[0]

    else:
        np.add(A, 0.0, out=F)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(F, overwrite_a=True, check_finite=False)

        def solve(rhs):
            return scipy.linalg.lu_solve(lu, rhs, check_finite=False)

    beta = solve(T)
    for _ in range(4):
        residual = T - A @ beta
        if np.linalg.norm(residual) <= tol:
            break
        beta = beta + solve(residual)
    assert np.linalg.norm(T - A @ beta) <= tol  # the cases below all solve
    return beta, info == 0


def _symmetric_omega(kind, n=183):
    rng = np.random.default_rng(n)
    X = rng.normal(0.0, 1.0, (n, 5))
    if kind == "rbf":
        return kernel_gram(rbf_kernel(1.5), X, X)
    if kind == "random":
        return random_kernel_gram(hidden_apply(hidden_init("rbf", 400, 5, 1), X))
    G = rng.normal(0.0, 1.0, (n, n))
    return G + G.T - 1e9 * np.eye(n)  # indefinite at every C here


class TestWorkspaceCopy:
    """A C-order Omega reaches LAPACK through its transpose; on the
    bitwise-symmetric Omega the library builds, beta keeps the bits of the
    transposing Fortran-order copy, and Omega ends unchanged."""

    @pytest.mark.parametrize("C", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["rbf", "random", "indefinite"])
    def test_beta_bits_match_fortran_copy(self, kind, order, C):
        omega = _symmetric_omega(kind)
        assert np.array_equal(omega, omega.T)
        omega = np.asarray(omega, order=order)
        assert omega.flags[f"{order}_CONTIGUOUS"]
        T = np.random.default_rng(2).normal(0.0, 1.0, (omega.shape[0], 2))
        before = omega.tobytes(order="A")
        expected, cholesky = _fortran_copy_reference(omega, T, C)
        assert cholesky == (kind != "indefinite")
        assert solve_regularized(omega, T, C).tobytes() == expected.tobytes()
        assert omega.tobytes(order="A") == before


class TestRlsInit:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(77)
        H0 = rng.normal(0.0, 1.0, (15, 6))
        T0 = rng.normal(0.0, 1.0, (15, 2))
        state = rls_init(H0, T0)
        G = H0.T @ H0
        np.testing.assert_allclose(state.P, np.linalg.inv(G), atol=1e-9)
        expected_beta, *_ = np.linalg.lstsq(H0, T0, rcond=None)
        np.testing.assert_allclose(state.beta, expected_beta, atol=1e-9)

    def test_p_is_symmetric(self):
        rng = np.random.default_rng(13)
        H0 = rng.normal(0.0, 1.0, (20, 8))
        state = rls_init(H0, rng.normal(0.0, 1.0, 20))
        np.testing.assert_array_equal(state.P, state.P.T)

    def test_needs_enough_rows(self):
        with pytest.raises(TooFewInitialSamples):
            rls_init(np.zeros((3, 5)), np.zeros(3))

    def test_rank_deficient_chunk_refused(self):
        H0 = np.ones((6, 3))
        with pytest.raises(RankDeficient):
            rls_init(H0, np.zeros(6))

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rls_init(np.zeros((4, 2)), np.zeros(5))


class TestRlsUpdate:
    def test_single_chunk_matches_batch(self):
        """init + one update equals the batch least-squares fit."""
        rng = np.random.default_rng(3)
        H0 = rng.normal(0.0, 1.0, (12, 5))
        H1 = rng.normal(0.0, 1.0, (7, 5))
        T0 = rng.normal(0.0, 1.0, (12, 1))
        T1 = rng.normal(0.0, 1.0, (7, 1))
        state = rls_update(rls_init(H0, T0), H1, T1)
        H = np.vstack([H0, H1])
        T = np.vstack([T0, T1])
        expected, *_ = np.linalg.lstsq(H, T, rcond=None)
        np.testing.assert_allclose(state.beta, expected, atol=1e-9)
        np.testing.assert_allclose(state.P, np.linalg.inv(H.T @ H), atol=1e-9)

    def test_many_small_chunks_match_batch(self):
        """Row-at-a-time streaming agrees with the one-shot solution."""
        rng = np.random.default_rng(19)
        for trial in range(10):
            m = int(rng.integers(2, 7))
            n0 = m + int(rng.integers(0, 5))
            H0 = rng.normal(0.0, 1.0, (n0, m))
            T0 = rng.normal(0.0, 1.0, (n0, 2))
            state = rls_init(H0, T0)
            rows = [H0]
            ts = [T0]
            for _ in range(int(rng.integers(1, 15))):
                h = rng.normal(0.0, 1.0, (1, m))
                t = rng.normal(0.0, 1.0, (1, 2))
                state = rls_update(state, h, t)
                rows.append(h)
                ts.append(t)
            H = np.vstack(rows)
            T = np.vstack(ts)
            expected, *_ = np.linalg.lstsq(H, T, rcond=None)
            np.testing.assert_allclose(state.beta, expected, atol=1e-8)

    def test_update_returns_fresh_state(self):
        rng = np.random.default_rng(2)
        H0 = rng.normal(0.0, 1.0, (6, 3))
        state = rls_init(H0, rng.normal(0.0, 1.0, 6))
        P_before = state.P.copy()
        new = rls_update(state, rng.normal(0.0, 1.0, (1, 3)), [0.5])
        assert new is not state
        np.testing.assert_array_equal(state.P, P_before)

    def test_p_stays_symmetric(self):
        rng = np.random.default_rng(47)
        state = rls_init(
            rng.normal(0.0, 1.0, (10, 4)), rng.normal(0.0, 1.0, 10)
        )
        for _ in range(25):
            state = rls_update(
                state, rng.normal(0.0, 1.0, (2, 4)), rng.normal(0.0, 1.0, 2)
            )
            np.testing.assert_array_equal(state.P, state.P.T)

    def test_chunk_shape_checked(self):
        state = rls_init(np.eye(3), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            rls_update(state, np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            rls_update(state, np.zeros((2, 3)), np.zeros(3))


class TestRlsState:
    def test_vector_beta_reshaped(self):
        state = RlsState(np.eye(2), np.array([1.0, 2.0]))
        assert state.beta.shape == (2, 1)
        assert state.m == 2
        assert state.k == 1

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            RlsState(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            RlsState(np.eye(2), np.zeros((3, 1)))
