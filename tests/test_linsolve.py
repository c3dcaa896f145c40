"""Tests for the regularized batch solve and the RLS recursion."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occelm import linsolve
from occelm.featuremap import (
    ADDITIVE_SIGMOID,
    RBF_NODE,
    hidden_apply,
    hidden_init,
    kernel_gram,
    linear_kernel,
    polynomial_kernel,
    random_kernel_gram,
    rbf_kernel,
)
from occelm.linsolve import RlsState, rls_init, rls_update, solve_regularized
from occelm.errors import (
    DimensionMismatch,
    RankDeficient,
    SingularSystem,
    TooFewSamples,
)


class TestSolveRegularized:
    def test_identity_omega_scales_rhs(self):
        """With Omega = I and C = 1 the system is 2 beta = T."""
        T = np.array([[2.0], [4.0], [-6.0]])
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
        T = rng.normal(0.0, 1.0, (12, 1))
        beta = solve_regularized(omega, T, 100.0)
        expected = np.linalg.solve(omega + np.eye(12) / 100.0, T)
        np.testing.assert_allclose(beta, expected, atol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_regularized(np.eye(2), np.zeros((2, 1)), 0.0)
        with pytest.raises(DimensionMismatch):
            solve_regularized(np.zeros((2, 3)), np.zeros((2, 1)), 1.0)
        with pytest.raises(DimensionMismatch):
            solve_regularized(np.eye(2), np.zeros((3, 1)), 1.0)

    def test_empty_system_gives_empty_beta(self):
        assert solve_regularized(np.zeros((0, 0)), np.zeros((0, 1)), 1.0).shape == (0, 1)
        assert solve_regularized(np.zeros((0, 0)), np.zeros((0, 2)), 1.0).shape == (0, 2)

    def test_exactly_singular_system_raises(self):
        """Omega with eigenvalue -1/C makes the shifted matrix singular."""
        omega = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularSystem):
            solve_regularized(omega, np.array([[1.0], [0.0]]), 1.0)

    def test_zero_system_states_infinite_condition(self):
        """Omega = -I/C makes the shifted matrix zero: its condition is
        infinite, not the 0/0 of its eigenvalues."""
        with pytest.raises(SingularSystem, match="condition estimate inf$"):
            solve_regularized(-np.eye(3), np.ones((3, 1)), 1.0)


def _refined(A, T, solve, passes=4):
    """solve(T) refined against A by up to passes passes, or None where the
    residual bound is not met."""
    tol = 1e-8 * (1.0 + np.linalg.norm(T))
    with np.errstate(all="ignore"):
        beta = solve(T)
        for _ in range(passes):
            residual = T - A @ beta
            if np.linalg.norm(residual) <= tol:
                return beta
            beta = beta + solve(residual)
        return beta if np.linalg.norm(T - A @ beta) <= tol else None


def _eigen_reference(A, T):
    """The fallback: U((U'T)/lam) from an evr eigh of A, refined the same
    way; None where the bound is missed or eigh refuses a NaN."""
    try:
        lam, U = scipy.linalg.eigh(A, driver="evr")
    except ValueError:
        return None
    return _refined(A, T, lambda rhs: U @ ((U.T @ rhs) / lam[:, None]))


def _dense_reference(omega, T, C):
    """The solve with Omega + I/C held apart from its factor: a dense
    "omega + 0.0" copy with 1/C added to the diagonal, cho_factor refined
    against that copy, or the eigen fallback where Cholesky fails or
    misses. Returns beta, or None where the bound is not met; whether the
    eigen fallback ran; and whether refinement ran, that is whether the
    first Cholesky solve missed the bound (False where Cholesky failed)."""
    A = omega + 0.0
    A.flat[:: A.shape[0] + 1] += 1.0 / C
    try:
        factor = scipy.linalg.cho_factor(A, check_finite=False)
    except scipy.linalg.LinAlgError:
        return _eigen_reference(A, T), True, False

    def solve(rhs):
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    refined = _refined(A, T, solve, passes=0) is None
    beta = _refined(A, T, solve)
    return (_eigen_reference(A, T), True, refined) if beta is None else (beta, False, refined)


@st.composite
def _borrowed_systems(draw):
    """Omega of one of five kinds (PSD, PSD with -0.0 off-diagonal blocks,
    indefinite so Cholesky fails, exactly singular once shifted, or with a
    NaN), in one of four layouts (C order, Fortran order, a strided view,
    read-only), with C from 1e-8 to 1e8 and an N x k T, k from 1 to 4."""
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
    T = rng.normal(0.0, 1.0, (n, draw(st.integers(1, 4))))
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
        expected, _, _ = _dense_reference(omega, T, C)
        if expected is None:
            with pytest.raises(SingularSystem):
                solve_regularized(omega, T, C)
        else:
            beta = solve_regularized(omega, T, C)
            assert beta.shape == expected.shape
            assert beta.tobytes() == expected.tobytes()
        assert omega.tobytes() == before

    def test_indefinite_case_takes_the_eigen_fallback(self):
        """The indefinite kind above really fails Cholesky, so the eigen
        fallback is covered."""
        G = np.random.default_rng(3).normal(0.0, 1.0, (6, 6))
        omega = G + G.T - 13.0 * np.eye(6)
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(omega + np.eye(6))
        T = np.arange(6.0).reshape(-1, 1)
        expected, eigen, _ = _dense_reference(omega, T, 1.0)
        assert eigen
        with mock.patch.object(linsolve, "_eigen", wraps=linsolve._eigen) as spy:
            assert solve_regularized(omega, T, 1.0).tobytes() == expected.tobytes()
        assert spy.call_count == 1

    def test_omega_sharing_memory_with_t_is_copied(self):
        """A right-hand side that views Omega's diagonal stays unshifted."""
        rng = np.random.default_rng(8)
        H = rng.normal(0.0, 1.0, (12, 20))
        omega = H @ H.T
        T = omega[:, :2]
        expected, _, _ = _dense_reference(omega, T.copy(), 0.5)
        assert solve_regularized(omega, T, 0.5).tobytes() == expected.tobytes()

    def test_peak_memory_is_one_workspace(self):
        """Factored in Omega's own memory, the solve's own peak is its saved
        diagonal blocks (0.175 N^2 doubles at N = 1500) plus O(N k); with a
        Fortran-order copy to factor it was 1.00 N^2, and with Omega + I/C
        held apart from that copy 2.00 N^2."""
        n, k = 1500, 2
        rng = np.random.default_rng(4)
        H = rng.normal(0.0, 1.0, (n, 60))
        assert _solve_peak(H @ H.T, rng.normal(0.0, 1.0, (n, k))) <= (
            0.2 * n * n * 8 + 16 * n * (k + 1) * 8
        )

    @pytest.mark.parametrize("layout", ["in_place", "copy"])
    @pytest.mark.parametrize("failure", ["indefinite", "misses"])
    def test_eigen_fallback_peak_is_two_copies(self, failure, layout):
        """Where Cholesky fails (an indefinite Omega) or its refined residual
        misses the bound (a PSD Omega at C = 1e8), the eigen fallback holds
        eigh's copy of Omega + I/C and its eigenvectors: about 2 N^2
        doubles, with the Cholesky copy (on the copy path, for an Omega one
        ulp off symmetric, or for refinement) released first."""
        n, k = 1500, 2
        rng = np.random.default_rng(5)
        if failure == "indefinite":
            G = rng.normal(0.0, 1.0, (n, n))
            omega, C = G + G.T - (2.0 * n + 1.0) * np.eye(n), 1.0
            del G
        else:
            H = rng.normal(0.0, 1.0, (n, 60))
            omega, C = H @ H.T, 1e8
        if layout == "copy":  # off the diagonal blocks, which are saved whole
            omega[0, -1] = np.nextafter(omega[0, -1], np.inf)
        with mock.patch.object(
            linsolve, "_first_solve_in_place", wraps=linsolve._first_solve_in_place
        ) as in_place, mock.patch.object(
            linsolve, "_eigen", wraps=linsolve._eigen
        ) as eigen:
            peak = _solve_peak(omega, rng.normal(0.0, 1.0, (n, k)), C)
        assert in_place.called == (layout == "in_place")
        assert eigen.call_count == 1
        assert peak <= 2.1 * n * n * 8 + 16 * n * (k + 1) * 8


def _solve_peak(omega, T, C=1.0):
    """The tracemalloc peak of one solve_regularized call, in bytes,
    whether it returns or raises SingularSystem."""
    tracemalloc.start()
    try:
        solve_regularized(omega, T, C)
    except SingularSystem:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


_B = linsolve._BLOCK


@st.composite
def _wide_systems(draw):
    """Omega past the block width, N from B + 1 to 2B + 50, in C or Fortran
    order, of one of four kinds: PSD, PSD with -0.0 off-diagonal blocks,
    indefinite (the eigen path), or PSD at a C so large that the first
    residual mostly misses the bound (the refinement path)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(_B + 1, 2 * _B + 50))
    kind = draw(st.sampled_from(["psd", "signed_zero", "indefinite", "refine"]))
    C = 10.0 ** draw(st.floats(-8.0, 2.0))
    if kind == "indefinite":
        G = rng.normal(0.0, 1.0, (n, n))
        omega = G + G.T - (2.0 * n + 1.0 / C) * np.eye(n)
    else:
        H = rng.normal(0.0, 1.0, (n, int(rng.integers(20, 80))))
        omega = H @ H.T
    if kind == "signed_zero":
        cut = draw(st.integers(1, n - 1))
        omega[:cut, cut:] = omega[cut:, :cut] = -0.0
    if kind == "refine":
        C = 10.0 ** draw(st.floats(5.5, 7.0))
    omega = np.asarray(omega, order=draw(st.sampled_from(["C", "F"])))
    T = rng.normal(0.0, 1.0, (n, draw(st.integers(1, 3))))
    return kind, omega, T, C


def _refine_kind_meeting_the_bound():
    """A refine-kind system (N = 257, C = 10^5.5) whose first in-place solve
    meets the bound at one BLAS thread, so no copy is factored."""
    H = np.random.default_rng(27).normal(0.0, 1.0, (257, 20))
    T = np.random.default_rng(27).normal(0.0, 1.0, (257, 1))
    return "refine", H @ H.T, T, 10.0**5.5


def _paths(omega, T, C):
    """solve_regularized's beta (or SingularSystem's message) and the
    paths it took: "in_place" or "copy" for each Cholesky factorization,
    by whether it ran in Omega's memory, and "eigen" for the fallback."""
    taken = []
    cholesky, eigen = linsolve._cholesky, linsolve._eigen

    def spy_cholesky(F):
        taken.append("in_place" if np.shares_memory(F, omega) else "copy")
        return cholesky(F)

    def spy_eigen(A):
        taken.append("eigen")
        return eigen(A)

    with mock.patch.object(linsolve, "_cholesky", spy_cholesky), mock.patch.object(
        linsolve, "_eigen", spy_eigen
    ):
        try:
            outcome = solve_regularized(omega, T, C).tobytes()
        except SingularSystem as error:
            outcome = str(error)
    return outcome, taken


class TestInPlaceFactor:
    """Past the block width Omega + I/C is factored in Omega's own memory
    and put back before the residual check; refinement factors a private
    copy, and the eigen fallback takes what Cholesky fails or misses. Every
    path keeps the bits of the dense reference and leaves Omega unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(_wide_systems())
    @example(_refine_kind_meeting_the_bound())
    def test_bits_match_dense_reference_and_omega_is_restored(self, case):
        """A copy is factored exactly where the reference's first Cholesky
        solve misses the bound, for every kind: near C = 10^5.5 a refine-kind
        system can meet it unrefined (the pinned example, at one BLAS thread)."""
        kind, omega, T, C = case
        assert np.array_equal(omega, omega.T)
        before = omega.tobytes()
        expected, eigen, refined = _dense_reference(omega, T, C)
        outcome, taken = _paths(omega, T, C)
        if expected is None:
            assert outcome.startswith("residual bound not met after refinement")
        else:
            assert outcome == expected.tobytes()
        assert omega.tobytes() == before
        assert taken == ["in_place"] + ["copy"] * refined + ["eigen"] * eigen
        assert eigen or kind != "indefinite"

    def test_refinement_that_meets_the_bound(self):
        """The refinement kind above mostly ends in the eigen fallback; at
        the first C of a fine grid where the refined Cholesky solve meets
        the bound, the refactored copy gives the reference's bits too."""
        n = 400
        rng = np.random.default_rng(0)
        H = rng.normal(0.0, 1.0, (n, 40))
        omega = H @ H.T
        T = rng.normal(0.0, 1.0, (n, 2))
        before = omega.tobytes()
        for C in np.geomspace(1e4, 1e7, 61):
            expected, eigen, _ = _dense_reference(omega, T, C)
            if eigen:
                continue
            outcome, taken = _paths(omega, T, C)
            if taken == ["in_place", "copy"]:
                break
        else:
            pytest.fail("no C of the grid refined and met the bound")
        assert outcome == expected.tobytes()
        assert omega.tobytes() == before


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("flaw", ["ulp", "signed_zero", "nan"])
def test_asymmetric_omega_is_factored_as_a_copy(order, flaw):
    """An Omega past the block width whose off-diagonal blocks are not
    bitwise mirrored (one entry one ulp off, a -0.0 facing +0.0, or a NaN
    in one triangle) is not factored in place, where the restore would
    rebuild one triangle from the other: it keeps every byte, and beta or
    the error message is that of the copy path."""
    n = 300
    rng = np.random.default_rng(9)
    H = rng.normal(0.0, 1.0, (n, 40))
    omega = H @ H.T
    omega[5, 290] = {
        "ulp": np.nextafter(omega[5, 290], np.inf),
        "signed_zero": -0.0,
        "nan": np.nan,
    }[flaw]
    if flaw == "signed_zero":
        omega[290, 5] = 0.0
    omega = np.asarray(omega, order=order)
    T = rng.normal(0.0, 1.0, (n, 2))
    before = omega.tobytes()

    def outcome():
        try:
            return solve_regularized(omega, T, 1.0).tobytes()
        except SingularSystem as error:
            return str(error)

    with mock.patch.object(linsolve, "_BLOCK", n):  # the copy path
        expected = outcome()
    with mock.patch.object(
        linsolve, "_first_solve_in_place", wraps=linsolve._first_solve_in_place
    ) as in_place:
        assert outcome() == expected
    assert not in_place.called
    assert omega.tobytes() == before


def _fortran_copy_reference(omega, T, C):
    """The solve as it stood before C-order Omega was copied through its
    transpose: Omega + I/C copied into a Fortran-order array by a
    transposing copy, dpotrf/dpotrs on it refined against Omega + I/C, or
    the eigen fallback where Cholesky fails."""
    A = omega + 0.0
    A.flat[:: A.shape[0] + 1] += 1.0 / C
    F = np.add(A, 0.0, out=np.empty(A.shape, order="F"))
    _, info = scipy.linalg.lapack.dpotrf(F, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        beta = _refined(
            A, T, lambda rhs: scipy.linalg.lapack.dpotrs(F, rhs, lower=0)[0]
        )
    else:
        beta = _eigen_reference(A, T)
    assert beta is not None  # the cases below all solve
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


def _random_gram(node_type):
    def gram(X, rng):
        layer = hidden_init(node_type, int(rng.integers(5, 200)), X.shape[1], rng)
        return random_kernel_gram(hidden_apply(layer, X))

    return gram


_MAPS = {
    "linear": lambda X, rng: kernel_gram(linear_kernel(), X, X),
    "polynomial": lambda X, rng: kernel_gram(
        polynomial_kernel(int(rng.integers(2, 5))), X, X
    ),
    "rbf": lambda X, rng: kernel_gram(rbf_kernel(rng.uniform(0.5, 30.0)), X, X),
    "random_sigmoid": _random_gram(ADDITIVE_SIGMOID),
    "random_rbf": _random_gram(RBF_NODE),
}


class TestFallbackProperty:
    """On the Grams of small z-scored integer tables, at C from 1e-8 to
    1e16, every returned beta meets the residual bound, every refusal
    states Omega + I/C's 2-norm condition within 1 % where that is at most
    1e13, and Omega keeps its bytes."""

    @pytest.mark.parametrize("kind", sorted(_MAPS))
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        C=st.sampled_from([1e-8, 1.0, 1e4, 1e8, 1e10, 1e12, 1e14, 1e16]),
    )
    def test_bound_condition_and_bytes(self, kind, seed, C):
        rng = np.random.default_rng(seed)
        X = rng.integers(1, 11, (int(rng.integers(20, 120)), int(rng.integers(2, 7))))
        std = X.std(axis=0, ddof=1)
        X = (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)
        omega = _MAPS[kind](X, rng)
        T = np.ones((len(X), 1)) if rng.integers(2) else X
        before = omega.tobytes()
        try:
            beta = solve_regularized(omega, T, C)
        except SingularSystem as error:
            stated = float(str(error).rsplit(" ", 1)[1])
            cond = np.linalg.cond(omega + np.eye(len(X)) / C)
            assert not cond <= 1e13 or abs(stated - cond) <= 0.01 * cond
        else:
            residual = np.linalg.norm(T - (omega + np.eye(len(X)) / C) @ beta)
            assert residual <= 1e-8 * (1.0 + np.linalg.norm(T))
        assert omega.tobytes() == before


class TestNoWarnings:
    """The edges raise no warning: an indefinite system solves, an exactly
    singular one and one with a NaN raise SingularSystem, in place and on a
    copy."""

    @pytest.mark.parametrize("n", [6, 300])
    @pytest.mark.parametrize("kind", ["indefinite", "singular", "nan"])
    def test_edges_under_error_filter(self, kind, n):
        rng = np.random.default_rng(n)
        if kind == "indefinite":
            G = rng.normal(0.0, 1.0, (n, n))
            omega = G + G.T - (2.0 * n + 1.0) * np.eye(n)
        else:  # + I is diag(0, 2, ..., 2): an exact zero eigenvalue
            omega = np.eye(n)
            omega[0, 0] = np.nan if kind == "nan" else -1.0
        T = rng.normal(0.0, 1.0, (n, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kind == "indefinite":
                solve_regularized(omega, T, 1.0)
            else:
                with pytest.raises(SingularSystem):
                    solve_regularized(omega, T, 1.0)


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
        state = rls_init(H0, rng.normal(0.0, 1.0, (20, 1)))
        np.testing.assert_array_equal(state.P, state.P.T)

    def test_needs_enough_rows(self):
        with pytest.raises(TooFewSamples, match="^N0=3 < m=5; grow the initial chunk$"):
            rls_init(np.zeros((3, 5)), np.zeros((3, 1)))

    def test_rank_deficient_chunk_refused(self):
        H0 = np.ones((6, 3))
        with pytest.raises(RankDeficient):
            rls_init(H0, np.zeros((6, 1)))

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rls_init(np.zeros((4, 2)), np.zeros((5, 1)))


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
        state = rls_init(H0, rng.normal(0.0, 1.0, (6, 1)))
        P_before = state.P.copy()
        new = rls_update(state, rng.normal(0.0, 1.0, (1, 3)), [[0.5]])
        assert new is not state
        np.testing.assert_array_equal(state.P, P_before)

    def test_p_stays_symmetric(self):
        rng = np.random.default_rng(47)
        state = rls_init(
            rng.normal(0.0, 1.0, (10, 4)), rng.normal(0.0, 1.0, (10, 1))
        )
        for _ in range(25):
            state = rls_update(
                state, rng.normal(0.0, 1.0, (2, 4)), rng.normal(0.0, 1.0, (2, 1))
            )
            np.testing.assert_array_equal(state.P, state.P.T)

    def test_chunk_shape_checked(self):
        state = rls_init(np.eye(3), np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            rls_update(state, np.zeros((2, 4)), np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            rls_update(state, np.zeros((2, 3)), np.zeros((3, 1)))


class TestRlsState:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            RlsState(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            RlsState(np.eye(2), np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            RlsState(np.eye(2), np.zeros(2))  # beta is m x k


class TestVectorRhsRefused:
    """Right-hand sides are N x k; a 1-D one raises DimensionMismatch
    instead of being reshaped."""

    def test_solve_regularized(self):
        with pytest.raises(DimensionMismatch):
            solve_regularized(np.eye(2), np.ones(2), 1.0)

    def test_rls_init(self):
        with pytest.raises(DimensionMismatch):
            rls_init(np.eye(3), np.ones(3))

    def test_rls_update(self):
        state = rls_init(np.eye(3), np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            rls_update(state, np.ones((2, 3)), np.ones(2))
