"""Regularized symmetric solves and recursive-least-squares state.

solve_regularized handles the batch training systems (Omega + I/C) beta = T;
RlsState plus rls_init/rls_update implement the sequential update
    P <- P - P H1' (I + H1 P H1')^-1 H1 P
    beta <- beta + P H1' (T1 - H1 beta)
used by the online classifiers. The online path is intentionally
unregularized; rls_init refuses rank-deficient initial chunks instead of
pseudo-inverting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    RankDeficient,
    SingularSystem,
    TooFewInitialSamples,
)

_COND_LIMIT = 1e12
_REFINE_PASSES = 4


def _as_rhs(T: np.ndarray) -> tuple[np.ndarray, bool]:
    T = np.asarray(T, dtype=float)
    if T.ndim == 1:
        return T.reshape(-1, 1), True
    return T, False


def solve_regularized(omega: np.ndarray, T: np.ndarray, C: float) -> np.ndarray:
    """Solve (Omega + I/C) beta = T for bitwise symmetric Omega.

    The residual is driven below 1e-8 * (1 + ||T||_F) by iterative
    refinement; SingularSystem (with a condition estimate) is raised only
    when that bound cannot be met.

    Omega must equal Omega.T bit for bit, as every Gram matrix of
    featuremap does: a C-order Omega is copied into the Fortran-order
    workspace through its transpose (at N = 4000 that copy takes 27 ms
    instead of the transposing copy's 148 ms), so Cholesky reads the
    upper triangle of Omega.T.

    Workspace: one N x N Fortran-order array, which LAPACK factors in
    place (dpotrf/dpotrs, or getrf when Cholesky fails). Omega itself is
    borrowed as the refinement operator: 1/C is added to its diagonal for
    the length of the call, and the saved diagonal is written back on
    return or raise, so the caller's Omega ends bitwise unchanged. No
    other thread may read Omega during the call. A read-only,
    non-contiguous or unaligned Omega, or one sharing memory with T, is
    copied once. At N = 2000 the call's tracemalloc peak is 1.00 N^2
    doubles (32.1 MB), against 2.00 N^2 when Omega + I/C was held apart
    from its factor. beta is bit-identical to that form: the same LAPACK
    routines run on the same values.
    """
    if not 0 < C < np.inf:  # also refuses a NaN C
        raise ValueError("C must be finite and > 0")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionMismatch("omega must be square")
    T, was_1d = _as_rhs(T)
    if T.shape[0] != omega.shape[0]:
        raise DimensionMismatch(
            f"T has {T.shape[0]} rows, omega is {omega.shape[0]} square"
        )
    n = omega.shape[0]
    if n == 0:  # potrs refuses an empty system
        beta = T.copy()
        return beta.ravel() if was_1d else beta
    flags = omega.flags
    if (
        not flags.behaved
        or not (flags.c_contiguous or flags.f_contiguous)
        or np.may_share_memory(omega, T)
    ):
        omega = omega + 0.0
    diagonal = omega.flat[:: n + 1]  # a copy
    omega.flat[:: n + 1] += 1.0 / C
    try:
        beta = _solve_shifted(omega, T)
    finally:
        omega.flat[:: n + 1] = diagonal
    return beta.ravel() if was_1d else beta


def _cond(A: np.ndarray) -> float:
    """Condition estimate for an error message; nan where the SVD fails
    (a NaN in A), so the error raised stays SingularSystem."""
    try:
        return np.linalg.cond(A)
    except np.linalg.LinAlgError:
        return np.nan


def _solve_shifted(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Solve A beta = T with A = Omega + I/C, refined against A itself."""
    # "+ 0.0" turns any -0.0 into +0.0, as adding the zero off-diagonal of
    # I / C did; on the diagonal, already shifted by 1/C, it changes no bit.
    # A C-order A is copied through its transpose, which is F-contiguous:
    # a straight pass instead of a transposing one, and the same values
    # because A is bitwise symmetric
    F = np.empty(A.shape, order="F")
    np.add(A.T if A.flags.c_contiguous else A, 0.0, out=F)
    tol = 1e-8 * (1.0 + np.linalg.norm(T))

    _, info = scipy.linalg.lapack.dpotrf(F, lower=0, clean=0, overwrite_a=1)
    if info == 0:

        def solve(rhs: np.ndarray) -> np.ndarray:
            return scipy.linalg.lapack.dpotrs(F, rhs, lower=0)[0]

    else:
        np.add(A, 0.0, out=F)  # A itself, whatever its symmetry
        try:
            with warnings.catch_warnings():
                # the residual check below is the real verdict on near
                # singularity; scipy's advisory warning is redundant here
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(F, overwrite_a=True, check_finite=False)

            def solve(rhs: np.ndarray) -> np.ndarray:
                return scipy.linalg.lu_solve(lu, rhs, check_finite=False)

        except (scipy.linalg.LinAlgError, ValueError):
            raise SingularSystem(
                "factorization failed; condition estimate "
                f"{_cond(A):.3e}"
            ) from None

    with np.errstate(all="ignore"):
        beta = solve(T)
        for _ in range(_REFINE_PASSES):
            residual = T - A @ beta
            final = np.linalg.norm(residual)
            if final <= tol:
                break
            beta = beta + solve(residual)
        else:
            final = np.linalg.norm(T - A @ beta)
    # "not <=" instead of ">" so a NaN residual also trips the guard
    if not final <= tol:
        raise SingularSystem(
            "residual bound not met after refinement; condition estimate "
            f"{_cond(A):.3e}"
        )
    return beta


@dataclass
class RlsState:
    """Inverse information matrix P (m x m) and output weights beta (m x k).

    Single-writer: rls_update returns a fresh state, so snapshots stay
    valid; never mutate P or beta in place while sharing them.
    """

    P: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        self.P = np.asarray(self.P, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim == 1:
            self.beta = self.beta.reshape(-1, 1)
        if (
            self.P.ndim != 2
            or self.P.shape[0] != self.P.shape[1]
            or self.beta.shape[0] != self.P.shape[0]
        ):
            raise DimensionMismatch("P must be m x m with beta m x k")

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def k(self) -> int:
        return self.beta.shape[1]


def rls_init(H0: np.ndarray, T0: np.ndarray) -> RlsState:
    """Initial state P0 = (H0' H0)^-1, beta0 = P0 H0' T0.

    Needs N0 >= m and a well-conditioned normal matrix (cond <= 1e12).
    """
    H0 = np.atleast_2d(np.asarray(H0, dtype=float))
    T0, _ = _as_rhs(T0)
    if T0.shape[0] != H0.shape[0]:
        raise DimensionMismatch("H0 and T0 row counts differ")
    n0, m = H0.shape
    if n0 < m:
        raise TooFewInitialSamples(f"N0={n0} < m={m}; grow the initial chunk")
    G = H0.T @ H0
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankDeficient(
            f"H0'H0 condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    P0 = np.linalg.inv(G)
    P0 = (P0 + P0.T) / 2.0
    return RlsState(P0, P0 @ (H0.T @ T0))


def rls_update(state: RlsState, H1: np.ndarray, T1: np.ndarray) -> RlsState:
    """One chunk of the sequential update (chunk size >= 1)."""
    H1 = np.atleast_2d(np.asarray(H1, dtype=float))
    T1, _ = _as_rhs(T1)
    if H1.shape[1] != state.m:
        raise DimensionMismatch(
            f"chunk has {H1.shape[1]} columns, state expects {state.m}"
        )
    if T1.shape[0] != H1.shape[0] or T1.shape[1] != state.k:
        raise DimensionMismatch("T1 shape does not match chunk and state")
    P = state.P
    PH = P @ H1.T
    S = np.eye(H1.shape[0]) + H1 @ PH
    # gain = P H1' S^-1 without forming S^-1 explicitly
    gain = np.linalg.solve(S.T, PH.T).T
    P_new = P - gain @ PH.T
    P_new = (P_new + P_new.T) / 2.0
    beta_new = state.beta + P_new @ H1.T @ (T1 - H1 @ state.beta)
    return RlsState(P_new, beta_new)
