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
_BLOCK = 256  # diagonal block width of the in-place factorization


def solve_regularized(omega: np.ndarray, T: np.ndarray, C: float) -> np.ndarray:
    """Solve (Omega + I/C) beta = T for bitwise symmetric N x N Omega and
    N x k T.

    The residual is driven below 1e-8 * (1 + ||T||_F) by iterative
    refinement; SingularSystem (with a condition estimate) is raised only
    when that bound cannot be met.

    Omega is borrowed: 1/C is added to its diagonal for the call, and for
    N > 256 (_BLOCK) dpotrf factors Omega + I/C in Omega's own memory, on
    its Fortran-order view (Omega.T if C-order). Only that view's upper
    triangle, its -0.0 made +0.0 first, is overwritten; before the residual
    check its off-diagonal blocks are copied back from the untouched
    triangle and its diagonal blocks from copies saved first, so Omega ends
    bitwise unchanged. That needs each off-diagonal block to mirror its
    twin bit for bit (-0.0 and NaN payloads included), as featuremap's Gram
    matrices do; an Omega that does not is factored as a copy. No other
    thread may read Omega during the call. A read-only, non-contiguous or
    unaligned Omega, or one sharing memory with T, is copied once. A private
    Fortran-order copy is also factored for N <= 256, for LU when Cholesky
    fails, and when the first residual misses the bound (refinement needs
    the factor again, so dpotrf runs twice): Omega plus one N^2 copy at the
    peak. beta keeps the bits of always factoring a copy. The call's own
    tracemalloc peak at N = 2000 is 4.2 MB in place (0.13 N^2 doubles: the
    saved blocks), against 32.1 MB (1.00 N^2) for the copy; the mirror
    check and the restore are transposing passes that make a one-thread
    solve about 10-20 % slower than the copy at N = 600-4000.
    """
    if not 0 < C < np.inf:  # also refuses a NaN C
        raise ValueError("C must be finite and > 0")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionMismatch("omega must be square")
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != omega.shape[0]:
        raise DimensionMismatch(
            f"T is {T.shape}, not N x k for omega {omega.shape[0]} square"
        )
    n = omega.shape[0]
    if n == 0:  # potrs refuses an empty system
        return T.copy()
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
        return _solve_shifted(omega, T)
    finally:
        omega.flat[:: n + 1] = diagonal


def _cond(A: np.ndarray) -> float:
    """Condition estimate for an error message; nan where the SVD fails
    (a NaN in A), so the error raised stays SingularSystem."""
    try:
        return np.linalg.cond(A)
    except np.linalg.LinAlgError:
        return np.nan


def _cholesky(F: np.ndarray):
    """Factor F's upper triangle in F's own memory, the other one unread;
    the solve with the factor, or None when F is not positive definite."""
    _, info = scipy.linalg.lapack.dpotrf(F, lower=0, clean=0, overwrite_a=1)
    return None if info else lambda rhs: scipy.linalg.lapack.dpotrs(F, rhs, lower=0)[0]


def _mirrored(W: np.ndarray) -> bool:
    """Whether W's off-diagonal blocks mirror each other bit for bit (-0.0
    and NaN payloads included), so that the restore rebuilds W."""
    b, B = W.view(np.uint64), _BLOCK
    pairs = ((b[s + B :, s : s + B], b[s : s + B, s + B :].T) for s in range(0, len(b), B))
    return all(np.array_equal(lower, upper) for lower, upper in pairs)


def _first_solve_in_place(W: np.ndarray, T: np.ndarray) -> np.ndarray | None:
    """W^-1 T from a Cholesky factor made in W's own memory, or None when W
    is not positive definite; W is put back before this returns."""
    starts = range(0, W.shape[0], _BLOCK)
    saved = [W[s : s + _BLOCK, s : s + _BLOCK].copy() for s in starts]
    try:
        for s in starts:  # "+ 0.0" (see _factor_copy) on what dpotrf reads
            W[: s + _BLOCK, s : s + _BLOCK] += 0.0
        solve = _cholesky(W)
        return None if solve is None else solve(T)
    finally:
        for s, block in zip(starts, saved):
            W[s : s + _BLOCK, s : s + _BLOCK] = block
            W[s : s + _BLOCK, s + _BLOCK :] = W[s + _BLOCK :, s : s + _BLOCK].T


def _factor_copy(A: np.ndarray, W: np.ndarray, cholesky: bool):
    """The solve with a factor of a private Fortran-order copy: Cholesky of
    W, or LU of A itself, whatever its symmetry, if Cholesky fails or did."""
    F = np.empty(A.shape, order="F")
    # "+ 0.0" turns any -0.0 into +0.0, as adding the zero off-diagonal of
    # I / C did; on the diagonal, already shifted by 1/C, it changes no bit
    solve = _cholesky(np.add(W, 0.0, out=F)) if cholesky else None
    if solve is not None:
        return solve
    np.add(A, 0.0, out=F)
    try:
        with warnings.catch_warnings():
            # the residual check below is the real verdict on near
            # singularity; scipy's advisory warning is redundant here
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(F, overwrite_a=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        raise SingularSystem(
            f"factorization failed; condition estimate {_cond(A):.3e}"
        ) from None
    return lambda rhs: scipy.linalg.lu_solve(lu, rhs, check_finite=False)


def _solve_shifted(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Solve A beta = T with A = Omega + I/C, refined against A itself."""
    # W is A's Fortran-order view (A.T if C-order: equal if A is symmetric)
    W = A.T if A.flags.c_contiguous else A
    tol = 1e-8 * (1.0 + np.linalg.norm(T))
    # up to one block, saving it would copy all of A: three passes, not one
    in_place = A.shape[0] > _BLOCK and _mirrored(W)
    beta = _first_solve_in_place(W, T) if in_place else None
    solve = None
    if beta is None:  # after a failed Cholesky in place, LU only
        solve = _factor_copy(A, W, cholesky=not in_place)
    with np.errstate(all="ignore"):
        if beta is None:
            beta = solve(T)
        for _ in range(_REFINE_PASSES):
            residual = T - A @ beta
            final = np.linalg.norm(residual)
            if final <= tol:
                break
            if solve is None:  # the in-place factor is gone
                solve = _factor_copy(A, W, cholesky=True)
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
        if (
            self.P.ndim != 2
            or self.P.shape[0] != self.P.shape[1]
            or self.beta.ndim != 2
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
    """Initial state P0 = (H0' H0)^-1, beta0 = P0 H0' T0 for N0 x k T0.

    Needs N0 >= m and a well-conditioned normal matrix (cond <= 1e12).
    """
    H0 = np.atleast_2d(np.asarray(H0, dtype=float))
    T0 = np.asarray(T0, dtype=float)
    if T0.ndim != 2 or T0.shape[0] != H0.shape[0]:
        raise DimensionMismatch(f"T0 is {T0.shape}, not N0 x k for H0 {H0.shape}")
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
    """One chunk of the sequential update (chunk size >= 1, T1 of shape
    chunk x k)."""
    H1 = np.atleast_2d(np.asarray(H1, dtype=float))
    T1 = np.asarray(T1, dtype=float)
    if H1.shape[1] != state.m:
        raise DimensionMismatch(
            f"chunk has {H1.shape[1]} columns, state expects {state.m}"
        )
    if T1.shape != (H1.shape[0], state.k):
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
