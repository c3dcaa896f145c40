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

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AlreadyFinalized,
    BadArgument,
    DimensionMismatch,
    RankDeficient,
    SingularSystem,
    TooFewSamples,
)

_COND_LIMIT = 1e12
_REFINE_PASSES = 4
_BLOCK = 256  # diagonal block width of the in-place factorization


def solve_regularized(omega: np.ndarray, T: np.ndarray, C: float) -> np.ndarray:
    """Solve (Omega + I/C) beta = T for bitwise symmetric N x N Omega and
    N x k T, with the residual refined below 1e-8 * (1 + ||T||_F).

    Cholesky runs first: in Omega's own memory for N > 256 (_BLOCK) when its
    off-diagonal blocks mirror each other bit for bit, else on a private
    Fortran-order copy (one more N^2 at the peak), which refining the
    in-place solve needs too. Where Cholesky fails or its refined residual
    misses the bound, beta is solved from eigh of a private copy, refined
    the same way, at a peak of about 2 N^2 doubles. Where that misses too,
    SingularSystem states the 2-norm condition max|lambda| / min|lambda| of
    Omega + I/C (nan for a NaN).

    Omega is borrowed: 1/C is added to its diagonal for the call, and it
    ends bitwise unchanged; no other thread may read it meanwhile. A
    read-only, non-contiguous or unaligned Omega, or one sharing memory
    with T, is copied once.
    """
    if not 0 < C < np.inf:  # also refuses a NaN C
        raise BadArgument("C must be finite and > 0")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionMismatch("omega must be square")
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != omega.shape[0]:
        raise DimensionMismatch(f"T is {T.shape}, not N x k for omega {omega.shape[0]} square")
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


def _cholesky(F: np.ndarray):
    """Factor F's upper triangle in F's own memory, the other one unread;
    the solve with the factor. LinAlgError if F is not positive definite."""
    _, info = scipy.linalg.lapack.dpotrf(F, lower=0, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("not positive definite")
    return lambda rhs: scipy.linalg.lapack.dpotrs(F, rhs, lower=0)[0]


def _mirrored(W: np.ndarray) -> bool:
    """Whether W's off-diagonal blocks mirror each other bit for bit (-0.0
    and NaN payloads included), so that the restore rebuilds W."""
    b, B = W.view(np.uint64), _BLOCK
    pairs = ((b[s + B :, s : s + B], b[s : s + B, s + B :].T) for s in range(0, len(b), B))
    return all(np.array_equal(lower, upper) for lower, upper in pairs)


def _first_solve_in_place(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """W^-1 T from a Cholesky factor made in W's own memory (LinAlgError if
    W is not positive definite); W is put back before this returns."""
    starts = range(0, W.shape[0], _BLOCK)
    saved = [W[s : s + _BLOCK, s : s + _BLOCK].copy() for s in starts]
    try:
        for s in starts:  # "+ 0.0" (see _by_cholesky) on what dpotrf reads
            W[: s + _BLOCK, s : s + _BLOCK] += 0.0
        return _cholesky(W)(T)
    finally:
        for s, block in zip(starts, saved):
            W[s : s + _BLOCK, s : s + _BLOCK] = block
            W[s : s + _BLOCK, s + _BLOCK :] = W[s + _BLOCK :, s : s + _BLOCK].T


def _eigen(A: np.ndarray):
    """The solve U((U'rhs)/lam) from eigh of a private copy of A, and A's
    2-norm condition max|lam|/min|lam|; NaN and nan if eigh refuses A."""
    try:
        lam, U = scipy.linalg.eigh(A, driver="evr")
    except (ValueError, np.linalg.LinAlgError):
        return (lambda rhs: rhs * np.nan), np.nan
    size = np.abs(lam)
    cond = size.max() / size.min() if size.any() else np.inf  # A = 0: not 0/0
    return (lambda rhs: U @ ((U.T @ rhs) / lam[:, None])), cond


def _refined(A: np.ndarray, T: np.ndarray, beta: np.ndarray, solve, tol: float):
    """beta after up to _REFINE_PASSES passes of refinement against A with
    solve, and whether its residual meets tol (a NaN one does not)."""
    for _ in range(_REFINE_PASSES):
        residual = T - A @ beta
        if np.linalg.norm(residual) <= tol:
            return beta, True
        beta = beta + solve(residual)
    return beta, np.linalg.norm(T - A @ beta) <= tol


def _by_cholesky(A: np.ndarray, T: np.ndarray, tol: float):
    """beta from a Cholesky factor of A, refined, and whether it meets tol;
    LinAlgError if A is not positive definite."""
    # W is A's Fortran-order view (A.T if C-order: equal if A is symmetric);
    # up to one block, saving it would copy all of A: three passes, not one
    W = A.T if A.flags.c_contiguous else A
    in_place = A.shape[0] > _BLOCK and _mirrored(W)
    if in_place:
        beta = _first_solve_in_place(W, T)
        if np.linalg.norm(T - A @ beta) <= tol:
            return beta, True
    # a private Fortran-order copy, which refinement after the in-place solve
    # needs too; "+ 0.0" turns any -0.0 into +0.0, as adding the zero
    # off-diagonal of I / C did (on the shifted diagonal it changes no bit)
    solve = _cholesky(np.add(W, 0.0, out=np.empty(W.shape, order="F")))
    return _refined(A, T, beta if in_place else solve(T), solve, tol)


def _solve_shifted(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Solve A beta = T with A = Omega + I/C, refined against A itself: by
    Cholesky, or from eigh where Cholesky fails or misses the bound."""
    tol = 1e-8 * (1.0 + np.linalg.norm(T))
    with np.errstate(all="ignore"):
        try:
            beta, met = _by_cholesky(A, T, tol)
        except np.linalg.LinAlgError:
            met = False
        if not met:
            solve, cond = _eigen(A)
            beta, met = _refined(A, T, solve(T), solve, tol)
    if not met:
        raise SingularSystem(
            "residual bound not met after refinement; condition estimate "
            f"{cond:.3e}"
        )
    return beta


@dataclass
class RlsState:
    """Inverse information matrix P (m x m) and output weights beta (m x k).

    Single-writer: rls_update returns a fresh state, so snapshots stay
    valid; never mutate P or beta in place while sharing them.
    """

    P: np.ndarray | None  # None in a loaded model's state, which only scores
    beta: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=float)
        self.P = None if self.P is None else np.asarray(self.P, dtype=float)
        if self.beta.ndim != 2 or self.P is not None and self.P.shape != (len(self.beta),) * 2:
            raise DimensionMismatch("P must be m x m with beta m x k")


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
        raise TooFewSamples(f"N0={n0} < m={m}; grow the initial chunk")
    G = H0.T @ H0
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankDeficient(f"H0'H0 condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}")
    P0 = np.linalg.inv(G)
    P0 = (P0 + P0.T) / 2.0
    return RlsState(P0, P0 @ (H0.T @ T0))


def rls_update(state: RlsState, H1: np.ndarray, T1: np.ndarray) -> RlsState:
    """One chunk of the sequential update (chunk size >= 1, T1 of shape
    chunk x k)."""
    if state.P is None:
        raise AlreadyFinalized("a state without P only scores: no updates")
    H1 = np.atleast_2d(np.asarray(H1, dtype=float))
    T1 = np.asarray(T1, dtype=float)
    if H1.shape[1] != state.P.shape[0]:
        raise DimensionMismatch(
            f"chunk has {H1.shape[1]} columns, state expects {state.P.shape[0]}"
        )
    if T1.shape != (H1.shape[0], state.beta.shape[1]):
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
