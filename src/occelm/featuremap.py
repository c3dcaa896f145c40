"""Hidden-layer feature maps and kernel Gram matrices.

Two mapping styles feed the solvers: a random hidden layer (additive
sigmoid or RBF nodes) whose outer product H @ H.T forms the "random
kernel", and four explicit kernels (rbf, linear, polynomial, wavelet)
evaluated directly on samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch

ADDITIVE_SIGMOID = "additive_sigmoid"
RBF_NODE = "rbf"
NODE_TYPES = (ADDITIVE_SIGMOID, RBF_NODE)

KERNEL_KINDS = ("random", "rbf", "linear", "polynomial", "wavelet")

# widest rbf sigma (and benchmark wavelet b_w): their Python float squares
# raise OverflowError, instead of giving inf, past about 1e154
MAX_WIDTH = 1e150

# cells per row tile of kernel_gram (512 KiB of float64): a tile and its
# temporaries stay in cache while every elementwise step runs over it
TILE_CELLS = 2**16


@dataclass(frozen=True)
class HiddenLayer:
    """Fixed random projection: weights/centres W (m x n) and biases/impact
    factors b (length m)."""

    node_type: str
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.node_type not in NODE_TYPES:
            raise ValueError(f"node_type must be one of {NODE_TYPES}")
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        if self.W.ndim != 2 or self.b.shape[0] != self.W.shape[0]:
            raise DimensionMismatch("W must be m x n with b of length m")
        if self.node_type == RBF_NODE and np.any(self.b <= 0):
            raise ValueError("rbf impact factors must be positive")

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.W.shape[1]


def hidden_init(node_type: str, m: int, n: int, seed) -> HiddenLayer:
    """Draw a hidden layer: additive nodes use W, b ~ Uniform(-1, 1); rbf
    nodes use centres Uniform(-1, 1) and impact factors Uniform(0.05, 1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if node_type not in NODE_TYPES:
        raise ValueError(f"node_type must be one of {NODE_TYPES}")
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1.0, 1.0, (m, n))
    if node_type == ADDITIVE_SIGMOID:
        b = rng.uniform(-1.0, 1.0, m)
    else:
        b = rng.uniform(0.05, 1.0, m)
    return HiddenLayer(node_type, W, b)


def hidden_apply(layer: HiddenLayer, X: np.ndarray) -> np.ndarray:
    """Hidden activations H (N x m): sigmoid(W x + b) for additive nodes,
    exp(-b * ||x - w||^2) for rbf nodes."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != layer.n:
        raise DimensionMismatch(
            f"X has {X.shape[1]} features, layer expects {layer.n}"
        )
    if layer.node_type == ADDITIVE_SIGMOID:
        A = X @ layer.W.T
        A += layer.b
        # stable sigmoid from e = exp(-|A|), which never overflows: 1 / (1 + e)
        # where A >= 0, else e / (1 + e). It is elementwise, so it runs in
        # place over row tiles of A and only tile-sized temporaries are made
        for rows in _row_tiles(*A.shape):
            tile = A[rows]
            e = np.abs(tile)
            np.exp(np.negative(e, out=e), out=e)
            tile[...] = np.where(tile >= 0, 1.0, e)
            tile /= np.add(e, 1.0, out=e)
        return A
    D = cdist(X, layer.W, "sqeuclidean")
    np.multiply(-layer.b, D, out=D)
    return np.exp(D, out=D)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    kind "random" routes through a hidden layer (held in `layer`, or
    materialized by the trainer from `m`/`node_type` and its seed); the
    other kinds are evaluated by kernel_gram.
    """

    kind: str
    sigma: float | None = None
    degree: int | None = None
    offset: float | None = None
    a: float | None = None
    b_w: float | None = None
    c_w: float | None = None
    layer: HiddenLayer | None = None
    m: int | None = None
    node_type: str = ADDITIVE_SIGMOID

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}")
        if self.kind == "rbf" and not 0 < (self.sigma or 0) <= MAX_WIDTH:
            raise ValueError(f"rbf kernel needs 0 < sigma <= {MAX_WIDTH:g}")
        if self.kind == "polynomial":
            if self.degree is None or self.degree < 1:
                raise ValueError("polynomial kernel needs degree >= 1")
            if self.offset is None or not 0 <= self.offset < np.inf:
                raise ValueError("polynomial kernel needs a finite offset >= 0")
        if self.kind == "wavelet":
            for name in ("a", "b_w", "c_w"):
                value = getattr(self, name)
                if value is None or not 0 < value < np.inf:
                    raise ValueError(f"wavelet kernel needs a finite {name} > 0")
        if self.kind == "random" and self.node_type not in NODE_TYPES:
            raise ValueError(f"node_type must be one of {NODE_TYPES}")


def rbf_kernel(sigma: float) -> KernelSpec:
    return KernelSpec("rbf", sigma=float(sigma))


def linear_kernel() -> KernelSpec:
    return KernelSpec("linear")


def polynomial_kernel(degree: int, offset: float = 1.0) -> KernelSpec:
    return KernelSpec("polynomial", degree=int(degree), offset=float(offset))


def wavelet_kernel(a: float, b_w: float, c_w: float) -> KernelSpec:
    return KernelSpec("wavelet", a=float(a), b_w=float(b_w), c_w=float(c_w))


def random_kernel(
    m: int | None = None,
    node_type: str = ADDITIVE_SIGMOID,
    layer: HiddenLayer | None = None,
) -> KernelSpec:
    """Random-mapping request; a concrete layer wins over m/node_type."""
    return KernelSpec("random", layer=layer, m=m, node_type=node_type)


def random_kernel_gram(H: np.ndarray) -> np.ndarray:
    """Gram matrix H @ H.T of hidden activations (symmetric PSD)."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    return H @ H.T


def _row_tiles(rows: int, cells_per_row: int):
    """Consecutive row slices of at most TILE_CELLS cells each (at least
    one row, however wide)."""
    step = max(1, TILE_CELLS // max(1, cells_per_row))
    for start in range(0, rows, step):
        yield slice(start, start + step)


def kernel_gram(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise kernel matrix K[i, j] = k(a_i, b_j) for the explicit
    kernels; the random kind must go through hidden_apply instead.

    K is allocated once and filled in row tiles of at most TILE_CELLS
    (2**16) cells; the wavelet counts its rows x N x features difference
    block. Every elementwise step runs in place on the tile, in the order
    of the one-shot formula (the rbf folds its negation into the divisor,
    which changes no bit), so K is bit-identical to it and no full-size
    temporary is made. The linear and polynomial kernels keep A @ B.T as
    one product over all rows: a product split by rows can change the low
    bits (139 of 264 row splits tried with OpenBLAS did).
    """
    if spec.kind == "random":
        raise ValueError("random kernels use hidden_apply + random_kernel_gram")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(
            f"feature counts differ: {A.shape[1]} vs {B.shape[1]}"
        )
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "polynomial":
        K = A @ B.T
        for rows in _row_tiles(*K.shape):
            tile = K[rows]
            tile += spec.offset
            tile **= spec.degree
        return K
    K = np.empty((A.shape[0], B.shape[0]))
    if spec.kind == "rbf":
        # exp(-D / (2 sigma^2)) on the squared distances D; one pass of
        # D / -scale has the bits of -D / scale (IEEE rounding is symmetric
        # in sign)
        scale = 2.0 * spec.sigma**2
        for rows in _row_tiles(*K.shape):
            tile = K[rows]
            cdist(A[rows], B, "sqeuclidean", out=tile)
            np.divide(tile, -scale, out=tile)
            np.exp(tile, out=tile)
        return K
    # wavelet: product over features of cos(a*d/b_w) * exp(-d^2/c_w)
    for rows in _row_tiles(K.shape[0], B.size):
        diff = A[rows, None, :] - B[None, :, :]
        damp = np.square(diff)
        np.negative(damp, out=damp)
        damp /= spec.c_w
        np.exp(damp, out=damp)
        diff *= spec.a
        diff /= spec.b_w
        np.cos(diff, out=diff)
        diff *= damp
        np.prod(diff, axis=2, out=K[rows])
    return K
