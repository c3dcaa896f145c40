"""Tests for hidden-layer feature maps and kernel Gram matrices."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from occelm.featuremap import (
    ADDITIVE_SIGMOID,
    MAX_WIDTH,
    NODE_TYPES,
    RBF_NODE,
    TILE_CELLS,
    HiddenLayer,
    KernelSpec,
    hidden_apply,
    hidden_init,
    kernel_gram,
    linear_kernel,
    polynomial_kernel,
    random_kernel,
    random_kernel_gram,
    rbf_kernel,
    wavelet_kernel,
)
from occelm.errors import DimensionMismatch


class TestHiddenInit:
    def test_additive_ranges(self):
        layer = hidden_init(ADDITIVE_SIGMOID, 200, 5, seed=3)
        assert layer.W.shape == (200, 5)
        assert layer.b.shape == (200,)
        assert np.all(np.abs(layer.W) < 1.0)
        assert np.all(np.abs(layer.b) < 1.0)

    def test_rbf_ranges(self):
        """RBF centres stay in (-1, 1); impact factors in (0.05, 1)."""
        layer = hidden_init(RBF_NODE, 300, 4, seed=9)
        assert np.all(np.abs(layer.W) < 1.0)
        assert np.all(layer.b > 0.05)
        assert np.all(layer.b < 1.0)

    def test_deterministic_per_seed(self):
        a = hidden_init(ADDITIVE_SIGMOID, 20, 3, seed=11)
        b = hidden_init(ADDITIVE_SIGMOID, 20, 3, seed=11)
        c = hidden_init(ADDITIVE_SIGMOID, 20, 3, seed=12)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
        assert not np.array_equal(a.W, c.W)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            hidden_init(ADDITIVE_SIGMOID, 0, 3, seed=0)
        with pytest.raises(ValueError):
            hidden_init(ADDITIVE_SIGMOID, 5, 0, seed=0)
        with pytest.raises(ValueError):
            hidden_init("tanh", 5, 3, seed=0)

    def test_layer_validates_shapes(self):
        with pytest.raises(DimensionMismatch):
            HiddenLayer(ADDITIVE_SIGMOID, np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            HiddenLayer(RBF_NODE, np.zeros((2, 2)), np.array([1.0, 0.0]))


class TestHiddenApply:
    def test_sigmoid_midpoint(self):
        """Zero pre-activation lands exactly on 0.5."""
        layer = HiddenLayer(ADDITIVE_SIGMOID, np.array([[1.0, -1.0]]), [0.0])
        H = hidden_apply(layer, np.array([[0.0, 0.0]]))
        assert H.shape == (1, 1)
        assert H[0, 0] == 0.5

    def test_sigmoid_elementwise_oracle(self):
        rng = np.random.default_rng(41)
        layer = hidden_init(ADDITIVE_SIGMOID, 6, 3, seed=7)
        X = rng.normal(0.0, 1.0, (4, 3))
        H = hidden_apply(layer, X)
        expected = np.empty((4, 6))
        for i in range(4):
            for j in range(6):
                a = float(X[i] @ layer.W[j] + layer.b[j])
                expected[i, j] = 1.0 / (1.0 + np.exp(-a))
        np.testing.assert_allclose(H, expected, atol=1e-14)

    def test_sigmoid_saturation_is_finite(self):
        layer = HiddenLayer(ADDITIVE_SIGMOID, np.array([[1.0]]), [0.0])
        lo = hidden_apply(layer, np.array([[-1000.0]]))
        hi = hidden_apply(layer, np.array([[1000.0]]))
        assert lo[0, 0] == 0.0
        assert hi[0, 0] == 1.0

    def test_sigmoid_open_interval_for_moderate_inputs(self):
        rng = np.random.default_rng(5)
        layer = hidden_init(ADDITIVE_SIGMOID, 50, 4, seed=1)
        H = hidden_apply(layer, rng.uniform(-2.0, 2.0, (30, 4)))
        assert np.all(H > 0.0)
        assert np.all(H < 1.0)

    @staticmethod
    def _masked_sigmoid(A):
        out = np.empty_like(A)
        pos = A >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-A[pos]))
        ex = np.exp(A[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @staticmethod
    def _sigmoid_values():
        rng = np.random.default_rng(17)
        edges = [0.0, np.inf, 5e-324, 2.2250738585072014e-308, 1e-300, 36.7,
                 709.0, 709.8, 745.0, 746.0, 1e308, np.finfo(float).max]
        return np.concatenate([
            edges, np.negative(edges), rng.normal(0.0, 3.0, 50_000),
            rng.uniform(-800.0, 800.0, 50_000), rng.standard_cauchy(10_000),
        ])

    def test_sigmoid_bits_match_masked_form(self):
        """The sigmoid equals, bit for bit, the boolean-mask form on zero,
        infinities, subnormals, the exp overflow and underflow edges and
        random values; NaN stays NaN."""
        # W = 1 and b = 0 pass every value through, bar the sign of a zero
        layer = HiddenLayer(ADDITIVE_SIGMOID, np.ones((1, 1)), [0.0])
        X = self._sigmoid_values().reshape(-1, 1)
        A = X @ layer.W.T + layer.b
        assert hidden_apply(layer, X).tobytes() == self._masked_sigmoid(A).tobytes()
        assert np.isnan(hidden_apply(layer, np.array([[np.nan]]))[0, 0])

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("edge", ["one", "below", "step", "above", "several"])
    def test_sigmoid_bits_match_masked_form_at_tile_edges(self, m, edge):
        """The same bitwise match at row counts on every edge of the row
        tile step that the in-place sigmoid walks."""
        step = TILE_CELLS // m
        rows = {"one": 1, "below": step - 1, "step": step, "above": step + 1,
                "several": 3 * step + 5}[edge]
        # each of the m nodes sees the same value
        layer = HiddenLayer(ADDITIVE_SIGMOID, np.ones((m, 1)), np.zeros(m))
        X = np.resize(self._sigmoid_values(), rows).reshape(-1, 1)
        A = X @ layer.W.T + layer.b
        assert hidden_apply(layer, X).tobytes() == self._masked_sigmoid(A).tobytes()

    def test_rbf_unit_at_own_centre(self):
        layer = hidden_init(RBF_NODE, 5, 2, seed=2)
        H = hidden_apply(layer, layer.W)
        np.testing.assert_allclose(np.diag(H), np.ones(5), atol=1e-15)
        assert np.all(H > 0.0)
        assert np.all(H <= 1.0)

    def test_rbf_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        layer = hidden_init(RBF_NODE, 4, 3, seed=6)
        X = rng.normal(0.0, 1.0, (5, 3))
        H = hidden_apply(layer, X)
        expected = np.empty((5, 4))
        for i in range(5):
            for j in range(4):
                d2 = float(np.sum((X[i] - layer.W[j]) ** 2))
                expected[i, j] = np.exp(-layer.b[j] * d2)
        np.testing.assert_allclose(H, expected, atol=1e-14)

    def test_feature_count_checked(self):
        layer = hidden_init(ADDITIVE_SIGMOID, 3, 4, seed=0)
        with pytest.raises(DimensionMismatch):
            hidden_apply(layer, np.zeros((2, 3)))


class TestKernelGram:
    def test_rbf_self_similarity(self):
        """k(a, a) = 1 for the rbf kernel regardless of sigma."""
        rng = np.random.default_rng(14)
        X = rng.normal(0.0, 2.0, (10, 3))
        for sigma in (0.3, 1.0, 7.5):
            K = kernel_gram(rbf_kernel(sigma), X, X)
            np.testing.assert_allclose(np.diag(K), np.ones(10), atol=1e-15)

    def test_rbf_hand_value(self):
        """Distance sqrt(2) at sigma=1 gives exp(-1)."""
        A = np.array([[0.0, 0.0]])
        B = np.array([[1.0, 1.0]])
        K = kernel_gram(rbf_kernel(1.0), A, B)
        np.testing.assert_allclose(K[0, 0], np.exp(-1.0), atol=1e-15)

    def test_linear_orthonormal_rows(self):
        K = kernel_gram(linear_kernel(), np.eye(4), np.eye(4))
        np.testing.assert_array_equal(K, np.eye(4))

    def test_polynomial_hand_value(self):
        """(a.b + 1)^2 with a.b = 11 gives 144."""
        A = np.array([[1.0, 2.0]])
        B = np.array([[3.0, 4.0]])
        K = kernel_gram(polynomial_kernel(2, 1.0), A, B)
        assert K[0, 0] == 144.0

    def test_wavelet_hand_value(self):
        spec = wavelet_kernel(a=1.0, b_w=2.0, c_w=4.0)
        A = np.array([[1.0, 3.0]])
        B = np.array([[0.0, 1.0]])
        d = A[0] - B[0]
        expected = np.prod(np.cos(d / 2.0) * np.exp(-(d**2) / 4.0))
        K = kernel_gram(spec, A, B)
        np.testing.assert_allclose(K[0, 0], expected, atol=1e-15)

    def test_wavelet_unit_at_zero_distance(self):
        X = np.array([[0.4, -1.2, 2.0]])
        K = kernel_gram(wavelet_kernel(1.5, 0.7, 2.0), X, X)
        np.testing.assert_allclose(K[0, 0], 1.0, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        X = rng.normal(0.0, 1.0, (12, 4))
        specs = [
            rbf_kernel(1.3),
            linear_kernel(),
            polynomial_kernel(3, 1.0),
            wavelet_kernel(1.0, 1.5, 2.0),
        ]
        for spec in specs:
            K = kernel_gram(spec, X, X)
            np.testing.assert_allclose(K, K.T, atol=1e-12)

    def test_rbf_gram_is_psd(self):
        """Min eigenvalue of an rbf Gram stays above -1e-8 * trace."""
        rng = np.random.default_rng(31)
        for trial in range(5):
            X = rng.normal(0.0, 1.0, (50, 3))
            K = kernel_gram(rbf_kernel(0.8), X, X)
            w = np.linalg.eigvalsh(K)
            assert w[0] >= -1e-8 * np.trace(K)

    def test_rectangular_shape(self):
        rng = np.random.default_rng(4)
        A = rng.normal(0.0, 1.0, (7, 3))
        B = rng.normal(0.0, 1.0, (4, 3))
        assert kernel_gram(rbf_kernel(1.0), A, B).shape == (7, 4)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            kernel_gram(linear_kernel(), np.zeros((2, 3)), np.zeros((2, 4)))

    def test_random_kind_not_evaluable_directly(self):
        with pytest.raises(ValueError):
            kernel_gram(random_kernel(m=5), np.zeros((2, 2)), np.zeros((2, 2)))


class TestRandomKernelGram:
    def test_matches_linear_kernel_on_activations(self):
        rng = np.random.default_rng(17)
        layer = hidden_init(ADDITIVE_SIGMOID, 25, 3, seed=3)
        H = hidden_apply(layer, rng.normal(0.0, 1.0, (9, 3)))
        np.testing.assert_allclose(
            random_kernel_gram(H), kernel_gram(linear_kernel(), H, H), atol=1e-12
        )

    def test_identity_activations(self):
        np.testing.assert_array_equal(random_kernel_gram(np.eye(3)), np.eye(3))

    def test_single_row_gives_squared_norm(self):
        h = np.array([[3.0, 4.0]])
        assert random_kernel_gram(h)[0, 0] == 25.0

    def test_psd(self):
        rng = np.random.default_rng(29)
        H = rng.normal(0.0, 1.0, (20, 40))
        w = np.linalg.eigvalsh(random_kernel_gram(H))
        assert w[0] >= -1e-10


class TestKernelSpec:
    def test_rbf_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", sigma=-1.0)

    def test_polynomial_needs_degree_and_offset(self):
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0, offset=1.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=2, offset=-0.5)
        assert polynomial_kernel(2).offset == 1.0

    @pytest.mark.parametrize("degree", [2.5, math.nan, math.inf])
    def test_polynomial_degree_must_be_integral(self, degree):
        """A fractional power of a negative 1 + x.y is nan, so a
        non-integral degree is refused rather than truncated."""
        with pytest.raises(ValueError, match="integer degree"):
            KernelSpec("polynomial", degree=degree, offset=1.0)

    def test_polynomial_degree_kept_as_int(self):
        """An integral float degree becomes an int, so kernel bits and the
        saved kparam line match those of the int degree."""
        spec = KernelSpec("polynomial", degree=3.0, offset=1.0)
        assert type(spec.degree) is int and spec.degree == 3
        A = np.array([[2.0, 0.0], [0.5, -1.0]])
        B = np.array([[-1.0, 0.0], [0.3, 0.7]])
        np.testing.assert_array_equal(
            kernel_gram(spec, A, B), kernel_gram(polynomial_kernel(3), A, B)
        )

    def test_wavelet_needs_all_three_params(self):
        with pytest.raises(ValueError):
            KernelSpec("wavelet", a=1.0, b_w=1.0)
        with pytest.raises(ValueError):
            KernelSpec("wavelet", a=1.0, b_w=-1.0, c_w=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("cauchy")

    def test_random_node_type_checked(self):
        with pytest.raises(ValueError):
            KernelSpec("random", node_type="tanh")


def _one_shot_gram(spec, A, B):
    """The untiled formulas kernel_gram replaced, one full-size temporary
    per step."""
    if spec.kind == "rbf":
        D = cdist(A, B, "sqeuclidean")
        return np.exp(-D / (2.0 * spec.sigma**2))
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "polynomial":
        return (A @ B.T + spec.offset) ** spec.degree
    diff = A[:, None, :] - B[None, :, :]
    return np.prod(
        np.cos(spec.a * diff / spec.b_w) * np.exp(-(diff**2) / spec.c_w), axis=2
    )


def _one_shot_rbf_nodes(layer, X):
    D = cdist(X, layer.W, "sqeuclidean")
    return np.exp(-layer.b * D)


_WIDTHS = st.one_of(
    st.floats(0.05, 20.0),
    st.sampled_from([MAX_WIDTH, MAX_WIDTH / 3.0, 1e149, 1e-3]),
)


@st.composite
def _kernel_specs(draw):
    kind = draw(st.sampled_from(["rbf", "linear", "polynomial", "wavelet"]))
    if kind == "rbf":
        return rbf_kernel(draw(_WIDTHS))
    if kind == "linear":
        return linear_kernel()
    if kind == "polynomial":
        return polynomial_kernel(
            draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        )
    b_w = draw(_WIDTHS)
    return wavelet_kernel(draw(st.sampled_from([1.0, 0.3, 2.5])), b_w, b_w**2)


@st.composite
def _gram_cases(draw):
    """A kernel, a basis B and query rows A whose count sits on an edge of
    the tile step: 1, one below it, the step, one above it, or several
    tiles. Rows repeat inside A and between A and B."""
    spec = draw(_kernel_specs())
    wide = draw(st.booleans())
    n = draw(st.integers(1, 3 if wide else 9))
    # a basis of 1 row, or of more rows than the cell budget (a step of 1)
    N = TILE_CELLS + 3 if wide else draw(st.sampled_from([1, 2, 37, 300]))
    cells = N * n if spec.kind == "wavelet" else N
    step = max(1, TILE_CELLS // cells)
    rows = draw(st.sampled_from([
        1, max(1, step - 1), step, step + 1, 3 * step + draw(st.integers(0, step)),
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    B = rng.normal(0.0, scale, (N, n))
    A = rng.normal(0.0, scale, (rows, n))
    dup = min(rows, N, 5)
    A[:dup] = B[:dup]
    A[rows // 2 :: 7] = A[0]
    return spec, A, B


def _tile_bound(result: np.ndarray) -> int:
    """Peak bytes allowed for a tiled evaluation: the result plus two tiles
    of temporaries per tile thread (one per CPU in the affinity set)."""
    affinity = getattr(os, "sched_getaffinity", None)
    threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    return result.nbytes + 2 * threads * TILE_CELLS * result.itemsize


class TestTiledGram:
    """kernel_gram fills one output in row tiles; each tile must equal the
    one-shot formulas byte for byte, and no full-size temporary is made."""

    @settings(max_examples=150, deadline=None)
    @given(_gram_cases())
    def test_bytes_match_one_shot_formulas(self, case):
        spec, A, B = case
        K = kernel_gram(spec, A, B)
        assert K.shape == (A.shape[0], B.shape[0])
        assert K.tobytes() == _one_shot_gram(spec, A, B).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 63, 64, 65, 500, 2000]),
        st.integers(1, 120),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_rbf_nodes_match_one_shot_formula(self, rows, m, n, seed):
        layer = hidden_init(RBF_NODE, m, n, seed)
        X = np.random.default_rng(seed).normal(0.0, 1.0, (rows, n))
        X[rows // 2] = layer.W[0]
        H = hidden_apply(layer, X)
        assert H.tobytes() == _one_shot_rbf_nodes(layer, X).tobytes()

    @pytest.mark.parametrize(
        "spec",
        [wavelet_kernel(1.0, 1.5, 2.25), rbf_kernel(1.3), polynomial_kernel(3, 1.0)],
        ids=["wavelet", "rbf", "polynomial"],
    )
    def test_peak_memory_is_result_plus_tiles(self, spec):
        """The one-shot wavelet Gram of 200 x 4000 rows of 9 features
        peaked at 219.7 MB for a 6.1 MB result."""
        rng = np.random.default_rng(0)
        A = rng.normal(0.0, 1.0, (200, 9))
        B = rng.normal(0.0, 1.0, (4000, 9))
        tracemalloc.start()
        try:
            K = kernel_gram(spec, A, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _tile_bound(K)

    def test_sigmoid_nodes_peak_memory_is_result_plus_tiles(self):
        """Before the sigmoid ran over row tiles, 100 500 rows at m = 100
        peaked at 162.9 MB for a 76.7 MB result."""
        layer = hidden_init(ADDITIVE_SIGMOID, 100, 9, seed=5)
        X = np.random.default_rng(5).normal(0.0, 3.0, (20_000, 9))
        tracemalloc.start()
        try:
            H = hidden_apply(layer, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _tile_bound(H)


@st.composite
def _square_gram_cases(draw):
    """A kernel and rows X for the square K(X, X), with a row count on an
    edge of kernel_gram's tile step: 1, 2, the count N whose step is
    about N, one below or above it, or twice it. Rows repeat."""
    spec = draw(_kernel_specs())
    n = draw(st.integers(1, 5))
    per_row = n if spec.kind == "wavelet" else 1
    # at N = edge rows the step TILE_CELLS // (N * per_row) is about N
    edge = math.isqrt(TILE_CELLS // per_row)
    N = draw(st.sampled_from([1, 2, edge - 1, edge, edge + 1, 2 * edge]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 30.0])), (N, n))
    X[N // 2 :: 5] = X[0]
    return spec, X


class TestGramSymmetry:
    """solve_regularized copies a C-order Omega through its transpose, so
    every training Gram matrix must equal its transpose bit for bit."""

    @settings(max_examples=160, deadline=None)
    @given(_square_gram_cases())
    def test_explicit_kernels_are_bitwise_symmetric(self, case):
        spec, X = case
        K = kernel_gram(spec, X, X)
        assert K.tobytes() == K.T.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(NODE_TYPES),
        st.sampled_from([1, 7, 60, 100]),
        st.sampled_from([-1, 0, 1]),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_random_kernel_is_bitwise_symmetric(self, node_type, m, edge, n, seed):
        """Row counts on hidden_apply's tile edges (one step is
        TILE_CELLS // m rows), capped to keep the Gram small."""
        rows = min(TILE_CELLS // m, 1500) + edge
        layer = hidden_init(node_type, m, n, seed)
        X = np.random.default_rng(seed).normal(0.0, 2.0, (rows, n))
        X[rows // 2 :: 9] = X[0]
        K = random_kernel_gram(hidden_apply(layer, X))
        assert K.tobytes() == K.T.tobytes()
