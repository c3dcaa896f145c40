"""Property tests over saved model files: a mutated file either fails to
load with ModelFormatError or loads a model that scores with finite values.

The files cover offline kernel, offline random and online models, each
with thr1 (boundary) and thr3 (reconstruction). A last test round-trips
arrays of any finite bit pattern through _Writer.array and _Reader.array."""

import base64
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occelm.bench import score_model
from occelm.dataset import Dataset, zscore_fit
from occelm.errors import ModelFormatError
from occelm.featuremap import (
    RBF_NODE,
    hidden_init,
    polynomial_kernel,
    random_kernel,
    rbf_kernel,
)
from occelm.modelio import _Reader, _Writer, load_model, save_model
from occelm.offline import train_boundary, train_reconstruction
from occelm.online import os_finalize, os_init, os_update
from occelm.threshold import ThresholdSpec

_ROWS = np.random.default_rng(21).normal(0.0, 1.0, (12, 3))
_PROBES = np.random.default_rng(22).normal(0.0, 2.0, (25, 3))


def _online(family, tkind, node_type):
    layer = hidden_init(node_type, 4, 3, seed=5)
    model = os_init(family, layer, _ROWS[:6], zstats=zscore_fit(Dataset(_ROWS)))
    os_update(model, _ROWS[6:])
    return os_finalize(model, ThresholdSpec(tkind))


def _models():
    stats = zscore_fit(Dataset(_ROWS))
    thr1, thr3 = ThresholdSpec("thr1"), ThresholdSpec("thr3")
    return {
        "kernel_thr1": train_boundary(
            _ROWS, polynomial_kernel(2, 0.5), 10.0, thr1, zstats=stats
        ),
        "kernel_thr3": train_reconstruction(
            _ROWS, rbf_kernel(1.3), 10.0, thr3, zstats=stats
        ),
        "random_thr1": train_boundary(
            _ROWS, random_kernel(m=4), 10.0, thr1, seed=3, zstats=stats
        ),
        "random_thr3": train_reconstruction(
            _ROWS, random_kernel(m=4, node_type=RBF_NODE), 10.0, thr3, seed=4,
            zstats=stats,
        ),
        "online_thr1": _online("boundary", "thr1", "additive_sigmoid"),
        "online_thr3": _online("reconstruction", "thr3", RBF_NODE),
    }


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Each model's file lines, plus a scratch path for mutated copies."""
    root = tmp_path_factory.mktemp("models")
    lines = {}
    for key, model in _models().items():
        path = root / f"{key}.occ"
        save_model(model, str(path))
        lines[key] = path.read_text().splitlines()
    return lines, root / "mutated.occ"


# the matrices each file kind holds, in file order
_MATRICES_OF = {
    "kernel": ("basis", "beta"),
    "random": ("layerW", "basis", "beta"),
    "online": ("layerW", "beta"),
}
_KEY_NAMES = [f"{kind}_{tkind}" for kind in _MATRICES_OF for tkind in ("thr1", "thr3")]
_KEYS = st.sampled_from(_KEY_NAMES)


def _load(lines, path):
    path.write_text("\n".join(lines) + "\n")
    return load_model(str(path))


def _numeric_tokens(lines):
    """(line, token) positions of every value a float parse accepts."""
    out = []
    for i, line in enumerate(lines):
        tokens = line.split()
        for j, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                continue
            out.append((i, j))
    return out


def test_originals_load_and_score(saved):
    lines, path = saved
    for key in lines:
        scores = score_model(_load(lines[key], path), _PROBES).score
        assert np.all(np.isfinite(scores)), key


@settings(max_examples=300, deadline=None)
@given(key=_KEYS, token=st.sampled_from(["nan", "inf", "-inf"]), data=st.data())
def test_non_finite_token_refused(saved, key, token, data):
    """Any one count, size or parameter replaced by a non-finite token is
    refused; the only file that still loads is thr3's, unchanged, whose
    thresh is already nan."""
    lines, path = saved
    original = lines[key]
    i, j = data.draw(st.sampled_from(_numeric_tokens(original)))
    tokens = original[i].split()
    tokens[j] = token
    mutated = list(original)
    mutated[i] = " ".join(tokens)
    if mutated == original:
        assert np.isnan(_load(mutated, path).thresh)
        return
    with pytest.raises(ModelFormatError):
        _load(mutated, path)


@settings(max_examples=300, deadline=None)
@given(
    key=_KEYS, op=st.sampled_from(["delete", "duplicate", "truncate"]), data=st.data()
)
def test_line_damage_refused_or_scores_finite(saved, key, op, data):
    """Deleting, duplicating or truncating one line raises ModelFormatError
    or loads a model whose scores are all finite; nothing else escapes."""
    lines, path = saved
    mutated = list(lines[key])
    i = data.draw(st.integers(0, len(mutated) - 1))
    if op == "delete":
        del mutated[i]
    elif op == "duplicate":
        mutated.insert(i, mutated[i])
    else:
        mutated[i] = mutated[i][: data.draw(st.integers(0, len(mutated[i]) - 1))]
    try:
        model = _load(mutated, path)
    except ModelFormatError:
        return
    assert np.all(np.isfinite(score_model(model, _PROBES).score))


@pytest.mark.parametrize(
    "key,name",
    [(key, name) for key in _KEY_NAMES for name in _MATRICES_OF[key.split("_")[0]]],
)
def test_matrix_missing_last_row_refused(saved, key, name):
    """A matrix one row short, its shape line cut to match, disagrees with
    the shapes around it."""
    lines, path = saved
    mutated = list(lines[key])
    i = next(k for k, line in enumerate(mutated) if line.split()[0] == name)
    _, rows, cols = mutated[i].split()
    M = np.frombuffer(base64.b64decode(mutated[i + 1]), "<f8").reshape(int(rows), int(cols))
    out = _Writer()
    out.array(name, M[:-1])
    mutated[i : i + 2] = out
    with pytest.raises(ModelFormatError):
        _load(mutated, path)


_BITS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
_MAX = float(np.finfo(float).max)
# -0.0, the smallest subnormals, +-max, and finite values of any bit pattern
_FINITE = (st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, _MAX, -_MAX])
           | st.floats(allow_nan=False, allow_infinity=False) | _BITS.filter(math.isfinite))


@settings(max_examples=300, deadline=None)
@given(
    shape=st.lists(st.integers(0, 5), min_size=1, max_size=2).map(tuple),
    transpose=st.booleans(),
    data=st.data(),
)
def test_array_round_trip_bitwise(tmp_path_factory, shape, transpose, data):
    """_Reader.array gives back the bits _Writer.array wrote, from any
    memory layout, as a writeable, aligned, C-ordered float64 array."""
    values = data.draw(st.lists(_FINITE, min_size=math.prod(shape), max_size=math.prod(shape)))
    a = np.array(values, dtype=float).reshape(shape)
    a = a.T if transpose else a  # a Fortran-ordered view of a matrix
    out = _Writer()
    out.array("basis", a)
    out.fields("end")
    path = tmp_path_factory.getbasetemp() / "array.occ"
    path.write_text("\n".join(out) + "\n")
    reader = _Reader(str(path))
    got = reader.array("basis", a.ndim)
    assert (got.dtype, got.shape, got.tobytes()) == (np.float64, a.shape, a.tobytes())
    assert got.flags.writeable and got.flags.aligned and got.flags.c_contiguous
    assert reader.next() == "end"
