"""Property tests over saved model files: a mutated file either fails to
load with ModelFormatError or loads a model that scores with finite values.

The files cover offline kernel, offline random and online models, each
with thr1 (boundary) and thr3 (reconstruction). A last test holds
_Reader.matrix to the per-value parse it replaced, on bits and on refusal
text."""

import warnings
from itertools import chain

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
from occelm.modelio import _Reader, _Writer, _finite, load_model, save_model
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
    """A matrix one row short, its header cut to match, disagrees with the
    shapes around it."""
    lines, path = saved
    mutated = list(lines[key])
    i = next(k for k, line in enumerate(mutated) if line.split()[0] == name)
    _, rows, cols = mutated[i].split()
    mutated[i] = f"{name} {int(rows) - 1} {cols}"
    del mutated[i + int(rows)]
    with pytest.raises(ModelFormatError):
        _load(mutated, path)


def _float_matrix(reader, name):
    """The per-value parse _Reader.matrix replaced: each row is split and
    length-checked as the parse reaches it, and every value read by float."""
    rows, cols = (int(token) for token in reader.keyword(name))
    if min(rows, cols) < 0 or rows * cols > reader.size:
        raise ModelFormatError(f"{name}: {rows} x {cols} does not fit the file")

    def row_tokens():
        for i in range(rows):
            tokens = reader.next().split()
            if len(tokens) != cols:
                raise ModelFormatError(f"{name} row {i}: {len(tokens)} values, not {cols}")
            yield tokens

    values = map(float, chain.from_iterable(row_tokens()))
    return _finite(name, np.fromiter(values, float, rows * cols).reshape(rows, cols))


def _outcome(parse, path):
    """parse's result on the file: the matrix's shape, bits and the reader's
    position after it, or the refusal's type and text; and any warning."""
    reader = _Reader(str(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            M = parse(reader, "basis")
            result = ("loaded", M.shape, M.tobytes(), reader.pos)
        except (ValueError, ModelFormatError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64))
).filter(np.isfinite)
# tokens that float reads and numpy's parser refuses, then tokens both refuse
_FLOAT_ONLY = ["1_0", "\u0661", " +1.5", "1e5_0", "\uff11", "-\u0663.5"]
_BAD = ["abc", "1.5.5", "0x10", "nan(1)", "1,5", "--1", "\x00", "\u0661\u066b\u0665", "nan", "-inf"]
_FAULTS = ["none", "short", "long", "blank", "spaces", "bad", "float_only", "separator",
           "into_keyword", "cut", "bad_then_short", "all_blank"]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 5),
    cols=st.sampled_from([1, 9, 100]),
    fault=st.sampled_from(_FAULTS),
    data=st.data(),
)
def test_matrix_parse_matches_float_parse(tmp_path_factory, rows, cols, fault, data):
    """_Reader.matrix gives the per-value parse's bits and reader position,
    or its refusal with the same text, with no warning: for finite values of
    any bit pattern, and for blocks with one fault."""
    values = data.draw(st.lists(_FINITE, min_size=rows * cols, max_size=rows * cols))
    out = _Writer()
    out.matrix("basis", np.array(values, dtype=float).reshape(rows, cols))
    out.fields("beta", 1, 1)
    out.append("0")
    lines = list(out)
    i = 1 + data.draw(st.integers(0, max(rows - 1, 0)))  # a row's line, or the next keyword
    tokens = lines[i].split()
    j = data.draw(st.integers(0, max(len(tokens) - 1, 0)))
    if fault == "short":
        lines[i] = " ".join(tokens[:-1])
    elif fault == "long":
        lines[i] += " 1"
    elif fault == "blank":
        lines[i] = ""
    elif fault == "spaces":
        lines[i] = " \t  "
    elif fault in ("bad", "float_only"):
        tokens[j] = data.draw(st.sampled_from(_BAD if fault == "bad" else _FLOAT_ONLY))
        lines[i] = " ".join(tokens)
    elif fault == "separator":
        lines[i] = data.draw(st.sampled_from(["\t", "  ", "\xa0", "\u3000"])).join(tokens)
    elif fault == "into_keyword":
        lines[0] = f"basis {rows + data.draw(st.integers(1, 2))} {cols}"
    elif fault == "cut":
        lines = lines[:i]
    elif fault == "bad_then_short":
        tokens[j] = "abc"
        lines[i] = " ".join(tokens)
        if i + 1 <= rows:
            lines[i + 1] = " ".join(lines[i + 1].split()[:-1])
    elif fault == "all_blank":
        lines[1 : 1 + rows] = [""] * rows
    path = tmp_path_factory.getbasetemp() / "parity.occ"
    path.write_text("\n".join(lines) + "\n")
    got, warned = _outcome(_Reader.matrix, path)
    assert (got, warned) == (_outcome(_float_matrix, path)[0], [])
