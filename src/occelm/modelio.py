"""Versioned text serialization for trained models.

Both model kinds share one layout, written and read in this order:

1. the header "OCCELM v2", then `kind` (offline or online) and `family`;
2. the feature map. Offline: `mapping`, then the hidden layer or the
   kernel's `kparam` lines (featuremap.KERNEL_PARAMS names them, in
   order), then `C`. Online: the hidden layer, then `n0`, `block` and
   `seen`;
3. `R` (always 1), `tspec`, `thresh`, `zmean`, `zstd` and `trainerr`;
4. `basis` (offline: the normalized training rows) or `P` (online);
5. `beta`, then `end`.

A hidden layer is `nodetype`, matrix `layerW` and vector `layerb`. A
vector is one line "<name> <size> v0 v1 ...", a matrix a "<name> <rows>
<cols>" line and that many rows. Ints print as they are, floats with 17
significant digits (a round trip keeps every bit); thr3 stores thresh nan.
Online models must be finalized to save, and load score-only. Random
offline models rebuild H at load, in one hidden_apply call on all rows as
at training, so H keeps its trained bits.

load_model raises ModelFormatError for another header (v1 stored H as the
random basis), an `R` other than 1, a missing, misplaced or extra line, an
unparseable or non-finite number (except trainerr, which scoring never
reads, and thr3's nan thresh), and shapes that disagree with each other or
with the feature count: `basis` has one column per feature, `layerW` one
row per `P` row.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .dataset import ZScoreStats
from .errors import DimensionMismatch, ModelFormatError, NotFinalized
from .featuremap import KERNEL_PARAMS, HiddenLayer, KernelSpec, hidden_apply, random_kernel
from .linsolve import RlsState
from .offline import BOUNDARY, RECONSTRUCTION, OfflineModel
from .online import OnlineModel
from .threshold import THR3, ThresholdSpec

HEADER = "OCCELM v2"


def _text(value) -> str:
    return str(value) if isinstance(value, (str, int)) else f"{float(value):.17g}"


def _row(values: np.ndarray) -> str:
    # one format call per row; the same bytes as joining f"{v:.17g}"
    return ("%.17g " * values.size)[:-1] % tuple(values.tolist())


class _Writer(list):
    """The file's lines; each method writes what _Reader's namesake reads."""

    def fields(self, name: str, *values) -> None:
        self.append(" ".join([name, *map(_text, values)]))

    def vector(self, name: str, v) -> None:
        v = np.asarray(v, dtype=float).ravel()
        self.append(f"{name} {v.size} " + _row(v))

    def matrix(self, name: str, M: np.ndarray) -> None:
        M = np.atleast_2d(np.asarray(M, dtype=float))
        self.append(f"{name} {M.shape[0]} {M.shape[1]}")
        self.extend(map(_row, M))

    def layer(self, layer: HiddenLayer) -> None:
        self.fields("nodetype", layer.node_type)
        self.matrix("layerW", layer.W)
        self.vector("layerb", layer.b)


def save_model(model: OfflineModel | OnlineModel, path: str) -> None:
    """Write a trained model; online models must be finalized."""
    offline = isinstance(model, OfflineModel)
    if not offline and not isinstance(model, OnlineModel):
        raise TypeError(f"cannot save {type(model).__name__}")
    if not offline and not model.finalized:
        raise NotFinalized("only finalized online models are saveable")
    out = _Writer([HEADER])
    out.fields("kind", "offline" if offline else "online")
    out.fields("family", model.family)
    if offline:
        mapping = model.mapping
        out.fields("mapping", mapping.kind)
        if mapping.kind == "random":
            out.layer(mapping.layer)
        for name, _ in KERNEL_PARAMS.get(mapping.kind, ()):
            out.fields(f"kparam {name}", getattr(mapping, name))
        out.fields("C", model.C)
        matrix, beta = ("basis", model.rows), model.beta
    else:
        out.layer(model.layer)
        out.fields("n0", model.n0)
        out.fields("block", model.block)
        out.fields("seen", model.seen_count)
        matrix, beta = ("P", model.rls.P), model.rls.beta
    out.fields("R", 1)
    t = model.tspec
    out.fields("tspec", t.kind, t.fracrej, t.std_mult, t.condn1, t.condn2_frac)
    out.fields("thresh", model.thresh)
    out.vector("zmean", model.zstats.mean)
    out.vector("zstd", model.zstats.std)
    out.vector("trainerr", model.train_errors)
    out.matrix(*matrix)
    out.matrix("beta", beta)
    out.fields("end")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _finite(name: str, value):
    if not np.all(np.isfinite(value)):
        raise ModelFormatError(f"{name}: non-finite value")
    return value


class _Reader:
    def __init__(self, path: str) -> None:
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.size = sum(map(len, self.lines))  # bounds a matrix's value count
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def keyword(self, name: str) -> list[str]:
        line = self.next()
        head = name.split()
        parts = line.split()
        if parts[: len(head)] != head:
            raise ModelFormatError(f"expected {name!r}, found {line!r}")
        return parts[len(head):]

    def fields(self, name: str, *parse, finite: bool = True) -> list:
        tokens = self.keyword(name)
        if len(tokens) != len(parse):
            raise ModelFormatError(f"{name}: {len(tokens)} values, not {len(parse)}")
        values = [p(token) for p, token in zip(parse, tokens)]
        if finite:
            _finite(name, [v for v in values if isinstance(v, float)])
        return values

    def vector(self, name: str, finite: bool = True) -> np.ndarray:
        size, *tokens = self.keyword(name)
        v = np.fromiter(map(float, tokens), float, len(tokens))
        if v.size != int(size):
            raise ModelFormatError(f"{name}: {v.size} values, not {size}")
        return _finite(name, v) if finite else v

    def row_tokens(self, name: str, rows: int, cols: int):
        for i in range(rows):
            tokens = self.next().split()
            if len(tokens) != cols:
                raise ModelFormatError(f"{name} row {i}: {len(tokens)} values, not {cols}")
            yield tokens

    def matrix(self, name: str) -> np.ndarray:
        rows, cols = (int(token) for token in self.keyword(name))
        if min(rows, cols) < 0 or rows * cols > self.size:
            raise ModelFormatError(f"{name}: {rows} x {cols} does not fit the file")
        # rows are read as the parse reaches them, so a bad number is
        # reported before a later short row; no list of floats is built
        values = map(float, chain.from_iterable(self.row_tokens(name, rows, cols)))
        return _finite(name, np.fromiter(values, float, rows * cols).reshape(rows, cols))

    def layer(self) -> HiddenLayer:
        (node_type,) = self.fields("nodetype", str)
        return HiddenLayer(node_type, self.matrix("layerW"), self.vector("layerb"))


def load_model(path: str) -> OfflineModel | OnlineModel:
    """Read a model written by save_model."""
    try:
        return _parse_model(_Reader(path))
    except (ValueError, DimensionMismatch) as exc:
        # unparseable numbers, short lines, bad field values or shapes
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def _parse_model(reader: _Reader) -> OfflineModel | OnlineModel:
    reader.fields(HEADER)
    (kind,) = reader.fields("kind", str)
    (family,) = reader.fields("family", str)
    if family not in (BOUNDARY, RECONSTRUCTION):
        raise ModelFormatError(f"unknown family {family!r}")
    if kind == "offline":
        (mapping_kind,) = reader.fields("mapping", str)
        if mapping_kind == "random":
            layer = reader.layer()
            mapping = random_kernel(layer.m, layer.node_type, layer)
        elif mapping_kind in KERNEL_PARAMS:
            layer = None
            mapping = KernelSpec(mapping_kind, **{
                name: reader.fields(f"kparam {name}", parse)[0]
                for name, parse in KERNEL_PARAMS[mapping_kind]
            })
        else:
            raise ModelFormatError(f"unknown mapping kind {mapping_kind!r}")
        (C,) = reader.fields("C", float)
    elif kind == "online":
        layer = reader.layer()
        (n0,) = reader.fields("n0", int)
        (block,) = reader.fields("block", int)
        (seen,) = reader.fields("seen", int)
    else:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    if reader.fields("R", float) != [1.0]:
        raise ModelFormatError("R: the boundary target is 1")
    tspec = ThresholdSpec(*reader.fields("tspec", str, float, float, float, float))
    (thresh,) = reader.fields("thresh", float, finite=False)
    if not (tspec.kind == THR3 and np.isnan(thresh)):
        _finite("thresh", thresh)  # thr3 decides per sample and stores no cut
    zstats = ZScoreStats(reader.vector("zmean"), reader.vector("zstd"))
    train_errors = reader.vector("trainerr", finite=False)
    matrix_name = "basis" if kind == "offline" else "P"
    matrix = reader.matrix(matrix_name)
    beta = reader.matrix("beta")
    reader.fields("end")
    if reader.pos != len(reader.lines):
        raise ModelFormatError("content after 'end'")

    n, rows = zstats.feature_count, matrix.shape[0]
    m = layer.m if kind == "offline" and layer is not None else rows
    for name, shape, want in (
        ("layerW", (m, n) if layer is None else layer.W.shape, (m, n)),
        (matrix_name, matrix.shape, (rows, n if kind == "offline" else m)),
        ("beta", beta.shape, (rows, 1 if family == BOUNDARY else n)),
    ):
        if shape != want:
            raise ModelFormatError(f"{name} is {shape}, expected {want}")

    common = dict(family=family, zstats=zstats, tspec=tspec, thresh=thresh)
    if kind == "offline":
        basis = matrix if layer is None else hidden_apply(layer, matrix)
        return OfflineModel(
            mapping=mapping, rows=matrix, basis=basis, beta=beta, C=C,
            train_errors=train_errors, **common,
        )
    return OnlineModel(
        layer=layer, rls=RlsState(matrix, beta), seen_count=seen, n0=n0,
        block=block, train_errors=train_errors, **common,
    )
