"""Versioned text serialization for trained models.

Both model kinds share one layout, written and read in this order:

1. the header "OCCELM v1", then `kind` (offline or online) and `family`;
2. the feature map. Offline: `mapping`, then the hidden layer or the
   kernel's `kparam` lines (KERNEL_PARAMS), then `C`. Online: the hidden
   layer, then `n0`, `block` and `seen`;
3. `R`, `tspec`, `thresh`, `zmean`, `zstd` and `trainerr`;
4. the kind's matrix: `basis` (offline) or `P` (online);
5. `beta`, then `end`.

A hidden layer is `nodetype`, matrix `layerW` and vector `layerb`. A
vector is one line "<name> <size> v0 v1 ...", a matrix a "<name> <rows>
<cols>" line and that many rows. Ints print as they are, floats with 17
significant digits (a round trip keeps every bit); thr3 stores thresh nan.
Online models must be finalized to save, and load score-only.

load_model raises ModelFormatError for a missing, misplaced or extra line,
an unparseable or non-finite number (except trainerr, which scoring never
reads, and thr3's nan thresh), and matrix shapes that disagree with each
other or with the feature count.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .dataset import ZScoreStats
from .errors import DimensionMismatch, ModelFormatError, NotFinalized
from .featuremap import HiddenLayer, KernelSpec, random_kernel
from .linsolve import RlsState
from .offline import BOUNDARY, RECONSTRUCTION, OfflineModel
from .online import OnlineModel
from .threshold import THR3, ThresholdSpec

HEADER = "OCCELM v1"

# most tokens a matrix holds as strings at once while parsing; blocks of
# 2**16 raised the peak memory of the train/save/load/score benchmark by 2 MB
_BLOCK_TOKENS = 2**12

# kparam lines of each explicit kernel kind, in file order, with the type
# each value reads back as
KERNEL_PARAMS = {
    "rbf": (("sigma", float),),
    "linear": (),
    "polynomial": (("degree", int), ("offset", float)),
    "wavelet": (("a", float), ("b_w", float), ("c_w", float)),
}


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
        matrix, beta = ("basis", model.basis), model.beta
    else:
        out.layer(model.layer)
        out.fields("n0", model.n0)
        out.fields("block", model.block)
        out.fields("seen", model.seen_count)
        matrix, beta = ("P", model.rls.P), model.rls.beta
    out.fields("R", model.R)
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

    def matrix(self, name: str) -> np.ndarray:
        rows, cols = (int(token) for token in self.keyword(name))
        if min(rows, cols) < 0 or rows * cols > self.size:
            raise ModelFormatError(f"{name}: {rows} x {cols} does not fit the file")
        M = np.empty((rows, cols))
        step = max(1, _BLOCK_TOKENS // max(1, cols))
        for start in range(0, rows, step):
            block = []
            try:
                for i in range(start, min(start + step, rows)):
                    row = self.next().split()
                    if len(row) != cols:
                        raise ModelFormatError(
                            f"{name} row {i}: {len(row)} values, not {cols}"
                        )
                    block.append(row)
            finally:
                # the rows before a short or missing one are parsed even
                # then, so a bad number in them is the error reported, as
                # when each row was parsed as soon as it was read
                tokens = chain.from_iterable(block)
                M[start : start + len(block)] = np.fromiter(
                    map(float, tokens), float, len(block) * cols
                ).reshape(len(block), cols)
        return _finite(name, M)

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
    (R,) = reader.fields("R", float)
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

    n = zstats.feature_count
    m = n if layer is None else layer.m  # columns of basis or P
    for name, shape, want in (
        ("layerW", (m, n) if layer is None else layer.W.shape, (m, n)),
        (matrix_name, matrix.shape, (matrix.shape[0], m)),
        ("beta", beta.shape, (matrix.shape[0], 1 if family == BOUNDARY else n)),
    ):
        if shape != want:
            raise ModelFormatError(f"{name} is {shape}, expected {want}")

    common = dict(family=family, R=R, zstats=zstats, tspec=tspec, thresh=thresh)
    if kind == "offline":
        return OfflineModel(
            mapping=mapping, basis=matrix, beta=beta, C=C,
            train_errors=train_errors, **common,
        )
    return OnlineModel(
        layer=layer, rls=RlsState(matrix, beta), seen_count=seen, n0=n0,
        block=block, train_errors=train_errors.tolist(), **common,
    )
