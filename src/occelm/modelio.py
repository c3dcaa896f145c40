"""Versioned serialization for trained models.

A file holds what scoring reads and the training parameters, in order:

1. the header "OCCELM v4", then `kind` (offline or online) and `family`;
2. the feature map. Offline: `mapping`, then the hidden layer or the
   kernel's `kparam` lines (featuremap.KERNEL_PARAMS names them, in
   order), then `C`. Online: the hidden layer, then `n0` and `block`;
3. `tspec`, `thresh` and the vectors `zmean` and `zstd`;
4. offline only: the matrix `basis`, the normalized training rows;
5. the matrix `beta`, then `end`.

A hidden layer is `nodetype`, matrix `layerW` and vector `layerb`.
Keywords and scalars are text, each float spelled by dataset.value_text
(17 significant digits keep every bit); thr3 stores thresh nan. An array
is a "<name> <size>..." line with one size per dimension, then one line of
RFC 4648 base64 holding its values as little-endian float64 ('<f8') in C
order, so it loads with the bits it was saved with. Random offline models
rebuild H at load, in one hidden_apply call on all rows as at training, so
H keeps its trained bits. No training record is kept: not the per-row
training errors (scoring reads the stored cut), nor an online model's RLS
matrix P. Online models must be finalized to save, and a loaded model only
scores: its train_errors is None, and a loaded online model's state is
RlsState(None, beta), which rls_update refuses.

load_model raises ModelFormatError for another header (v1 stored H as the
random basis, v2 the training record, v3 arrays as decimal text), a
missing, misplaced or extra line, an unparseable or non-finite number
(except thr3's nan thresh), C <= 0, n0 or block < 1, an array whose shape
line has another number of sizes or a negative one, whose payload is not
base64 or holds another byte count than 8 per value, and shapes that
disagree with each other or with the feature count: `basis` and `layerW`
have one column per feature, an online `beta` one row per hidden node. It
also refuses a boundary model whose `tspec` is thr3, which training refuses
too: thr3 needs per-feature outputs.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from .dataset import ZScoreStats, value_text
from .errors import DimensionMismatch, ModelFormatError, NotFinalized
from .featuremap import KERNEL_PARAMS, HiddenLayer, KernelSpec, hidden_apply, random_kernel
from .linsolve import RlsState
from .offline import BOUNDARY, RECONSTRUCTION, OfflineModel
from .online import OnlineModel
from .threshold import THR3, ThresholdSpec

HEADER = "OCCELM v4"


class _Writer(list):
    """The file's lines; each method writes what _Reader's namesake reads."""

    def fields(self, name: str, *values) -> None:
        self.append(" ".join([name, *map(value_text, values)]))

    def array(self, name: str, a: np.ndarray) -> None:
        a = np.asarray(a, dtype="<f8")
        self.fields(name, *a.shape)
        self.append(base64.b64encode(a.tobytes()).decode("ascii"))

    def layer(self, layer: HiddenLayer) -> None:
        self.fields("nodetype", layer.node_type)
        self.array("layerW", layer.W)
        self.array("layerb", layer.b)


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
    else:
        out.layer(model.layer)
        out.fields("n0", model.n0)
        out.fields("block", model.block)
    t = model.tspec
    out.fields("tspec", t.kind, t.fracrej, t.std_mult, t.condn1, t.condn2_frac)
    out.fields("thresh", model.thresh)
    out.array("zmean", model.zstats.mean)
    out.array("zstd", model.zstats.std)
    if offline:
        out.array("basis", model.rows)
    out.array("beta", model.beta if offline else model.rls.beta)
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

    def array(self, name: str, ndim: int) -> np.ndarray:
        shape = tuple(int(token) for token in self.keyword(name))
        if len(shape) != ndim or min(shape) < 0:
            raise ModelFormatError(f"{name}: shape {shape} is not {ndim} sizes >= 0")
        raw = base64.b64decode(self.next(), validate=True)  # binascii.Error is a ValueError
        if len(raw) != 8 * math.prod(shape):  # Python ints: a lying shape allocates nothing
            raise ModelFormatError(f"{name}: shape {shape} does not fit {len(raw)} bytes")
        # a bytearray's buffer keeps the array writeable, aligned and C-ordered
        return _finite(name, np.frombuffer(bytearray(raw), "<f8").reshape(shape))

    def layer(self) -> HiddenLayer:
        (node_type,) = self.fields("nodetype", str)
        return HiddenLayer(node_type, self.array("layerW", 2), self.array("layerb", 1))


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
        params = dict(C=reader.fields("C", float)[0])
    elif kind == "online":
        layer = reader.layer()
        params = {name: reader.fields(name, int)[0] for name in ("n0", "block")}
    else:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    if min(params.values()) <= 0:  # training refuses C <= 0 and chunks below 1 row
        raise ModelFormatError(f"parameters must be positive: {params}")
    tspec = ThresholdSpec(*reader.fields("tspec", str, float, float, float, float))
    if family == BOUNDARY and tspec.kind == THR3:
        raise ModelFormatError("tspec: thr3 needs per-feature outputs; boundary models have one")
    (thresh,) = reader.fields("thresh", float, finite=False)
    if not (tspec.kind == THR3 and np.isnan(thresh)):
        _finite("thresh", thresh)  # thr3 decides per sample and stores no cut
    zstats = ZScoreStats(reader.array("zmean", 1), reader.array("zstd", 1))
    rows = reader.array("basis", 2) if kind == "offline" else None
    beta = reader.array("beta", 2)
    reader.fields("end")
    if reader.pos != len(reader.lines):
        raise ModelFormatError("content after 'end'")

    n, m = zstats.feature_count, 0 if layer is None else layer.m
    N = m if rows is None else rows.shape[0]  # beta: a row per hidden node or basis row
    for name, shape, want in (
        ("layerW", (m, n) if layer is None else layer.W.shape, (m, n)),
        ("basis", (N, n) if rows is None else rows.shape, (N, n)),
        ("beta", beta.shape, (N, 1 if family == BOUNDARY else n)),
    ):
        if shape != want:
            raise ModelFormatError(f"{name} is {shape}, expected {want}")

    common = dict(family=family, zstats=zstats, tspec=tspec, thresh=thresh, train_errors=None)
    if kind == "offline":
        basis = rows if layer is None else hidden_apply(layer, rows)
        return OfflineModel(mapping=mapping, rows=rows, basis=basis, beta=beta, **params, **common)
    return OnlineModel(layer=layer, rls=RlsState(None, beta), **params, **common)
