"""Versioned text serialization for trained models.

Layout: a header line "OCCELM v1", then keyword lines, then named
matrices (a "<name> <rows> <cols>" line followed by that many rows of
space-separated values). Floats print with 17 significant digits so a
round-trip reproduces every float64 bit; thr3 models carry the sentinel
thresh nan. Online models must be finalized before saving and load as
score-only finalized models. Loading refuses non-finite parameters: every
value a model scores with must be finite, except thr3's nan thresh.
"""

from __future__ import annotations

import numpy as np

from .dataset import ZScoreStats
from .errors import ModelFormatError, NotFinalized
from .featuremap import HiddenLayer, KernelSpec
from .linsolve import RlsState
from .offline import OfflineModel
from .online import OnlineModel
from .threshold import THR3, ThresholdSpec

HEADER = "OCCELM v1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(_fmt(v) for v in np.atleast_1d(row))


def _write_matrix(lines: list[str], name: str, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines.append(f"{name} {M.shape[0]} {M.shape[1]}")
    for row in M:
        lines.append(_fmt_row(row))


def _write_vector(lines: list[str], name: str, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=float).ravel()
    lines.append(f"{name} {v.size} " + _fmt_row(v))


def _tspec_line(tspec: ThresholdSpec) -> str:
    return (
        f"tspec {tspec.kind} {_fmt(tspec.fracrej)} {_fmt(tspec.std_mult)} "
        f"{_fmt(tspec.condn1)} {_fmt(tspec.condn2_frac)}"
    )


def _mapping_lines(lines: list[str], mapping: KernelSpec) -> None:
    lines.append(f"mapping {mapping.kind}")
    if mapping.kind == "random":
        _layer_lines(lines, mapping.layer)
    elif mapping.kind == "rbf":
        lines.append(f"kparam sigma {_fmt(mapping.sigma)}")
    elif mapping.kind == "polynomial":
        lines.append(f"kparam degree {mapping.degree}")
        lines.append(f"kparam offset {_fmt(mapping.offset)}")
    elif mapping.kind == "wavelet":
        lines.append(f"kparam a {_fmt(mapping.a)}")
        lines.append(f"kparam b_w {_fmt(mapping.b_w)}")
        lines.append(f"kparam c_w {_fmt(mapping.c_w)}")


def _layer_lines(lines: list[str], layer: HiddenLayer) -> None:
    lines.append(f"nodetype {layer.node_type}")
    _write_matrix(lines, "layerW", layer.W)
    _write_vector(lines, "layerb", layer.b)


def save_model(model: OfflineModel | OnlineModel, path: str) -> None:
    """Write a trained model; online models must be finalized."""
    lines = [HEADER]
    if isinstance(model, OfflineModel):
        lines.append("kind offline")
        lines.append(f"family {model.family}")
        _mapping_lines(lines, model.mapping)
        lines.append(f"C {_fmt(model.C)}")
        lines.append(f"R {_fmt(model.R)}")
        lines.append(_tspec_line(model.tspec))
        lines.append(f"thresh {_fmt(model.thresh)}")
        _write_vector(lines, "zmean", model.zstats.mean)
        _write_vector(lines, "zstd", model.zstats.std)
        _write_vector(lines, "trainerr", model.train_errors)
        _write_matrix(lines, "basis", model.basis)
        _write_matrix(lines, "beta", model.beta)
    elif isinstance(model, OnlineModel):
        if not model.finalized:
            raise NotFinalized("only finalized online models are saveable")
        lines.append("kind online")
        lines.append(f"family {model.family}")
        _layer_lines(lines, model.layer)
        lines.append(f"n0 {model.n0}")
        lines.append(f"block {model.block}")
        lines.append(f"seen {model.seen_count}")
        lines.append(f"R {_fmt(model.R)}")
        lines.append(_tspec_line(model.tspec))
        lines.append(f"thresh {_fmt(model.thresh)}")
        _write_vector(lines, "zmean", model.zstats.mean)
        _write_vector(lines, "zstd", model.zstats.std)
        _write_vector(lines, "trainerr", np.asarray(model.train_errors))
        _write_matrix(lines, "P", model.rls.P)
        _write_matrix(lines, "beta", model.rls.beta)
    else:
        raise TypeError(f"cannot save {type(model).__name__}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def keyword(self, name: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != name:
            raise ModelFormatError(f"expected {name!r}, found {line!r}")
        return parts[1:]

    def matrix(self, name: str) -> np.ndarray:
        rows, cols = (int(v) for v in self.keyword(name))
        M = np.empty((rows, cols))
        for i in range(rows):
            values = self.next().split()
            if len(values) != cols:
                raise ModelFormatError(
                    f"{name}: row {i} has {len(values)} values, expected {cols}"
                )
            M[i] = [float(v) for v in values]
        return _finite(name, M)

    def number(self, name: str) -> float:
        return _finite(name, float(self.keyword(name)[0]))

    def vector(self, name: str, finite: bool = True) -> np.ndarray:
        parts = self.keyword(name)
        size = int(parts[0])
        values = parts[1:]
        if len(values) != size:
            raise ModelFormatError(
                f"{name}: {len(values)} values, expected {size}"
            )
        out = np.array([float(v) for v in values])
        return _finite(name, out) if finite else out


def _read_thresh(reader: _Reader, tspec: ThresholdSpec) -> float:
    thresh = float(reader.keyword("thresh")[0])
    if tspec.kind == THR3 and np.isnan(thresh):
        return thresh  # thr3 decides per sample and stores no cut
    return _finite("thresh", thresh)


def _read_tspec(reader: _Reader) -> ThresholdSpec:
    parts = reader.keyword("tspec")
    if len(parts) != 5:
        raise ModelFormatError("tspec needs kind plus four parameters")
    return ThresholdSpec(
        kind=parts[0],
        fracrej=float(parts[1]),
        std_mult=float(parts[2]),
        condn1=float(parts[3]),
        condn2_frac=float(parts[4]),
    )


def _read_layer(reader: _Reader) -> HiddenLayer:
    (node_type,) = reader.keyword("nodetype")
    W = reader.matrix("layerW")
    b = reader.vector("layerb")
    return HiddenLayer(node_type, W, b)


def _read_mapping(reader: _Reader) -> KernelSpec:
    (kind,) = reader.keyword("mapping")
    if kind == "random":
        layer = _read_layer(reader)
        return KernelSpec("random", layer=layer, m=layer.m, node_type=layer.node_type)
    params: dict[str, float] = {}
    while (line := reader.peek()) is not None and line.startswith("kparam "):
        _, name, value = reader.next().split()
        params[name] = float(value)
    if kind == "rbf":
        return KernelSpec("rbf", sigma=params["sigma"])
    if kind == "linear":
        return KernelSpec("linear")
    if kind == "polynomial":
        return KernelSpec(
            "polynomial", degree=int(params["degree"]), offset=params["offset"]
        )
    if kind == "wavelet":
        return KernelSpec(
            "wavelet", a=params["a"], b_w=params["b_w"], c_w=params["c_w"]
        )
    raise ModelFormatError(f"unknown mapping kind {kind!r}")


def load_model(path: str) -> OfflineModel | OnlineModel:
    """Read a model written by save_model."""
    reader = _Reader(path)
    try:
        return _parse_model(reader)
    except (ValueError, IndexError) as exc:
        # unparseable numbers, short lines, bad field values
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def _parse_model(reader: _Reader) -> OfflineModel | OnlineModel:
    if reader.next() != HEADER:
        raise ModelFormatError(f"not a {HEADER!r} file")
    (kind,) = reader.keyword("kind")
    (family,) = reader.keyword("family")
    if kind == "offline":
        mapping = _read_mapping(reader)
        C = reader.number("C")
        R = reader.number("R")
        tspec = _read_tspec(reader)
        thresh = _read_thresh(reader, tspec)
        zstats = ZScoreStats(reader.vector("zmean"), reader.vector("zstd"))
        train_errors = reader.vector("trainerr", finite=False)
        basis = reader.matrix("basis")
        beta = reader.matrix("beta")
        reader.keyword("end")
        return OfflineModel(
            family=family,
            mapping=mapping,
            basis=basis,
            beta=beta,
            C=C,
            tspec=tspec,
            thresh=thresh,
            R=R,
            zstats=zstats,
            train_errors=train_errors,
        )
    if kind == "online":
        layer = _read_layer(reader)
        n0 = int(reader.keyword("n0")[0])
        block = int(reader.keyword("block")[0])
        seen = int(reader.keyword("seen")[0])
        R = reader.number("R")
        tspec = _read_tspec(reader)
        thresh = _read_thresh(reader, tspec)
        zstats = ZScoreStats(reader.vector("zmean"), reader.vector("zstd"))
        train_errors = reader.vector("trainerr", finite=False)
        P = reader.matrix("P")
        beta = reader.matrix("beta")
        reader.keyword("end")
        return OnlineModel(
            family=family,
            layer=layer,
            rls=RlsState(P, beta),
            R=R,
            zstats=zstats,
            seen_count=seen,
            n0=n0,
            block=block,
            retain=False,
            train_errors=train_errors.tolist(),
            tspec=tspec,
            thresh=thresh,
        )
    raise ModelFormatError(f"unknown model kind {kind!r}")
