"""Tests for the model save/load format."""

import base64
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli

import occelm.cli
import occelm.modelio
import occelm.offline
from occelm.dataset import Dataset, zscore_fit
from occelm.errors import AlreadyFinalized, ModelFormatError, NotFinalized
from occelm.featuremap import (
    NODE_TYPES,
    TILE_CELLS,
    hidden_apply,
    hidden_init,
    random_kernel,
    rbf_kernel,
    wavelet_kernel,
)
from occelm.linsolve import rls_update
from occelm.modelio import (
    _Reader,
    _Writer,
    load_model,
    save_model,
)
from occelm.offline import (
    BOUNDARY,
    RECONSTRUCTION,
    score,
    train_boundary,
    train_reconstruction,
)
from occelm.online import OnlineModel, os_finalize, os_init, os_score, os_update
from occelm.threshold import ThresholdSpec


def _cloud(seed, count=30, n=3):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (count, n))


class TestOfflineRoundTrip:
    def test_kernel_model_exact(self, tmp_path):
        """Every stored array survives save/load bit for bit."""
        X = _cloud(1)
        stats = zscore_fit(Dataset(X))
        model = train_boundary(
            X, rbf_kernel(1.37), 12.5, ThresholdSpec("thr1"), zstats=stats
        )
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.family == model.family
        assert loaded.C == model.C
        assert loaded.thresh == model.thresh
        assert loaded.tspec == model.tspec
        assert loaded.mapping.kind == "rbf"
        assert loaded.mapping.sigma == 1.37
        np.testing.assert_array_equal(loaded.beta, model.beta)
        np.testing.assert_array_equal(loaded.basis, model.basis)
        np.testing.assert_array_equal(loaded.zstats.mean, model.zstats.mean)
        np.testing.assert_array_equal(loaded.zstats.std, model.zstats.std)
        # the file keeps the cut, not the per-row errors it was fitted on
        assert isinstance(model.train_errors, np.ndarray)
        assert loaded.train_errors is None

    def test_scores_identical_after_reload(self, tmp_path):
        X = _cloud(2)
        model = train_reconstruction(
            X, rbf_kernel(0.9), 100.0, ThresholdSpec("thr2")
        )
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        Y = _cloud(3, count=10)
        a = [(d.is_target, d.score) for d in score(model, Y)]
        b = [(d.is_target, d.score) for d in score(loaded, Y)]
        assert a == b

    def test_random_mapping_layer_preserved(self, tmp_path):
        X = _cloud(4)
        model = train_boundary(
            X, random_kernel(m=12), 1.0, ThresholdSpec("thr1"), seed=9
        )
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.mapping.kind == "random"
        layer = loaded.mapping.layer
        np.testing.assert_array_equal(layer.W, model.mapping.layer.W)
        np.testing.assert_array_equal(layer.b, model.mapping.layer.b)
        assert layer.node_type == model.mapping.layer.node_type
        Y = _cloud(5, count=8)
        assert [d.score for d in score(loaded, Y)] == [
            d.score for d in score(model, Y)
        ]

    def test_wavelet_params_preserved(self, tmp_path):
        model = train_reconstruction(
            _cloud(6), wavelet_kernel(1.0, 1.5, 2.25), 10.0,
            ThresholdSpec("thr3", condn1=0.4, condn2_frac=0.2),
        )
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.mapping.a == 1.0
        assert loaded.mapping.b_w == 1.5
        assert loaded.mapping.c_w == 2.25
        assert loaded.tspec.condn1 == 0.4
        assert loaded.tspec.condn2_frac == 0.2
        assert np.isnan(loaded.thresh)


def _score_bits(model, Y) -> bytes:
    d = score(model, Y)
    return d.score.tobytes() + d.is_target.tobytes() + np.float64(d.thresh).tobytes()


class TestRandomModelRoundTrip:
    """A random model's file holds its normalized training rows; load_model
    rebuilds H from them in one hidden_apply call, bit for bit. N sits on
    hidden_apply's row-tile edges for two hidden widths."""

    CASES = [
        (node_type, family, m, TILE_CELLS // m + edge)
        for node_type in NODE_TYPES
        for family in (BOUNDARY, RECONSTRUCTION)
        for m in (100, 150)
        for edge in (-1, 0, 1)
    ]

    @pytest.mark.parametrize("node_type,family,m,N", CASES)
    def test_round_trip_bitwise(self, tmp_path, node_type, family, m, N):
        X = _cloud(m + N, count=N, n=5)
        train = train_boundary if family == BOUNDARY else train_reconstruction
        tspec = ThresholdSpec("thr1" if family == BOUNDARY else "thr3")
        model = train(
            X, random_kernel(m, node_type), 1.0, tspec, seed=N,
            zstats=zscore_fit(Dataset(X)),
        )
        first, second = tmp_path / "a.occ", tmp_path / "b.occ"
        save_model(model, str(first))
        loaded = load_model(str(first))
        assert loaded.basis.shape == (N, m)
        assert loaded.basis.tobytes() == model.basis.tobytes()
        Y = _cloud(N, count=300, n=5) * 2.0
        assert _score_bits(loaded, Y) == _score_bits(model, Y)
        save_model(loaded, str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_file_stores_rows_not_activations(self, tmp_path):
        X = _cloud(30, count=40, n=3)
        model = train_boundary(X, random_kernel(m=25), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "OCCELM v4"
        assert "basis 40 3" in lines
        assert load_model(str(path)).rows.tobytes() == X.tobytes()

    def test_h_built_once_at_load_and_never_when_scoring(self, tmp_path, monkeypatch):
        """load_model applies the layer to all N training rows once; a score
        call applies it only to the rows it scores."""
        X = _cloud(31, count=50, n=3)
        model = train_boundary(X, random_kernel(m=20), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        calls = []

        def counted(layer, rows):
            calls.append(rows.shape[0])
            return hidden_apply(layer, rows)

        monkeypatch.setattr(occelm.modelio, "hidden_apply", counted)
        monkeypatch.setattr(occelm.offline, "hidden_apply", counted)
        loaded = load_model(str(path))
        assert calls == [50]
        score(loaded, _cloud(32, count=7, n=3))
        score(loaded, _cloud(33, count=4, n=3))
        assert calls == [50, 7, 4]

    def test_v1_file_refused(self, tmp_path):
        """A v1 random file stored H as its basis. With m == n it has the
        shape of a v4 file's rows, so only the header tells them apart."""
        X = _cloud(34, count=20, n=3)
        model = train_boundary(X, random_kernel(m=3), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        v1 = ["OCCELM v1", *lines[1:]]
        _rewrite(v1, "basis", lambda rows: model.basis)
        for header in ("OCCELM v1", "OCCELM v3"):
            path.write_text("\n".join([header, *v1[1:]]) + "\n")
            with pytest.raises(ModelFormatError, match=f"found '{header}'"):
                load_model(str(path))
        # read as v4, the same body loads, with H applied to H
        path.write_text("\n".join(["OCCELM v4", *v1[1:]]) + "\n")
        misread = load_model(str(path))
        assert not np.array_equal(misread.basis, model.basis)

    @pytest.mark.parametrize("kind", ["offline", "online"])
    def test_v2_file_refused(self, tmp_path, kind):
        """A v2 file also held its training record: `R`, `trainerr` and, for
        online models, `seen` and `P`; a v3 file held no record, but its
        arrays as decimal text. Their headers refuse them."""
        model, path = _model_file(tmp_path, kind)
        lines = path.read_text().splitlines()
        for header, body in [("OCCELM v2", _with_record(model, lines)), ("OCCELM v3", lines)]:
            path.write_text("\n".join([header, *body[1:]]) + "\n")
            with pytest.raises(ModelFormatError, match=f"^expected 'OCCELM v4', found '{header}'$"):
                load_model(str(path))


class TestOnlineRoundTrip:
    def _trained(self, seed=7):
        X = _cloud(seed, count=50)
        layer = hidden_init("additive_sigmoid", 8, 3, seed=1)
        model = os_init("boundary", layer, X[:20])
        os_update(model, X[20:])
        os_finalize(model, ThresholdSpec("thr1", fracrej=0.15))
        return model, X

    def test_finalized_model_round_trip(self, tmp_path):
        model, X = self._trained()
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.finalized
        assert loaded.family == model.family
        assert (loaded.n0, loaded.block) == (model.n0, model.block)
        assert loaded.thresh == model.thresh
        np.testing.assert_array_equal(loaded.rls.beta, model.rls.beta)
        # the file keeps the weights and the cut, not the training record
        assert isinstance(model.train_errors, np.ndarray)
        assert loaded.train_errors is None
        assert loaded.rls.P is None
        a = [(d.is_target, d.score) for d in os_score(model, X)]
        b = [(d.is_target, d.score) for d in os_score(loaded, X)]
        assert a == b

    def test_loaded_model_is_score_only(self, tmp_path):
        """Retained rows are not persisted, so a reloaded model keeps no
        training data."""
        model, _ = self._trained(seed=8)
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.retained_rows == []

    def test_loaded_state_refuses_updates(self, tmp_path):
        """A loaded state has no P, so the RLS update refuses it, as
        os_update refuses the finalized model."""
        model, X = self._trained(seed=9)
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        H = hidden_apply(loaded.layer, X[:3])
        with pytest.raises(AlreadyFinalized, match="^a state without P only scores: no updates$"):
            rls_update(loaded.rls, H, np.ones((3, 1)))
        with pytest.raises(AlreadyFinalized, match="^no updates after finalize$"):
            os_update(loaded, X[:3])

    def test_beta_with_extra_row_refused(self, tmp_path):
        """An online beta has one row per hidden node: one more row
        disagrees with the layer's m nodes."""
        path = _online_file(tmp_path)

        _edit(path, lambda lines: _rewrite(lines, "beta", lambda beta: beta[[*range(8), 0]]))
        with pytest.raises(ModelFormatError, match=r"^beta is \(9, 1\), expected \(8, 1\)$"):
            load_model(str(path))

    def test_unfinalized_save_refused(self, tmp_path):
        X = _cloud(9, count=20)
        layer = hidden_init("additive_sigmoid", 5, 3, seed=0)
        model = os_init("boundary", layer, X)
        with pytest.raises(NotFinalized):
            save_model(model, str(tmp_path / "m.occ"))


class TestMalformedFiles:
    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.occ"
        for header in ("SOMETHING ELSE", "OCCELM v3", "OCCELM v5"):
            path.write_text(header + "\n")
            with pytest.raises(ModelFormatError, match=f"^expected 'OCCELM v4', found '{header}'$"):
                load_model(str(path))

    def test_truncated_file(self, tmp_path):
        X = _cloud(10)
        model = train_boundary(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        text = path.read_text()
        (tmp_path / "cut.occ").write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError):
            load_model(str(tmp_path / "cut.occ"))

    def test_garbled_number(self, tmp_path):
        X = _cloud(11)
        model = train_boundary(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        text = path.read_text().replace("thresh ", "thresh abc", 1)
        (tmp_path / "bad.occ").write_text(text)
        with pytest.raises(ModelFormatError):
            load_model(str(tmp_path / "bad.occ"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.occ"
        path.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(str(path))


def _model_file(tmp_path, kind, tkind="thr1"):
    """An offline random or an online model, saved, and its file."""
    if kind == "offline":
        X = _cloud(12)
        model = train_reconstruction(
            X, random_kernel(m=6), 1.0, ThresholdSpec(tkind), seed=3,
            zstats=zscore_fit(Dataset(X)),
        )
    else:
        model, _ = TestOnlineRoundTrip()._trained()
    path = tmp_path / ("off.occ" if kind == "offline" else "on.occ")
    save_model(model, str(path))
    return model, path


def _offline_file(tmp_path, tkind="thr1"):
    return _model_file(tmp_path, "offline", tkind)[1]


def _online_file(tmp_path):
    return _model_file(tmp_path, "online")[1]


def _rewrite(lines, name, change):
    """Put the lines of array change(a) in place of array name's two lines,
    a being the array they hold."""
    i = next(k for k, line in enumerate(lines) if line.split()[0] == name)
    shape = [int(size) for size in lines[i].split()[1:]]
    out = _Writer()
    out.array(name, change(np.frombuffer(base64.b64decode(lines[i + 1]), "<f8").reshape(shape)))
    lines[i : i + 2] = out


def _with_record(model, lines, names=("seen", "R", "trainerr", "P")):
    """A v4 file's lines with the named lines of the training record that
    v2 files held put back in their v2 places: `seen` after `block`, `R`
    before `tspec`, `trainerr` after `zstd` (before `basis`, or online
    before `P`) and `P` before `beta`. Only online models had `seen` and
    `P`."""
    online = isinstance(model, OnlineModel)
    out = _Writer()
    for line in lines:
        name = line.split()[0]
        if name == "tspec" and "R" in names:
            out.append("R 1")
        if name == ("beta" if online else "basis") and "trainerr" in names:
            out.array("trainerr", model.train_errors)
        if name == "beta" and online and "P" in names:
            out.array("P", model.rls.P)
        out.append(line)
        if name == "block" and "seen" in names:
            out.fields("seen", sum(map(len, model.retained_rows)))
    return out


@pytest.mark.parametrize("kind,name", [
    ("offline", "R"), ("offline", "trainerr"),
    ("online", "seen"), ("online", "R"), ("online", "trainerr"), ("online", "P"),
])
def test_leftover_record_line_refused(tmp_path, kind, name):
    """A v4 file holding one line of the old training record is refused
    at that line."""
    model, path = _model_file(tmp_path, kind)
    lines = _with_record(model, path.read_text().splitlines(), names=(name,))
    assert len(lines) > len(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match=f"^expected '[a-z]+', found '{name} "):
        load_model(str(path))


# (model kind, line, value written, the parameters the error names):
# values training never writes, since it refuses C <= 0 and chunks of no rows
_OUT_OF_RANGE = [
    ("offline", "C", "-1", "{'C': -1.0}"),
    ("offline", "C", "0", "{'C': 0.0}"),
    ("online", "n0", "-7", "{'n0': -7, 'block': 20}"),
    ("online", "n0", "0", "{'n0': 0, 'block': 20}"),
    ("online", "block", "0", "{'n0': 20, 'block': 0}"),
]
_RANGE_IDS = [f"{name}={value}" for _, name, value, _ in _OUT_OF_RANGE]


class TestParameterRange:
    @staticmethod
    def _file(tmp_path, kind, name, value):
        _, path = _model_file(tmp_path, kind)

        def put(lines):
            lines[next(k for k, line in enumerate(lines) if line.split()[0] == name)] = (
                f"{name} {value}"
            )

        _edit(path, put)
        return path

    @pytest.mark.parametrize("kind,name,value,params", _OUT_OF_RANGE, ids=_RANGE_IDS)
    def test_refused(self, tmp_path, kind, name, value, params):
        path = self._file(tmp_path, kind, name, value)
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"parameters must be positive: {params}"

    @pytest.mark.parametrize("kind,name,value,params", _OUT_OF_RANGE, ids=_RANGE_IDS)
    def test_cli_score_exits_1(self, tmp_path, kind, name, value, params):
        path = self._file(tmp_path, kind, name, value)
        rows = tmp_path / "rows.csv"
        rows.write_text("a,b,c\n0.1,0.2,0.3\n")
        proc = run_cli(["score", str(path), str(rows)], tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: parameters must be positive: {params}\n"


def _poison(path, name, token):
    """Put token in place of the first value stored under name."""

    def first(a):
        a = a.copy()
        a.flat[0] = float(token)
        return a

    lines = path.read_text().splitlines()
    if name in ("layerW", "basis", "beta", "layerb", "zmean", "zstd"):
        _rewrite(lines, name, first)
    else:  # scalar keyword
        lines[next(k for k, line in enumerate(lines) if line.split()[0] == name)] = f"{name} {token}"
    path.write_text("\n".join(lines) + "\n")


class TestNonFiniteParameters:
    """A non-finite parameter must not load: scoring with it gives NAN
    scores and silent rejections."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name", ["beta", "basis", "layerW", "layerb", "zmean", "zstd", "C", "thresh"]
    )
    def test_offline_rejected(self, tmp_path, name, token):
        path = _offline_file(tmp_path)
        _poison(path, name, token)
        with pytest.raises(ModelFormatError, match=name):
            load_model(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize(
        "name", ["beta", "layerW", "layerb", "zmean", "zstd", "thresh"]
    )
    def test_online_rejected(self, tmp_path, name, token):
        path = _online_file(tmp_path)
        _poison(path, name, token)
        with pytest.raises(ModelFormatError, match=name):
            load_model(str(path))

    def test_thr3_nan_thresh_loads(self, tmp_path):
        path = _offline_file(tmp_path, "thr3")
        assert np.isnan(load_model(str(path)).thresh)

    def test_thr3_inf_thresh_rejected(self, tmp_path):
        path = _offline_file(tmp_path, "thr3")
        _poison(path, "thresh", "inf")
        with pytest.raises(ModelFormatError, match="thresh"):
            load_model(str(path))

    def test_cli_score_exits_1(self, tmp_path):
        path = _offline_file(tmp_path)
        _poison(path, "beta", "nan")
        rows = tmp_path / "rows.csv"
        rows.write_text("a,b,c\n0.1,0.2,0.3\n")
        proc = run_cli(["score", str(path), str(rows)], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "beta" in proc.stderr
        assert "Traceback" not in proc.stderr


def _rbf_file(tmp_path, tkind="thr1"):
    X = _cloud(13)
    model = train_reconstruction(X, rbf_kernel(1.2), 10.0, ThresholdSpec(tkind))
    path = tmp_path / "rbf.occ"
    save_model(model, str(path))
    return path


def _edit(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _drop_kparam(lines):
    i = next(k for k, line in enumerate(lines) if line.startswith("kparam sigma"))
    del lines[i]


def _inf_kparam(lines):
    i = next(k for k, line in enumerate(lines) if line.startswith("kparam sigma"))
    lines[i] = "kparam sigma inf"


def _nan_condn1(lines):
    i = next(k for k, line in enumerate(lines) if line.startswith("tspec "))
    parts = lines[i].split()
    parts[4] = "nan"
    lines[i] = " ".join(parts)


def _short_beta(lines):
    _rewrite(lines, "beta", lambda beta: beta[:-1])


def _r_two(lines):
    """An `R 2` line where v2 files kept the boundary target R."""
    lines.insert(next(k for k, line in enumerate(lines) if line.startswith("tspec ")), "R 2")


# (edit, threshold kind of the edited file, text the error names)
_LOAD_FAULTS = {
    "missing_kparam": (_drop_kparam, "thr1", "kparam sigma"),
    "inf_kparam": (_inf_kparam, "thr1", "kparam sigma"),
    "nan_condn1": (_nan_condn1, "thr3", "tspec"),
    "short_beta": (_short_beta, "thr1", "beta"),
    "r_not_one": (_r_two, "thr1", "^expected 'tspec', found 'R 2'$"),
}


class TestLoadFaults:
    """Files that once loaded, or escaped as another exception: a missing
    kernel parameter, a non-finite kernel or threshold parameter, a beta
    with fewer rows than the basis, and a boundary target R (files keep
    none since v3)."""

    @pytest.mark.parametrize("fault", list(_LOAD_FAULTS))
    def test_refused(self, tmp_path, fault):
        edit, tkind, named = _LOAD_FAULTS[fault]
        path = _rbf_file(tmp_path, tkind)
        _edit(path, edit)
        with pytest.raises(ModelFormatError, match=named):
            load_model(str(path))

    @pytest.mark.parametrize("fault", list(_LOAD_FAULTS))
    def test_cli_score_exits_1(self, tmp_path, fault):
        edit, tkind, _ = _LOAD_FAULTS[fault]
        path = _rbf_file(tmp_path, tkind)
        _edit(path, edit)
        rows = tmp_path / "rows.csv"
        rows.write_text("a,b,c\n0.1,0.2,0.3\n")
        proc = run_cli(["score", str(path), str(rows)], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_unknown_family_refused(self, tmp_path):
        path = _rbf_file(tmp_path)
        _edit(path, lambda lines: lines.__setitem__(2, "family other"))
        with pytest.raises(ModelFormatError, match="family"):
            load_model(str(path))

    def test_content_after_end_refused(self, tmp_path):
        path = _rbf_file(tmp_path)
        _edit(path, lambda lines: lines.append("end"))
        with pytest.raises(ModelFormatError, match="after 'end'"):
            load_model(str(path))

    def test_oversized_matrix_refused(self, tmp_path):
        """A header asking for more values than the file holds fails before
        any allocation."""
        path = _rbf_file(tmp_path)

        def widen(lines):
            i = next(k for k, line in enumerate(lines) if line.startswith("basis "))
            lines[i] = "basis 30 1000000000000"

        _edit(path, widen)
        with pytest.raises(ModelFormatError, match="does not fit"):
            load_model(str(path))

    def _boundary_thr3_file(self, tmp_path):
        """A boundary model whose tspec says thr3, which training refuses:
        it once loaded and failed only at scoring, on the shapes of its
        one output column against the rows."""
        X = _cloud(14)
        model = train_boundary(X, rbf_kernel(1.2), 10.0, ThresholdSpec("thr1"))
        path = tmp_path / "b3.occ"
        save_model(model, str(path))

        def thr3(lines):
            i = next(k for k, line in enumerate(lines) if line.startswith("tspec "))
            lines[i] = lines[i].replace("tspec thr1", "tspec thr3")
            lines[i + 1] = "thresh nan"  # thresh follows tspec

        _edit(path, thr3)
        return path

    def test_boundary_thr3_refused(self, tmp_path):
        path = self._boundary_thr3_file(tmp_path)
        with pytest.raises(ModelFormatError, match=(
            "^tspec: thr3 needs per-feature outputs; boundary models have one$"
        )):
            load_model(str(path))

    def test_boundary_thr3_cli_score_exits_1(self, tmp_path):
        path = self._boundary_thr3_file(tmp_path)
        rows = tmp_path / "rows.csv"
        rows.write_text("a,b,c\n0.1,0.2,0.3\n")
        proc = run_cli(["score", str(path), str(rows)], tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: tspec: thr3 needs per-feature outputs; boundary models have one\n"
        )


def _array_file(tmp_path, lines):
    path = tmp_path / "array.occ"
    path.write_text("\n".join(lines) + "\n")
    return path


def _payload(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


# rows of about 4096 values, by column count: the shapes below run from one
# column to one 4097-wide row, with row counts on both sides of these
_BLOCK_ROWS = {1: 4096, 3: 1365, 100: 40, 4097: 1}
_SIX = _payload(np.arange(6.0))
# (file lines, error class, error text) of a read of array "basis"
_PAYLOAD_FAULTS = {
    "bad_character": (["basis 3 2", _SIX[:5] + "*" + _SIX[6:], "end"],
                      ValueError, "^Only base64 data is allowed$"),
    "one_value_short": (["basis 3 2", _payload(np.arange(5.0)), "end"],
                        ModelFormatError, r"^basis: shape \(3, 2\) does not fit 40 bytes$"),
    "one_value_long": (["basis 3 2", _payload(np.arange(7.0)), "end"],
                       ModelFormatError, r"^basis: shape \(3, 2\) does not fit 56 bytes$"),
    "nan": (["basis 3 2", _payload([0, 1, 2, 3, 4, np.nan]), "end"],
            ModelFormatError, "^basis: non-finite value$"),
    "inf": (["basis 3 2", _payload([-np.inf, 1, 2, 3, 4, 5]), "end"],
            ModelFormatError, "^basis: non-finite value$"),
    "three_sizes": (["basis 3 2 1", _SIX, "end"],
                    ModelFormatError, r"^basis: shape \(3, 2, 1\) is not 2 sizes >= 0$"),
    "one_size": (["basis 6", _SIX, "end"],
                 ModelFormatError, r"^basis: shape \(6,\) is not 2 sizes >= 0$"),
    "negative_size": (["basis -3 -2", _SIX, "end"],
                      ModelFormatError, r"^basis: shape \(-3, -2\) is not 2 sizes >= 0$"),
    "missing_payload": (["basis 3 2", "end"], ValueError, "^Incorrect padding$"),
    "missing_payload_at_end": (["basis 3 2"], ModelFormatError, "^unexpected end of model file$"),
}


class TestRowCodec:
    """_Writer.array writes an array's rows in C order as one line of
    base64 holding little-endian float64 ('<f8') bytes, after a shape line;
    _Reader.array reads them back bit for bit, or refuses the line.
    test_modelio_property round-trips arrays of any bit pattern."""

    def test_row_matches_per_value_join(self):
        """The payload is each value packed alone as '<d', joined in C
        order, whatever the array's memory layout."""
        rng = np.random.default_rng(40)
        patterns = rng.integers(0, 2**64, 20_000, dtype=np.uint64)
        special = np.array(
            [
                0x0000000000000000, 0x8000000000000000,  # +0, -0
                0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
                0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
                0x7FF8000000000000, 0xFFF8000000000001,  # quiet NaNs
                0x7FF0000000000001, 0x7FF4DEADBEEF0000,  # NaN payloads
                0x7FEFFFFFFFFFFFFF, 0x0010000000000000,  # max, min normal
            ],
            dtype=np.uint64,
        )
        matrix = np.asfortranarray(patterns.view(np.float64).reshape(200, 100))
        for values in (patterns.view(np.float64), special.view(np.float64), matrix, matrix[:0]):
            out = _Writer()
            out.array("a", values)
            packed = b"".join(struct.pack("<d", v) for v in values.ravel().tolist())
            assert out == [" ".join(["a", *map(str, values.shape)]),
                           base64.b64encode(packed).decode()]

    @staticmethod
    def _round_trip(tmp_path, M):
        out = _Writer()
        out.array("basis", M)
        path = tmp_path / "matrix.occ"
        path.write_text("\n".join(out) + "\n")
        return _Reader(str(path)).array("basis", 2)

    @pytest.mark.parametrize("cols", [1, 3, 100, 4097])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_block_edges_load_bitwise(self, tmp_path, cols, k, edge):
        rows = k * _BLOCK_ROWS[cols] + edge
        bits = np.random.default_rng(rows + cols).integers(
            0, 2**64, (rows, cols), dtype=np.uint64
        )
        M = bits.view(np.float64)
        M[~np.isfinite(M)] = -0.0
        assert self._round_trip(tmp_path, M).tobytes() == M.tobytes()

    @pytest.mark.parametrize("fault", list(_PAYLOAD_FAULTS))
    def test_payload_refused(self, tmp_path, fault):
        lines, error, text = _PAYLOAD_FAULTS[fault]
        with pytest.raises(error, match=text):
            _Reader(str(_array_file(tmp_path, lines))).array("basis", 2)

    def test_bad_number_before_short_row_is_reported_first(self, tmp_path):
        """A payload that is short and holds a bad character is refused for
        the character: it is decoded before its byte count is checked, and
        load_model names it a malformed file."""
        path = _array_file(tmp_path, ["basis 3 2", "*" + _payload(np.arange(5.0))[1:]])
        with pytest.raises(ValueError, match="^Only base64 data is allowed$"):
            _Reader(str(path)).array("basis", 2)
        model = _rbf_file(tmp_path)
        _edit(model, lambda lines: _rewrite(lines, "beta", lambda beta: beta[:-1]))
        _edit(model, lambda lines: lines.__setitem__(-2, "*" + lines[-2][1:]))
        with pytest.raises(ModelFormatError, match=(
            "^malformed model file: Only base64 data is allowed$"
        )):
            load_model(str(model))

    def test_file_cut_inside_matrix(self, tmp_path):
        """A file cut right after the `basis` shape line."""
        X = _cloud(13, count=40)
        model = train_boundary(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        i = lines.index("basis 40 3")
        path.write_text("\n".join(lines[: i + 1]) + "\n")
        with pytest.raises(ModelFormatError, match="^unexpected end of model file$"):
            load_model(str(path))


_V4_MODELS = Path(__file__).parent / "data" / "v4_models"


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in _V4_MODELS.glob("*.occ"))
)
def test_earlier_files_load_score_and_resave_bitwise(tmp_path, name):
    """Stored files score the probes to the bytes that their v2 originals,
    written while R was still a keyword, gave then, and are saved back
    unchanged."""
    model_path = _V4_MODELS / f"{name}.occ"
    out = tmp_path / "score.csv"
    argv = ["score", str(model_path), str(_V4_MODELS / "probes.csv"), "-o", str(out)]
    assert occelm.cli.main(argv) == 0
    assert out.read_bytes() == (_V4_MODELS / f"{name}.score.csv").read_bytes()
    save_model(load_model(str(model_path)), str(tmp_path / "again.occ"))
    assert (tmp_path / "again.occ").read_bytes() == model_path.read_bytes()
