"""Tests for the plain-text model save/load format."""

import numpy as np
import pytest

from conftest import run_cli

from occelm.dataset import Dataset, zscore_fit
from occelm.errors import ModelFormatError, NotFinalized
from occelm.featuremap import hidden_init, random_kernel, rbf_kernel, wavelet_kernel
from occelm.modelio import load_model, save_model
from occelm.offline import score, train_boundary, train_reconstruction
from occelm.online import os_finalize, os_init, os_score, os_update
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
        assert loaded.R == model.R
        assert loaded.tspec == model.tspec
        assert loaded.mapping.kind == "rbf"
        assert loaded.mapping.sigma == 1.37
        np.testing.assert_array_equal(loaded.beta, model.beta)
        np.testing.assert_array_equal(loaded.basis, model.basis)
        np.testing.assert_array_equal(loaded.zstats.mean, model.zstats.mean)
        np.testing.assert_array_equal(loaded.zstats.std, model.zstats.std)
        np.testing.assert_array_equal(loaded.train_errors, model.train_errors)

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


class TestOnlineRoundTrip:
    def _trained(self, seed=7):
        X = _cloud(seed, count=50)
        layer = hidden_init("additive_sigmoid", 8, 3, seed=1)
        model = os_init("boundary", layer, X[:20])
        os_update(model, X[20:])
        os_finalize(model, ThresholdSpec("thr1"), fracrej=0.15)
        return model, X

    def test_finalized_model_round_trip(self, tmp_path):
        model, X = self._trained()
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.finalized
        assert loaded.family == model.family
        assert loaded.seen_count == model.seen_count
        assert loaded.n0 == model.n0
        assert loaded.thresh == model.thresh
        np.testing.assert_array_equal(loaded.rls.beta, model.rls.beta)
        np.testing.assert_array_equal(loaded.rls.P, model.rls.P)
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

    def test_unfinalized_save_refused(self, tmp_path):
        X = _cloud(9, count=20)
        layer = hidden_init("additive_sigmoid", 5, 3, seed=0)
        model = os_init("boundary", layer, X)
        with pytest.raises(NotFinalized):
            save_model(model, str(tmp_path / "m.occ"))


class TestMalformedFiles:
    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.occ"
        path.write_text("SOMETHING ELSE\n")
        with pytest.raises(ModelFormatError):
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


def _offline_file(tmp_path, tkind="thr1"):
    X = _cloud(12)
    model = train_reconstruction(
        X, random_kernel(m=6), 1.0, ThresholdSpec(tkind), seed=3,
        zstats=zscore_fit(Dataset(X)),
    )
    path = tmp_path / "off.occ"
    save_model(model, str(path))
    return path


def _online_file(tmp_path):
    model, _ = TestOnlineRoundTrip()._trained()
    path = tmp_path / "on.occ"
    save_model(model, str(path))
    return path


def _poison(path, name, token):
    """Put token in place of the first value stored under name."""
    lines = path.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.split()[0] == name)
    parts = lines[i].split()
    if name in ("layerW", "basis", "beta", "P"):  # matrix: values start a line below
        row = lines[i + 1].split()
        lines[i + 1] = " ".join([token] + row[1:])
    elif name in ("layerb", "zmean", "zstd"):  # vector: "name size v0 v1 ..."
        lines[i] = " ".join(parts[:2] + [token] + parts[3:])
    else:  # scalar keyword
        lines[i] = f"{name} {token}"
    path.write_text("\n".join(lines) + "\n")


class TestNonFiniteParameters:
    """A non-finite parameter must not load: scoring with it gives NAN
    scores and silent rejections."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name", ["beta", "basis", "layerW", "layerb", "zmean", "zstd", "C", "R", "thresh"]
    )
    def test_offline_rejected(self, tmp_path, name, token):
        path = _offline_file(tmp_path)
        _poison(path, name, token)
        with pytest.raises(ModelFormatError, match=name):
            load_model(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize(
        "name", ["beta", "P", "layerW", "layerb", "zmean", "zstd", "R", "thresh"]
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
    i = next(k for k, line in enumerate(lines) if line.startswith("beta "))
    _, rows, cols = lines[i].split()
    lines[i] = f"beta {int(rows) - 1} {cols}"
    del lines[i + int(rows)]


# (edit, threshold kind of the edited file, text the error names)
_LOAD_FAULTS = {
    "missing_kparam": (_drop_kparam, "thr1", "kparam sigma"),
    "inf_kparam": (_inf_kparam, "thr1", "kparam sigma"),
    "nan_condn1": (_nan_condn1, "thr3", "tspec"),
    "short_beta": (_short_beta, "thr1", "beta"),
}


class TestLoadFaults:
    """Files that once loaded, or escaped as another exception: a missing
    kernel parameter, a non-finite kernel or threshold parameter, and a
    beta with fewer rows than the basis."""

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
