"""Tests for the plain-text model save/load format."""

import numpy as np
import pytest

from conftest import run_cli

from occelm.dataset import Dataset, zscore_fit
from occelm.errors import ModelFormatError, NotFinalized
from occelm.featuremap import hidden_init, random_kernel, rbf_kernel, wavelet_kernel
from occelm.modelio import (
    _BLOCK_TOKENS,
    _Reader,
    _Writer,
    _row,
    load_model,
    save_model,
)
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


def _joined_row(values):
    """The per-value writer _row replaced."""
    return " ".join(f"{v:.17g}" for v in values.tolist())


class TestRowCodec:
    """_row formats a whole row in one call and _Reader.matrix parses rows
    in blocks of at most _BLOCK_TOKENS tokens; the bytes written and the
    bits read are those of the per-value codec."""

    def test_row_matches_per_value_join(self):
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
        for bits in (patterns, special, special[:1], special[:0]):
            values = bits.view(np.float64)
            assert _row(values) == _joined_row(values)

    @staticmethod
    def _round_trip(tmp_path, M):
        out = _Writer()
        out.matrix("basis", M)
        path = tmp_path / "matrix.occ"
        path.write_text("\n".join(out) + "\n")
        return _Reader(str(path)).matrix("basis")

    @pytest.mark.parametrize("cols", [1, 3, 100, _BLOCK_TOKENS + 1])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_block_edges_load_bitwise(self, tmp_path, cols, k, edge):
        step = max(1, _BLOCK_TOKENS // cols)
        rows = k * step + edge
        bits = np.random.default_rng(rows + cols).integers(
            0, 2**64, (rows, cols), dtype=np.uint64
        )
        M = bits.view(np.float64)
        M[~np.isfinite(M)] = -0.0
        assert self._round_trip(tmp_path, M).tobytes() == M.tobytes()

    def test_short_row_in_later_block_names_global_index(self, tmp_path):
        cols = 3
        row = 2 * (_BLOCK_TOKENS // cols) + 5
        M = np.arange(3.0 * _BLOCK_TOKENS).reshape(-1, cols)
        out = _Writer()
        out.matrix("basis", M)
        out[1 + row] = " ".join(out[1 + row].split()[:2])
        path = tmp_path / "short.occ"
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(ModelFormatError) as info:
            _Reader(str(path)).matrix("basis")
        assert str(info.value) == f"basis row {row}: 2 values, not 3"

    def test_bad_number_before_short_row_is_reported_first(self, tmp_path):
        """As when rows were parsed one at a time: rows before a short one,
        in the same block, are parsed before the short row is refused."""
        out = _Writer()
        out.matrix("basis", np.ones((6, 2)))
        out[2] = "1 abc"
        out[5] = "1"
        path = tmp_path / "two_faults.occ"
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(ValueError, match="abc"):
            _Reader(str(path)).matrix("basis")

    def test_file_cut_inside_matrix(self, tmp_path):
        X = _cloud(13, count=40)
        model = train_boundary(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("basis "))
        path.write_text("\n".join(lines[: i + 20]) + "\n")
        with pytest.raises(ModelFormatError, match="unexpected end of model file"):
            load_model(str(path))
