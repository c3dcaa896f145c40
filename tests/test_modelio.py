"""Tests for the plain-text model save/load format."""

from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli

import occelm.cli
import occelm.modelio
import occelm.offline
from occelm.dataset import Dataset, zscore_fit
from occelm.errors import ModelFormatError, NotFinalized
from occelm.featuremap import (
    NODE_TYPES,
    TILE_CELLS,
    hidden_apply,
    hidden_init,
    random_kernel,
    rbf_kernel,
    wavelet_kernel,
)
from occelm.modelio import (
    _Reader,
    _Writer,
    _row,
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
        assert lines[0] == "OCCELM v2"
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
        shape of a v2 file's rows, so only the header tells them apart."""
        X = _cloud(34, count=20, n=3)
        model = train_boundary(X, random_kernel(m=3), 1.0, ThresholdSpec("thr1"))
        path = tmp_path / "m.occ"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        i = lines.index("basis 20 3")
        v1 = _Writer(["OCCELM v1", *lines[1:i]])
        v1.matrix("basis", model.basis)
        v1.extend(lines[i + 21:])
        path.write_text("\n".join(v1) + "\n")
        with pytest.raises(ModelFormatError, match="found 'OCCELM v1'"):
            load_model(str(path))
        # read as v2, the same body loads, with H applied to H
        path.write_text("\n".join(["OCCELM v2", *v1[1:]]) + "\n")
        misread = load_model(str(path))
        assert not np.array_equal(misread.basis, model.basis)


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
        assert loaded.seen_count == model.seen_count
        assert loaded.n0 == model.n0
        assert loaded.thresh == model.thresh
        np.testing.assert_array_equal(loaded.rls.beta, model.rls.beta)
        np.testing.assert_array_equal(loaded.rls.P, model.rls.P)
        # stored as an array on both sides, as the offline models store it
        assert isinstance(model.train_errors, np.ndarray)
        assert isinstance(loaded.train_errors, np.ndarray)
        np.testing.assert_array_equal(loaded.train_errors, model.train_errors)
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

    def test_p_with_extra_row_refused(self, tmp_path):
        """P is m x m: a P and beta grown by one row each still agree
        with each other, but not with the layer's m nodes."""
        path = _online_file(tmp_path)

        def grow(lines):
            for name in ("P", "beta"):
                i = next(k for k, line in enumerate(lines) if line.split()[0] == name)
                _, rows, cols = lines[i].split()
                lines[i] = f"{name} {int(rows) + 1} {cols}"
                lines.insert(i + 1, lines[i + 1])

        _edit(path, grow)
        with pytest.raises(ModelFormatError, match="layerW"):
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


def _r_two(lines):
    lines[lines.index("R 1")] = "R 2"


# (edit, threshold kind of the edited file, text the error names)
_LOAD_FAULTS = {
    "missing_kparam": (_drop_kparam, "thr1", "kparam sigma"),
    "inf_kparam": (_inf_kparam, "thr1", "kparam sigma"),
    "nan_condn1": (_nan_condn1, "thr3", "tspec"),
    "short_beta": (_short_beta, "thr1", "beta"),
    "r_not_one": (_r_two, "thr1", "R: the boundary target is 1"),
}


class TestLoadFaults:
    """Files that once loaded, or escaped as another exception: a missing
    kernel parameter, a non-finite kernel or threshold parameter, a beta
    with fewer rows than the basis, and a boundary target R other than 1."""

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


# rows per block of 4096 tokens, by column count, of the block-wise parser
# that _Reader.matrix's single pass replaced; the shapes below straddle them
_OLD_BLOCK_ROWS = {1: 4096, 3: 1365, 100: 40, 4097: 1}


class TestRowCodec:
    """_row formats a whole row in one call and _Reader.matrix parses the
    rows in one pass; the bytes written and the bits read are those of the
    per-value codec."""

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

    @pytest.mark.parametrize("cols", [1, 3, 100, 4097])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_block_edges_load_bitwise(self, tmp_path, cols, k, edge):
        rows = k * _OLD_BLOCK_ROWS[cols] + edge
        bits = np.random.default_rng(rows + cols).integers(
            0, 2**64, (rows, cols), dtype=np.uint64
        )
        M = bits.view(np.float64)
        M[~np.isfinite(M)] = -0.0
        assert self._round_trip(tmp_path, M).tobytes() == M.tobytes()

    def test_short_row_in_later_block_names_global_index(self, tmp_path):
        cols = 3
        row = 2 * _OLD_BLOCK_ROWS[cols] + 5
        M = np.arange(3.0 * 4096).reshape(-1, cols)
        out = _Writer()
        out.matrix("basis", M)
        out[1 + row] = " ".join(out[1 + row].split()[:2])
        path = tmp_path / "short.occ"
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(ModelFormatError) as info:
            _Reader(str(path)).matrix("basis")
        assert str(info.value) == f"basis row {row}: 2 values, not 3"

    def test_bad_number_before_short_row_is_reported_first(self, tmp_path):
        """Each row is parsed as it is read: a bad number in a row before
        a short one is the error reported."""
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


_V2_MODELS = Path(__file__).parent / "data" / "v2_models"


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in _V2_MODELS.glob("*.occ"))
)
def test_earlier_files_load_score_and_resave_bitwise(tmp_path, name):
    """Files written while R was still a keyword (each says R 1) score
    the probes to the bytes they gave then and are saved back unchanged."""
    model_path = _V2_MODELS / f"{name}.occ"
    out = tmp_path / "score.csv"
    argv = ["score", str(model_path), str(_V2_MODELS / "probes.csv"), "-o", str(out)]
    assert occelm.cli.main(argv) == 0
    assert out.read_bytes() == (_V2_MODELS / f"{name}.score.csv").read_bytes()
    save_model(load_model(str(model_path)), str(tmp_path / "again.occ"))
    assert (tmp_path / "again.occ").read_bytes() == model_path.read_bytes()
