"""Dataset container, CSV round-trips, normalization, splits, generators."""

import numpy as np
import pytest

from occelm.dataset import (
    Dataset,
    ZScoreStats,
    gen_banana,
    gen_ring,
    identity_stats,
    label_text,
    load_csv,
    occ_split,
    round_half_up,
    value_text,
    write_csv,
    write_table,
    zscore_apply,
    zscore_fit,
)
from occelm.errors import (
    DimensionMismatch,
    MissingLabels,
    ParseError,
    TooFewSamples,
)


class TestRoundHalfUp:
    """Tie-breaking used for split sizes and the thr1 index."""

    def test_halves_round_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3

    def test_plain_values(self):
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3
        assert round_half_up(0.0) == 0

    def test_matches_floor_shift(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(0, 1000, size=500):
            assert round_half_up(x) == int(np.floor(x + 0.5))


class TestDataset:
    def test_basic_shape(self):
        d = Dataset(np.zeros((4, 3)))
        assert d.sample_count == 4
        assert d.feature_count == 3
        assert d.labels is None

    def test_labels_kept_as_bool(self):
        d = Dataset(np.zeros((3, 1)), labels=[True, False, True])
        assert d.labels.dtype == bool
        assert list(d.labels) == [True, False, True]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]))

    def test_vector_promoted_to_row(self):
        assert Dataset(np.zeros(5)).samples.shape == (1, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((2, 2, 2)))
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((0, 3)))

    def test_label_length_must_match(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2)), labels=[True, False])


class TestLoadCsv:
    def test_plain_labels(self, tmp_path):
        """Three rows with +1/+1/-1 map to two targets and one outlier."""
        p = tmp_path / "d.csv"
        p.write_text("1,2,+1\n3,4,+1\n5,6,-1\n")
        d = load_csv(str(p), label_column=2)
        assert d.sample_count == 3
        assert d.feature_count == 2
        assert list(d.labels) == [True, True, False]

    def test_token_variants(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,1\n2,0\n3,target\n4,TARGET\n5,Outlier\n")
        d = load_csv(str(p), label_column=1)
        assert list(d.labels) == [True, False, True, True, False]

    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        d = load_csv(str(p))
        assert d.feature_names == ["x", "y"]
        assert d.sample_count == 2

    def test_negative_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,-1\n3,4,1\n")
        d = load_csv(str(p), label_column=-1)
        assert list(d.labels) == [False, True]

    def test_unlabeled(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n")
        d = load_csv(str(p))
        assert d.labels is None

    def test_ragged_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2 has 1 cells, expected 2$"):
            load_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="d.csv: no rows$"):
            load_csv(str(p))

    def test_bad_cell_names_position(self, tmp_path):
        """A text cell below the header line must be pinpointed."""
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2.*column 2"):
            load_csv(str(p))

    def test_unknown_label_token(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,maybe\n")
        with pytest.raises(ParseError, match="^row 1: unknown label token 'maybe'$"):
            load_csv(str(p), label_column=1)

    def test_bad_cell_after_blank_line_names_file_line(self, tmp_path):
        """Blank lines count: the line number is the file's, not the
        number of rows kept."""
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1,2,+1\n\n3,4,+1\n5,x,-1\n")
        with pytest.raises(ParseError, match=r"line 5, column 2: cannot parse 'x'"):
            load_csv(str(p), label_column=-1)

    def test_bom_headerless_keeps_first_row(self, tmp_path):
        """A UTF-8 byte-order mark is no part of the first cell: read into
        it, '\ufeff1' failed to parse, and the first data row was taken for
        a header and dropped."""
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2,+1\n3,4,-1\n5,6,+1\n")
        d = load_csv(str(p), label_column=-1)
        assert d.feature_names is None
        np.testing.assert_array_equal(d.samples, [[1, 2], [3, 4], [5, 6]])
        assert list(d.labels) == [True, False, True]

    def test_bom_header_gets_clean_names(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y,label\n1,2,+1\n3,4,-1\n")
        d = load_csv(str(p), label_column=-1)
        assert d.feature_names == ["x", "y"]
        assert d.sample_count == 2

    def test_ragged_after_blank_lines_names_file_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n\n\n3,4,5\n")
        with pytest.raises(ParseError, match="line 5 has 3 cells, expected 2"):
            load_csv(str(p))


class TestWriteCsv:
    def test_round_trip_bits(self, tmp_path):
        """17 significant digits keep every float64 bit across a cycle."""
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(20, 4)) * 1e3, labels=rng.random(20) < 0.5)
        p = tmp_path / "d.csv"
        write_csv(d, str(p))
        back = load_csv(str(p), label_column=4)
        assert np.array_equal(back.samples, d.samples)
        assert np.array_equal(back.labels, d.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        d = Dataset(np.array([[1.5, -2.25]]))
        p = tmp_path / "d.csv"
        write_csv(d, str(p))
        back = load_csv(str(p))
        assert np.array_equal(back.samples, d.samples)
        assert back.labels is None

    def test_bytes(self, tmp_path):
        """A header with the label column, 17-digit floats, +1/-1 labels
        and CRLF line ends."""
        d = Dataset(np.array([[0.1, -0.0], [2.0, 1e-300]]), [True, False], ["a", "b"])
        p = tmp_path / "d.csv"
        write_csv(d, str(p))
        assert p.read_bytes() == (
            b"a,b,label\r\n0.10000000000000001,-0,+1\r\n2,1e-300,-1\r\n"
        )


def _model_text(value) -> str:
    """Model files' value rule before value_text owned it."""
    return str(value) if isinstance(value, (str, int)) else f"{float(value):.17g}"


def _param_text(value) -> str:
    """`param` lines' and .sel.csv cells' rule before value_text owned it."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


class TestTableText:
    """value_text, label_text and write_table: the text of every written
    table."""

    @pytest.mark.parametrize("value", [
        "rbf", 7, np.int64(12), True, 0.1, np.float64(1.0 / 3.0), -0.0, float("nan"),
        float("inf"), -np.inf,
    ])
    def test_value_text_keeps_both_old_rules(self, value):
        assert value_text(value) == _model_text(value) == _param_text(value)

    def test_label_text(self):
        assert [label_text(t) for t in (True, False, np.bool_(True), np.bool_(False))] == [
            "+1", "-1", "+1", "-1"
        ]

    @pytest.mark.parametrize("header", [["x", "y"], None])
    def test_stdout_and_file_bytes_match(self, tmp_path, capsys, header):
        rows = [[0, "a,b"], [1, value_text(0.1)]]
        path = tmp_path / "t.csv"
        write_table(str(path), header, rows)
        write_table(None, header, iter(rows))
        body = b'0,"a,b"\r\n1,0.10000000000000001\r\n'
        assert path.read_bytes() == (b"x,y\r\n" if header else b"") + body
        assert capsys.readouterr().out.encode() == path.read_bytes()


class TestZScore:
    def test_hand_stats(self):
        """Column [1,2,3] has mean 2 and sample std 1."""
        stats = zscore_fit(Dataset(np.array([[1.0], [2.0], [3.0]])))
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0

    def test_constant_column(self):
        stats = zscore_fit(Dataset(np.array([[5.0], [5.0], [5.0]])))
        assert stats.mean[0] == 5.0
        assert stats.std[0] == 0.0

    def test_columns_independent(self):
        stats = zscore_fit(Dataset(np.array([[1.0, 10.0], [3.0, 30.0]])))
        assert stats.mean.shape == (2,)
        np.testing.assert_allclose(stats.mean, [2.0, 20.0])

    def test_apply_hand_case(self):
        stats = ZScoreStats(np.array([2.0]), np.array([1.0]))
        out = zscore_apply(Dataset(np.array([[1.0], [2.0], [3.0]])), stats)
        np.testing.assert_allclose(out.samples.ravel(), [-1.0, 0.0, 1.0])

    def test_self_normalization(self):
        """Applying fitted stats restores mean 0 and sample std 1."""
        rng = np.random.default_rng(8)
        d = Dataset(rng.normal(3.0, 7.0, size=(50, 4)))
        out = zscore_apply(d, zscore_fit(d))
        np.testing.assert_allclose(out.samples.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.samples.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_zero_std_maps_to_zero(self):
        d = Dataset(np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]]))
        out = zscore_apply(d, zscore_fit(d))
        np.testing.assert_allclose(out.samples[:, 0], 0.0)

    def test_needs_two_rows(self):
        with pytest.raises(TooFewSamples):
            zscore_fit(Dataset(np.array([[1.0]])))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            zscore_apply(Dataset(np.zeros((2, 3))), identity_stats(2))


class TestOccSplit:
    def _labeled(self, targets, outliers, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(targets + outliers, 2))
        y = np.array([True] * targets + [False] * outliers)
        return Dataset(X, y)

    def test_benchmark_scale_counts(self):
        """458 targets and 241 outliers split to 229 train, 470 test."""
        d = self._labeled(458, 241)
        train, test = occ_split(d, 1, 0)
        assert train.sample_count == 229
        assert test.sample_count == 470

    def test_half_up_train_count(self):
        d = self._labeled(5, 2)
        train, test = occ_split(d, 1, 0)
        # round(0.5 * 5) rounds half up to 3
        assert train.sample_count == 3
        assert test.sample_count == 4

    def test_train_unlabeled_test_labeled(self):
        d = self._labeled(8, 4)
        train, test = occ_split(d, 3, 1)
        assert train.labels is None
        assert test.labels is not None
        assert int((~test.labels).sum()) == 4

    def test_deterministic_and_run_dependent(self):
        d = self._labeled(30, 10)
        t1, _ = occ_split(d, 5, 2)
        t2, _ = occ_split(d, 5, 2)
        t3, _ = occ_split(d, 5, 3)
        t4, _ = occ_split(d, 6, 2)
        assert np.array_equal(t1.samples, t2.samples)
        assert not np.array_equal(t1.samples, t3.samples)
        assert not np.array_equal(t1.samples, t4.samples)

    def test_draws_from_the_seed_run_stream(self):
        """The training half is the first k of a permutation drawn from
        default_rng([seed, run]); any other stream moves every split."""
        d = self._labeled(10, 3)
        train, _ = occ_split(d, 4, 2)
        perm = np.random.default_rng([4, 2]).permutation(10)
        assert np.array_equal(train.samples, d.samples[np.sort(perm[:5])])

    def test_disjoint_rows(self):
        """Train and test partition the data with no shared row."""
        rng = np.random.default_rng(0)
        for trial in range(20):
            nt = int(rng.integers(4, 40))
            no = int(rng.integers(1, 20))
            d = self._labeled(nt, no, seed=trial)
            train, test = occ_split(d, trial, 0)
            assert train.sample_count + test.sample_count == nt + no
            seen = {tuple(r) for r in train.samples}
            assert all(tuple(r) not in seen for r in test.samples)

    def test_error_contracts(self):
        with pytest.raises(MissingLabels, match="^benchmarking needs labeled data$"):
            occ_split(Dataset(np.zeros((4, 1))), 0, 0)
        all_t = Dataset(np.zeros((4, 1)), labels=[True] * 4)
        with pytest.raises(TooFewSamples, match="needs at least one outlier row$"):
            occ_split(all_t, 0, 0)
        all_o = Dataset(np.zeros((4, 1)), labels=[False] * 4)
        with pytest.raises(TooFewSamples, match="at least 3 target rows"):
            occ_split(all_o, 0, 0)

    @pytest.mark.parametrize("targets", [1, 2])
    def test_fewer_than_three_targets_refused(self, targets):
        """Each run trains on half of the targets, rounded half up, and
        z-scoring needs 2 rows; 2 targets were once split, leaving 1."""
        with pytest.raises(TooFewSamples, match="at least 3 target rows"):
            occ_split(self._labeled(targets, 4), 0, 0)

    def test_three_targets_split(self):
        train, test = occ_split(self._labeled(3, 4), 0, 0)
        assert (train.sample_count, test.sample_count) == (2, 5)


class TestGenerators:
    def test_banana_shape(self):
        d = gen_banana(100, noise_std=1.0, seed=4)
        assert d.samples.shape == (100, 2)

    def test_banana_zero_noise_on_arc(self):
        """Without noise every point sits on the radius-5 arc."""
        d = gen_banana(200, noise_std=0.0, seed=9)
        radii = np.linalg.norm(d.samples, axis=1)
        np.testing.assert_allclose(radii, 5.0, atol=1e-9)
        # one lobe spans the right half-circle only
        assert (d.samples[:, 0] >= -1e-9).all()

    def test_banana_deterministic(self):
        a = gen_banana(50, seed=7)
        b = gen_banana(50, seed=7)
        c = gen_banana(50, seed=8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_ring_zero_noise_radius(self):
        d = gen_ring(150, radius=2.5, noise_std=0.0, seed=1)
        np.testing.assert_allclose(
            np.linalg.norm(d.samples, axis=1), 2.5, atol=1e-9
        )

    def test_ring_mean_radius_monte_carlo(self):
        """Mean radius concentrates at `radius` as noise averages out."""
        d = gen_ring(100_000, radius=1.0, noise_std=0.1, seed=12)
        mean_r = np.linalg.norm(d.samples, axis=1).mean()
        assert abs(mean_r - 1.0) < 3 * 0.1 / np.sqrt(100_000)

    def test_ring_deterministic(self):
        a = gen_ring(40, seed=2)
        b = gen_ring(40, seed=2)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: gen_ring(4, radius=0.0), "radius must be > 0"),
            (lambda: gen_ring(4, radius=np.nan), "radius must be finite"),
            (lambda: gen_ring(4, radius=np.inf), "radius must be finite"),
            (lambda: gen_ring(4, noise_std=-1.0), "noise_std must be >= 0"),
            (lambda: gen_ring(4, noise_std=np.nan), "noise_std must be finite"),
            (lambda: gen_ring(4, noise_std=np.inf), "noise_std must be finite"),
            (lambda: gen_banana(4, noise_std=np.nan), "noise_std must be finite"),
            (lambda: gen_banana(4, noise_std=np.inf), "noise_std must be finite"),
        ],
    )
    def test_parameters_outside_their_range_refused(self, make, message):
        """NAN noise once drew no noise at all (NAN > 0 is false), and an
        infinite radius or noise was reported only as non-finite samples."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

