"""Tests for the repeated-run benchmark protocol and the variant table."""

import numpy as np
import pytest

import occelm.bench as bench
import occelm.modelio
from occelm.bench import (
    HIDDEN_GRID,
    VARIANT_IDS,
    VARIANTS,
    choose_params,
    default_params,
    fit,
    median_pairwise,
    parse_variant,
    run_benchmark,
    score_model,
    selection_grids,
)
from occelm.dataset import Dataset, gen_ring, zscore_apply, zscore_fit
from occelm.errors import MissingLabels, TooFewSamples
from occelm.featuremap import KERNEL_KINDS, KERNEL_PARAMS
from occelm.modelsel import C_GRID
from occelm.online import OnlineModel


def _separable(seed=0, targets=60, outliers=20):
    """Ring targets with far-away outliers; easy for every variant."""
    t = gen_ring(targets, radius=1.0, noise_std=0.05, seed=seed)
    o = gen_ring(outliers, radius=6.0, noise_std=0.1, seed=seed + 1)
    samples = np.vstack([t.samples, o.samples])
    labels = np.array([True] * targets + [False] * outliers)
    return Dataset(samples, labels, ["x", "y"])


class TestVariantTable:
    def test_fifteen_ids(self):
        assert len(VARIANT_IDS) == 15
        assert "ocelm_thr3" not in VARIANTS
        assert "os_ocelm_thr3" not in VARIANTS

    def test_families_and_engines(self):
        assert VARIANTS["ocelm_thr1"].family == "boundary"
        assert VARIANTS["ocelm_thr1"].engine == "random"
        assert VARIANTS["ockelm_thr2"].engine == "kernel"
        assert VARIANTS["aaelm_thr3"].family == "reconstruction"
        assert VARIANTS["aakelm_thr3"].engine == "kernel"
        assert VARIANTS["os_ocelm_thr1"].engine == "online"
        assert VARIANTS["os_aaelm_thr3"].family == "reconstruction"

    def test_label(self):
        assert VARIANTS["aakelm_thr2"].label == "Thr2"

    def test_kernel_names_read_kernel_params(self):
        """featuremap.KERNEL_PARAMS names the explicit kernels once: the
        kinds a KernelSpec takes, the --kernel choices and the kparam
        lines of a model file."""
        assert KERNEL_KINDS == ("random", *KERNEL_PARAMS)
        assert bench.KERNELS == tuple(KERNEL_PARAMS)
        assert tuple(KERNEL_PARAMS) == ("rbf", "linear", "polynomial", "wavelet")
        assert occelm.modelio.KERNEL_PARAMS is KERNEL_PARAMS


class TestParseVariant:
    def test_plain_id(self):
        variant = parse_variant("ockelm_thr1")
        assert variant.vid == "ockelm_thr1"
        assert (variant.kernel, variant.node_type) == ("rbf", "additive_sigmoid")

    def test_case_insensitive(self):
        variant = parse_variant("OCKELM_THR1")
        assert variant.vid == "ockelm_thr1"

    def test_node_suffix(self):
        variant = parse_variant("ocelm_thr1_rbf")
        assert variant.vid == "ocelm_thr1"
        assert variant.node_type == "rbf"
        assert parse_variant("os_aaelm_thr2_sig").node_type == "additive_sigmoid"

    def test_kernel_variant_rejects_suffix(self):
        with pytest.raises(KeyError):
            parse_variant("ockelm_thr1_sig")

    def test_suffix_conflict(self):
        with pytest.raises(KeyError):
            parse_variant("ocelm_thr1_rbf", node_type="additive_sigmoid")

    def test_suffix_agreeing_with_flag(self):
        assert parse_variant("ocelm_thr1_rbf", node_type="rbf").node_type == "rbf"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            parse_variant("ocelm_thr7")
        with pytest.raises(KeyError):
            parse_variant("svdd")

    def test_unknown_node_type(self):
        with pytest.raises(KeyError):
            parse_variant("ocelm_thr1", node_type="relu")

    @pytest.mark.parametrize(
        "vid, maps",
        [
            ("ockelm_thr1", {"kernel": "sigmoid"}),
            ("ockelm_thr1", {"node_type": "rbf"}),
            ("aakelm_thr3", {"node_type": "additive_sigmoid"}),
            ("ocelm_thr1", {"kernel": "rbf"}),
            ("os_aaelm_thr1_sig", {"kernel": "linear"}),
        ],
    )
    def test_unknown_or_unused_map(self, vid, maps):
        """An unknown kernel, and a map the variant's engine does not read,
        are refused rather than ignored."""
        with pytest.raises(KeyError):
            parse_variant(vid, **maps)


class TestNames:
    def test_kernel_default(self):
        assert parse_variant("ockelm_thr1").classifier == "OCKELM"

    def test_kernel_nondefault(self):
        v = parse_variant("aakelm_thr3", kernel="linear")
        assert v.classifier == "AAKELM(linear)"

    def test_random_rbf_nodes(self):
        v = parse_variant("os_aaelm_thr1", node_type="rbf")
        assert v.classifier == "OS-AAELM(RBF)"

    def test_random_sigmoid_nodes(self):
        v = parse_variant("ocelm_thr2", node_type="additive_sigmoid")
        assert v.classifier == "OCELM"

    def test_classifier_names(self):
        """The classifier column of every variant id under every feature
        map it reads: the base name, plus the kernel unless it is rbf, or
        (RBF) for RBF hidden nodes."""
        bases = {
            "ocelm": "OCELM", "ockelm": "OCKELM", "aaelm": "AAELM",
            "aakelm": "AAKELM", "os_ocelm": "OS-OCELM", "os_aaelm": "OS-AAELM",
        }
        for vid, variant in VARIANTS.items():
            base = bases[vid.rsplit("_", 1)[0]]
            if variant.engine == "kernel":
                table = [({}, base), ({"kernel": "rbf"}, base)] + [
                    ({"kernel": k}, f"{base}({k})")
                    for k in ("linear", "polynomial", "wavelet")
                ]
            else:
                table = [
                    ({}, base),
                    ({"node_type": "additive_sigmoid"}, base),
                    ({"node_type": "rbf"}, f"{base}(RBF)"),
                ]
            for maps, name in table:
                assert parse_variant(vid, **maps).classifier == name, (vid, maps)
        assert parse_variant("aakelm_thr2", kernel="wavelet").classifier == (
            "AAKELM(wavelet)"
        )
        assert parse_variant("os_ocelm_thr1_rbf").classifier == "OS-OCELM(RBF)"


class TestMedianPairwise:
    def test_hand_value(self):
        """Distances 5, 5, 10 have median 5."""
        X = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        assert median_pairwise(X) == 5.0

    def test_ignores_zero_distances(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0]])
        assert median_pairwise(X) == 5.0


class TestDefaultParams:
    def test_kernel_rbf(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        params = default_params(VARIANTS["ockelm_thr1"], X, {})
        assert params == {"sigma": 5.0, "C": 1.0}

    def test_explicit_values_win(self):
        X = np.zeros((5, 2))
        params = default_params(VARIANTS["ockelm_thr1"], X, {"kern_par": 2.5, "c_reg": 50.0})
        assert params == {"sigma": 2.5, "C": 50.0}

    def test_linear_has_no_width(self):
        variant = parse_variant("ockelm_thr1", kernel="linear")
        assert default_params(variant, np.zeros((3, 2)), {}) == {"C": 1.0}

    def test_polynomial_degree(self):
        variant = parse_variant("ockelm_thr1", kernel="polynomial")
        params = default_params(variant, np.zeros((3, 2)), {})
        assert params == {"degree": 2, "C": 1.0}

    def test_wavelet_width_key(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        variant = parse_variant("aakelm_thr1", kernel="wavelet")
        assert default_params(variant, X, {}) == {"b_w": 5.0, "C": 1.0}

    def test_random_engine(self):
        params = default_params(VARIANTS["ocelm_thr1"], np.zeros((30, 2)), {})
        assert params == {"m": 100, "C": 1.0}
        assert default_params(
            VARIANTS["ocelm_thr1"], np.zeros((30, 2)), {"hidden": 25}
        ) == {"m": 25, "C": 1.0}

    def test_online_caps_m_at_row_count(self):
        """At most half the rows, so the default initial chunk of 2m rows
        fits; at least 1."""
        assert default_params(VARIANTS["os_ocelm_thr1"], np.zeros((30, 2)), {}) == {"m": 15}
        assert default_params(VARIANTS["os_ocelm_thr1"], np.zeros((199, 2)), {}) == {"m": 99}
        assert default_params(VARIANTS["os_ocelm_thr1"], np.zeros((300, 2)), {}) == {"m": 100}
        assert default_params(VARIANTS["os_ocelm_thr1"], np.zeros((1, 2)), {}) == {"m": 1}


class TestSelectionGrids:
    def _rows(self, n=40):
        rng = np.random.default_rng(1)
        return rng.normal(0.0, 1.0, (n, 2))

    def test_rbf_kernel_grid(self):
        grids = selection_grids(VARIANTS["ockelm_thr1"], self._rows(), 5)
        assert list(grids) == ["sigma", "C"]
        assert len(grids["sigma"]) == 20
        assert grids["C"] == list(C_GRID)

    def test_linear_kernel_grid(self):
        variant = parse_variant("aakelm_thr1", kernel="linear")
        grids = selection_grids(variant, self._rows(), 5)
        assert list(grids) == ["C"]

    def test_polynomial_degrees(self):
        grids = selection_grids(
            parse_variant("ockelm_thr2", kernel="polynomial"), self._rows(), 5
        )
        assert grids["degree"] == [2, 3]

    def test_random_hidden_capped_at_n(self):
        grids = selection_grids(VARIANTS["ocelm_thr1"], self._rows(40), 5)
        assert grids["m"] == [20, 40]
        assert grids["C"] == list(C_GRID)

    def test_random_full_grid_when_n_large(self):
        grids = selection_grids(VARIANTS["aaelm_thr2"], self._rows(250), 5)
        assert grids["m"] == list(HIDDEN_GRID)

    def test_online_capped_below_training_fold(self):
        """Online m must leave the default initial chunk of 2m rows inside
        the smallest cross-validation training set."""
        grids = selection_grids(VARIANTS["os_ocelm_thr1"], self._rows(40), 5)
        # largest fold is 8 rows, so a fold trains on 32 and m <= 16
        assert grids == {"m": [16]}

    def test_online_too_few_rows_for_any_width(self):
        """A grid with no width is refused as too few rows, naming N and
        the smallest fold training set."""
        with pytest.raises(TooFewSamples, match=r"^3 training rows .* has 1 rows"):
            selection_grids(VARIANTS["os_ocelm_thr1"], self._rows(3), 2)
        grids = selection_grids(VARIANTS["os_ocelm_thr1"], self._rows(4), 2)
        assert grids == {"m": [1]}

    def test_c_comes_last(self):
        """select makes C the last key of every point wherever a grid lists
        it; every id's grid, under each kernel or node type it reads, lists
        C last or has none, so that rule moves no program's points."""
        orders = {}
        for vid, variant in VARIANTS.items():
            if variant.engine == bench.KERNEL_ENGINE:
                maps = [parse_variant(vid, kernel=k) for k in bench.KERNELS]
            else:
                maps = [parse_variant(vid, node) for node in bench.NODE_NAMES.values()]
            for v in maps:
                orders[vid, v.kernel, v.node_type] = list(selection_grids(v, self._rows(250), 5))
        assert len(orders) == 5 * 4 + 10 * 2
        assert all("C" not in names or names[-1] == "C" for names in orders.values())
        assert {tuple(names) for names in orders.values()} == {
            ("sigma", "C"), ("b_w", "C"), ("degree", "C"), ("C",), ("m", "C"), ("m",)
        }


class TestFitAndScore:
    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_every_variant_trains_and_scores(self, vid):
        variant = VARIANTS[vid]
        data = _separable(seed=5)
        targets = Dataset(data.samples[data.labels])
        zstats = zscore_fit(targets)
        Xz = zscore_apply(targets, zstats).samples
        params = default_params(variant, Xz, {"hidden": 10})
        model = fit(variant, params, targets, zstats=zstats, layer_seed=[1, 2])
        assert model.family == variant.family
        assert model.tspec.kind == variant.tkind
        assert isinstance(model, OnlineModel) == (variant.engine == "online")
        decisions = score_model(model, data.samples)
        assert len(decisions) == data.sample_count
        assert decisions.is_target.dtype == bool
        assert np.all(np.isfinite(decisions.score))

    @pytest.mark.parametrize(
        "N, m, n0, block", [(60, 8, 16, 8), (300, 8, 30, 30), (12, 8, 12, 8)]
    )
    def test_online_chunk_defaults(self, N, m, n0, block):
        """The initial chunk defaults to min(N, max(2m, N // 10)) rows, the
        later chunks to max(m, N // 10)."""
        rows = np.random.default_rng(3).normal(0.0, 1.0, (N, 2))
        model = fit(VARIANTS["os_ocelm_thr1"], {"m": m}, rows)
        assert (model.n0, model.block) == (n0, block)

    def test_choose_params_matches_the_protocol_selection(self):
        """run_benchmark selects on run 0 through choose_params."""
        data = _separable(seed=6)
        result = run_benchmark(
            data, "ockelm_thr1", runs=1, seed=4, select_params=True
        )
        train, _ = bench.occ_split(data, 4, 0)
        Xz = zscore_apply(train, zscore_fit(train)).samples
        params, diag = choose_params(VARIANTS["ockelm_thr1"], Xz, seed=4)
        assert params == result.run_params[0]
        assert [p.rejection for p in diag.points] == [
            p.rejection for p in result.selection.points
        ]


class TestRunBenchmark:
    def test_kernel_variant_high_auc(self):
        """Separable ring data: every run should hit a high AUC."""
        result = run_benchmark(
            _separable(), "ockelm_thr1", dataset_name="ring", runs=5, seed=0
        )
        assert result.report.run_count == 5
        assert result.report.auc > 90.0
        assert len(result.run_reports) == 5
        assert len(result.train_seconds) == 5
        assert all(s >= 0 for s in result.train_seconds)
        assert result.variant.classifier == "OCKELM"
        assert result.variant.label == "Thr1"

    def test_reconstruction_thr3(self):
        result = run_benchmark(
            _separable(seed=3), "aakelm_thr3", runs=3, seed=1
        )
        assert result.report.auc > 80.0
        assert result.variant.tkind == "thr3"

    def test_online_variant(self):
        result = run_benchmark(
            _separable(seed=5), "os_ocelm_thr1", runs=3, seed=2, fixed={"hidden": 8}
        )
        assert result.report.auc > 85.0
        assert all(p == {"m": 8} for p in result.run_params)

    def test_deterministic_per_seed(self):
        a = run_benchmark(_separable(), "aakelm_thr2", runs=3, seed=4)
        b = run_benchmark(_separable(), "aakelm_thr2", runs=3, seed=4)
        assert [r.auc for r in a.run_reports] == [r.auc for r in b.run_reports]
        assert a.report == b.report

    def test_runs_differ_across_run_index(self):
        """Each run draws its own split, so per-run AUCs vary."""
        result = run_benchmark(_separable(), "ockelm_thr2", runs=6, seed=0)
        aucs = {round(r.auc, 6) for r in result.run_reports}
        assert len(aucs) > 1

    def test_selection_runs_once_and_is_reused(self, monkeypatch):
        """The grid search happens on run 0 only; later runs reuse the
        chosen parameters."""
        calls = []
        real_select = bench.modelsel.select

        def counting_select(trainer, X, grids, **settings):
            calls.append(np.asarray(X).shape)
            return real_select(trainer, X, grids, **settings)

        monkeypatch.setattr(bench.modelsel, "select", counting_select)
        result = run_benchmark(
            _separable(targets=30, outliers=10), "ockelm_thr1",
            runs=4, seed=0, select_params=True,
        )
        assert len(calls) == 1
        # 30 targets split 50/50 -> 15 training rows in run 0
        assert calls[0] == (15, 2)
        assert result.selection is not None
        assert len(result.run_params) == 4
        assert all(p == result.run_params[0] for p in result.run_params)

    def test_report_row_shape(self):
        """The fields `occelm bench` writes as the report row's first
        three cells, ahead of the aggregate measures."""
        result = run_benchmark(
            _separable(), "aaelm_thr1", runs=2, seed=0, fixed={"hidden": 10}
        )
        assert result.dataset_name == "data"
        assert result.variant.classifier == "AAELM"
        assert result.variant.label == "Thr1"
        assert result.report.run_count == 2

    def test_unlabeled_rejected(self):
        data = gen_ring(30, seed=0)
        with pytest.raises(MissingLabels):
            run_benchmark(data, "ockelm_thr1", runs=2)

    def test_all_targets_rejected(self):
        data = Dataset(np.random.default_rng(0).normal(0, 1, (20, 2)),
                       np.ones(20, dtype=bool))
        with pytest.raises(TooFewSamples, match="needs at least one outlier row$"):
            run_benchmark(data, "ockelm_thr1", runs=2)

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            run_benchmark(_separable(), "ockelm_thr9", runs=1)

    @pytest.mark.parametrize("targets", [1, 2])
    def test_fewer_than_three_targets_rejected(self, targets):
        """Each run trains on half of the targets, rounded half up, and
        z-scoring needs 2 rows: 2 targets left 1 and ended in zscore_fit's
        error instead."""
        with pytest.raises(TooFewSamples, match="at least 3 target rows"):
            run_benchmark(_separable(targets=targets, outliers=4), "ockelm_thr1", runs=2)

    def test_three_targets_run(self):
        result = run_benchmark(_separable(targets=3, outliers=4), "ockelm_thr1", runs=2)
        assert result.report.run_count == 2


class TestHigherDimensional:
    def test_wdbc_style_data(self):
        """A 9-feature synthetic cohort mirrors the tabular benchmarks.

        Far outliers are always rejected; the target recall depends on how
        conservative each threshold is, so the AUC bars differ."""
        rng = np.random.default_rng(12)
        targets = rng.normal(0.0, 1.0, (120, 9))
        outliers = rng.normal(4.0, 1.0, (40, 9))
        data = Dataset(
            np.vstack([targets, outliers]),
            np.array([True] * 120 + [False] * 40),
        )
        cases = [
            ("ockelm_thr1", {}, 85.0),
            ("aakelm_thr2", {}, 70.0),
            ("os_aaelm_thr1", {"hidden": 20}, 70.0),
        ]
        for vid, fixed, bar in cases:
            result = run_benchmark(data, vid, runs=3, seed=0, fixed=fixed)
            assert result.report.specificity == 100.0, vid
            assert result.report.auc > bar, vid

    def test_sklearn_breast_cancer_if_available(self):
        sklearn_datasets = pytest.importorskip("sklearn.datasets")
        raw = sklearn_datasets.load_breast_cancer()
        labels = raw.target == 1  # benign as the target class
        data = Dataset(raw.data, labels)
        result = run_benchmark(data, "aakelm_thr1", runs=3, seed=0)
        assert result.report.auc > 75.0
