"""End-to-end tests for the command-line interface.

Most cases drive main() in process; a few run the installed module in a
subprocess to pin down exit codes and byte-level determinism.
"""

import csv
import re

import numpy as np
import pytest

from conftest import perfbench_module, run_cli

import occelm.cli

from occelm.bench import NODE_NAMES, VARIANTS, parse_variant
from occelm.cli import _resolve_run, build_parser, main
from occelm.dataset import Dataset, gen_ring, load_csv, value_text, write_csv
from occelm.metrics import MEASURES, REPORT_COLUMNS
from occelm.modelio import load_model
from occelm.modelsel import error_threshold
from occelm.offline import OfflineModel
from occelm.online import OnlineModel


@pytest.fixture
def labeled_csv(tmp_path):
    """26 ring targets plus 8 far outliers with boolean labels."""
    targets = gen_ring(26, radius=1.0, noise_std=0.05, seed=2)
    outliers = gen_ring(8, radius=5.0, noise_std=0.05, seed=3)
    samples = np.vstack([targets.samples, outliers.samples])
    labels = np.array([True] * 26 + [False] * 8)
    path = tmp_path / "labeled.csv"
    write_csv(Dataset(samples, labels, ["x", "y"]), str(path))
    return str(path)


@pytest.fixture
def unlabeled_csv(tmp_path):
    path = tmp_path / "plain.csv"
    write_csv(gen_ring(24, radius=1.0, noise_std=0.05, seed=4), str(path))
    return str(path)


class TestGen:
    def test_banana_default_count(self, tmp_path):
        out = tmp_path / "banana.csv"
        assert main(["gen", "banana", "--seed", "0", "-o", str(out)]) == 0
        data = load_csv(str(out))
        assert data.sample_count == 100
        assert data.feature_count == 2
        assert data.labels is None

    def test_ring_zero_noise_radius(self, tmp_path):
        out = tmp_path / "ring.csv"
        code = main(
            ["gen", "ring", "--count", "40", "--radius", "2.0",
             "--noise-std", "0", "--seed", "1", "-o", str(out)]
        )
        assert code == 0
        data = load_csv(str(out))
        radii = np.linalg.norm(data.samples, axis=1)
        np.testing.assert_allclose(radii, 2.0, atol=1e-9)

    def test_seeded_output_is_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen", "banana", "--seed", "7", "-o", str(a)])
        main(["gen", "banana", "--seed", "7", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_entropy_seed_reported_on_stderr(self, tmp_path, capsys):
        main(["gen", "banana", "-o", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert "seed " in err

    def test_banana_refuses_radius(self, tmp_path, capsys):
        """The banana arc has a fixed radius; --radius was once ignored in
        silence (exit 0, the bytes of a run without it)."""
        out = tmp_path / "b.csv"
        argv = ["gen", "banana", "--radius", "5", "--count", "3", "--seed", "1", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "usage error: banana does not read --radius\n")
        assert not out.exists()

    def test_ring_radius_defaults_to_the_generator(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["gen", "ring", "--count", "5", "--seed", "3", "-o", str(out)]) == 0
        expected = tmp_path / "e.csv"
        write_csv(gen_ring(5, seed=3), str(expected))
        assert out.read_bytes() == expected.read_bytes()


class TestTrain:
    def test_kernel_boundary(self, tmp_path, labeled_csv, capsys):
        out = tmp_path / "model.occ"
        code = main(
            ["train", "ockelm_thr1", labeled_csv, "--label-col", "-1",
             "--seed", "0", "-o", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "param sigma " in captured.out
        assert "param C 1" in captured.out
        assert "train " in captured.err
        model = load_model(str(out))
        assert isinstance(model, OfflineModel)
        assert model.family == "boundary"
        # only the 26 targets feed training
        assert model.basis.shape[0] == 26

    def test_unlabeled_trains_on_all_rows(self, tmp_path, unlabeled_csv):
        out = tmp_path / "model.occ"
        main(["train", "aakelm_thr2", unlabeled_csv, "--seed", "0", "-o", str(out)])
        model = load_model(str(out))
        assert model.basis.shape[0] == 24
        assert model.family == "reconstruction"

    def test_node_type_suffix(self, tmp_path, unlabeled_csv):
        out = tmp_path / "model.occ"
        code = main(
            ["train", "ocelm_thr1_rbf", unlabeled_csv, "--seed", "0",
             "--hidden", "10", "-o", str(out)]
        )
        assert code == 0
        model = load_model(str(out))
        assert model.mapping.kind == "random"
        assert model.mapping.layer.node_type == "rbf"
        assert model.mapping.layer.m == 10

    def test_online_variant(self, tmp_path, unlabeled_csv, capsys):
        out = tmp_path / "model.occ"
        code = main(
            ["train", "os_aaelm_thr2", unlabeled_csv, "--seed", "0",
             "--hidden", "8", "-o", str(out)]
        )
        assert code == 0
        assert "param m 8" in capsys.readouterr().out
        model = load_model(str(out))
        assert isinstance(model, OnlineModel)
        assert model.finalized

    @pytest.mark.parametrize(
        "command, vid, flags",
        [
            ("train", "ocelm_thr1_rbf", ["--node-type", "sig"]),
            ("train", "ockelm_thr1", ["--node-type", "rbf"]),
            ("bench", "ockelm_thr1", ["--node-type", "sig"]),
            ("train", "ocelm_thr1", ["--kernel", "polynomial"]),
            ("select", "os_aaelm_thr1", ["--kernel", "linear"]),
            ("train", "ockelm_thr1_sig", []),
        ],
    )
    def test_suffix_conflicts_with_flag(
        self, command, vid, flags, tmp_path, unlabeled_csv, capsys
    ):
        """A node type that contradicts the suffix, or a feature map the
        variant's engine does not read, is a usage error, not ignored."""
        out = tmp_path / "m.occ"
        code = main([command, vid, unlabeled_csv, *flags, "--seed", "1", "-o", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: "), lines
        assert not out.exists()

    def test_unknown_variant_exits_2(self, tmp_path, unlabeled_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "ocelm_thr9", unlabeled_csv, "-o", str(tmp_path / "m")])
        assert excinfo.value.code == 2

    def test_boundary_thr3_not_a_variant(self, tmp_path, unlabeled_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "ocelm_thr3", unlabeled_csv, "-o", str(tmp_path / "m")])
        assert excinfo.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["train", "ockelm_thr1", str(tmp_path / "absent.csv"),
             "-o", str(tmp_path / "m.occ")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_all_outliers_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,-1\n3.0,4.0,-1\n")
        code = main(
            ["train", "ockelm_thr1", str(path), "--label-col", "-1",
             "-o", str(tmp_path / "m.occ")]
        )
        assert code == 1


class TestScore:
    def _train(self, tmp_path, labeled_csv, variant="ockelm_thr1", extra=()):
        model_path = tmp_path / "model.occ"
        code = main(
            ["train", variant, labeled_csv, "--label-col", "-1", "--seed", "0",
             *extra, "-o", str(model_path)]
        )
        assert code == 0
        return str(model_path)

    def test_csv_layout_and_measures(self, tmp_path, labeled_csv, capsys):
        model = self._train(tmp_path, labeled_csv)
        capsys.readouterr()
        out = tmp_path / "scores.csv"
        code = main(["score", model, labeled_csv, "--label-col", "-1", "-o", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "decision", "score", "thresh"]
        assert len(rows) == 35
        for r in rows[1:]:
            assert r[1] in ("+1", "-1")
            float(r[2])
            float(r[3])
        err = capsys.readouterr().err
        assert "AUC" in err
        assert "precision" in err

    def test_far_outliers_rejected(self, tmp_path, labeled_csv):
        model = self._train(tmp_path, labeled_csv)
        out = tmp_path / "scores.csv"
        main(["score", model, labeled_csv, "--label-col", "-1", "-o", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        outlier_rows = rows[26:]
        assert all(r[1] == "-1" for r in outlier_rows)

    def test_stdout_when_no_out(self, tmp_path, labeled_csv, capsys):
        model = self._train(tmp_path, labeled_csv)
        capsys.readouterr()
        assert main(["score", model, labeled_csv, "--label-col", "-1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("row,decision,score,thresh")

    def test_online_model_scoring(self, tmp_path, labeled_csv, capsys):
        # 2-D inputs need a small hidden layer for a full-rank init chunk
        model = self._train(
            tmp_path, labeled_csv, variant="os_ocelm_thr1",
            extra=("--hidden", "8"),
        )
        capsys.readouterr()
        out = tmp_path / "scores.csv"
        assert main(
            ["score", model, labeled_csv, "--label-col", "-1", "-o", str(out)]
        ) == 0
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 35

    def test_bad_model_file_exits_1(self, tmp_path, labeled_csv, capsys):
        bad = tmp_path / "bad.occ"
        bad.write_text("not a model\n")
        assert main(["score", str(bad), labeled_csv]) == 1


class TestSelect:
    def test_reports_threshold_and_choice(self, tmp_path, labeled_csv, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            ["select", "ockelm_thr1", labeled_csv, "--label-col", "-1",
             "--seed", "0", "-o", str(out)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("err_thr ")
        assert lines[1] == "fold_size 5"
        assert any(line.startswith("param sigma ") for line in lines)
        assert any(line.startswith("param C ") for line in lines)
        assert lines[-1] in ("consistent 0", "consistent 1")
        # 26 targets, 5 folds -> M = 5
        np.testing.assert_allclose(
            float(lines[0].split()[1]), error_threshold(0.1, 2.0, 5)
        )
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "C", "rejection", "consistent"]
        assert len(rows) == 1 + 20 * 17

    def test_random_variant_grid(self, tmp_path, unlabeled_csv, capsys):
        code = main(["select", "ocelm_thr1", unlabeled_csv, "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("param m ") for line in lines)

    @pytest.mark.parametrize(
        "flag", ["--kern-par", "--c-reg", "--hidden", "--n0", "--block"]
    )
    def test_fixed_param_flags_refused(self, labeled_csv, capsys, flag):
        """Selection chooses these parameters, so select does not take them."""
        with pytest.raises(SystemExit) as exc:
            main(["select", "ockelm_thr1", labeled_csv, "--label-col", "-1",
                  "--seed", "1", flag, "3"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


# a value for each flag that only some runs read
_RULE_FLAGS = {
    "--kern-par": "3", "--c-reg": "10", "--hidden": "5", "--n0": "40",
    "--block": "4", "--folds": "3", "--sigma-thr": "2.5",
}
# every variant id; kernel ids also under the linear and polynomial kernels
_RULE_RUNS = [(vid, None) for vid in VARIANTS] + [
    (vid, kernel) for vid in VARIANTS if VARIANTS[vid].engine == "kernel"
    for kernel in ("linear", "polynomial")
]


def _flags_read(vid: str, kernel: str | None, select: bool) -> set[str]:
    engine = VARIANTS[vid].engine
    if select:
        fixed = {"--n0", "--block"} if engine == "online" else set()
        return fixed | {"--folds", "--sigma-thr"}
    if engine == "online":
        return {"--hidden", "--n0", "--block"}
    if engine == "random":
        return {"--c-reg", "--hidden"}
    return {"--c-reg"} if kernel == "linear" else {"--kern-par", "--c-reg"}


@pytest.fixture(scope="module")
def rule_csv(tmp_path_factory):
    """60 six-feature targets and 10 outliers: enough rows and inputs for
    the default online width of 30 nodes."""
    rng = np.random.default_rng(8)
    samples = np.vstack([rng.normal(0, 1, (60, 6)), rng.normal(5, 1, (10, 6))])
    labels = np.array([True] * 60 + [False] * 10)
    path = tmp_path_factory.mktemp("rule") / "rule.csv"
    write_csv(Dataset(samples, labels), str(path))
    return str(path)


@pytest.mark.parametrize("name", list(NODE_NAMES))
@pytest.mark.parametrize("vid", ["ocelm_thr1", "aaelm_thr3", "os_aaelm_thr2"])
def test_node_flag_and_suffix_agree(vid, name):
    """--node-type <name> and the _<name> suffix read one map of short node
    names, and resolve to the same Variant."""
    by_flag = build_parser().parse_args(["train", vid, "d.csv", "-o", "m", "--node-type", name])
    by_suffix = build_parser().parse_args(["train", f"{vid}_{name}", "d.csv", "-o", "m"])
    variant = parse_variant(vid, node_type=NODE_NAMES[name])
    assert _resolve_run(by_flag)[0] == _resolve_run(by_suffix)[0] == variant
    assert variant.node_type == NODE_NAMES[name]


class TestReadRule:
    """train and bench take a fixed-parameter or selection flag only when
    the run reads it; any other is a usage error, raised before the data
    file is read."""

    @pytest.mark.parametrize(
        "vid, kernel", _RULE_RUNS, ids=[f"{v}-{k or 'default'}" for v, k in _RULE_RUNS]
    )
    def test_flag_read_or_refused(self, tmp_path, rule_csv, capsys, vid, kernel):
        base = [rule_csv, "--label-col", "-1", "--seed", "1"]
        if kernel is not None:
            base += ["--kernel", kernel]
        for select in (False, True):
            reads = _flags_read(vid, kernel, select)
            mode = ["--select"] if select else []
            for flag, value in _RULE_FLAGS.items():
                case = (vid, kernel, select, flag)
                model = tmp_path / "m.occ"
                if flag in reads:
                    argv = ["train", vid, *base, *mode, flag, value, "-o", str(model)]
                    assert main(argv) == 0, (case, capsys.readouterr().err)
                    assert model.exists(), case
                    model.unlink()
                    capsys.readouterr()
                    continue
                report = tmp_path / "report.csv"
                for argv in (
                    ["train", vid, *base, *mode, flag, value, "-o", str(model)],
                    ["bench", vid, *base, *mode, "--runs", "1", flag, value,
                     "-o", str(report)],
                ):
                    assert main(argv) == 2, case
                    captured = capsys.readouterr()
                    lines = captured.err.splitlines()
                    assert len(lines) == 1, (case, lines)
                    assert lines[0].startswith("usage error: ") and flag in lines[0], case
                    assert captured.out == ""
                    assert not model.exists() and not report.exists(), case

    @pytest.mark.parametrize(
        "vid, base, extra",
        [
            ("ocelm_thr1", [], ["--hidden", "100"]),
            ("ockelm_thr1", [], ["--c-reg", "1"]),
            # 60 rows at m = 8: n0 = max(2m, N // 10), block = max(m, N // 10)
            ("os_aaelm_thr2", ["--hidden", "8"], ["--n0", "16", "--block", "8"]),
        ],
        ids=["hidden-100", "c-reg-1", "n0-block"],
    )
    def test_default_value_changes_nothing(self, tmp_path, rule_csv, capsys, vid, base, extra):
        """A flag set to the value its default resolves to writes the same
        model and stdout as the run without it."""
        outputs = []
        for name, flags in (("plain", base), ("given", base + extra)):
            model = tmp_path / f"{name}.occ"
            argv = ["train", vid, rule_csv, "--label-col", "-1", "--seed", "3", *flags]
            assert main([*argv, "-o", str(model)]) == 0
            outputs.append((capsys.readouterr().out, model.read_bytes()))
        assert outputs[0] == outputs[1]


class TestGrid:
    def test_lattice_csv(self, tmp_path, labeled_csv, capsys):
        model_path = tmp_path / "model.occ"
        main(["train", "ockelm_thr1", labeled_csv, "--label-col", "-1",
             "--seed", "0", "-o", str(model_path)])
        capsys.readouterr()
        out = tmp_path / "grid.csv"
        code = main(
            ["grid", str(model_path), "--bounds", "-3", "3", "-3", "3",
             "--resolution", "4", "-o", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "score", "is_target"]
        assert len(rows) == 17
        assert float(rows[1][0]) == -3.0
        assert float(rows[1][1]) == -3.0
        assert float(rows[-1][0]) == 3.0
        for r in rows[1:]:
            assert r[3] in ("0", "1")

    def test_lattice_order_is_x_major(self, tmp_path, labeled_csv, capsys):
        """The lattice is the nested loop over the two axes, x outer and
        y inner, value for value."""
        model_path = tmp_path / "model.occ"
        main(["train", "ockelm_thr1", labeled_csv, "--label-col", "-1",
             "--seed", "0", "-o", str(model_path)])
        capsys.readouterr()
        out = tmp_path / "grid.csv"
        argv = ["grid", str(model_path), "--bounds", "-3", "3", "-1", "2.5",
                "--resolution", "7", "-o", str(out)]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        xs, ys = np.linspace(-3, 3, 7), np.linspace(-1, 2.5, 7)
        assert [r[:2] for r in rows] == [
            [value_text(x), value_text(y)] for x in xs for y in ys
        ]

    def test_boundary_encloses_ring(self, tmp_path, labeled_csv):
        """Points on the target ring are accepted, far corners are not."""
        model_path = tmp_path / "model.occ"
        main(["train", "ockelm_thr1", labeled_csv, "--label-col", "-1",
             "--seed", "0", "-o", str(model_path)])
        out = tmp_path / "grid.csv"
        main(
            ["grid", str(model_path), "--bounds", "-6", "6", "-6", "6",
             "--resolution", "13", "-o", str(out)]
        )
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        verdicts = {
            (float(r[0]), float(r[1])): r[3] == "1" for r in rows
        }
        on_ring = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        assert sum(verdicts[p] for p in on_ring) >= 2
        far = [p for p in verdicts if max(abs(p[0]), abs(p[1])) >= 4.0]
        assert far
        assert not any(verdicts[p] for p in far)

    def test_non_2d_model_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "d3.csv"
        write_csv(Dataset(rng.normal(0.0, 1.0, (20, 3))), str(data))
        model_path = tmp_path / "m.occ"
        main(["train", "ockelm_thr1", str(data), "--seed", "0", "-o", str(model_path)])
        capsys.readouterr()
        code = main(
            ["grid", str(model_path), "--bounds", "0", "1", "0", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize("bounds", [
        ["nan", "1", "0", "1"], ["0", "inf", "0", "1"], ["0", "1", "inf", "1"],
        ["0", "1", "0", "nan"], ["-inf", "1", "0", "1"],
    ])
    def test_non_finite_bounds_exit_1(self, tmp_path, labeled_csv, capsys, bounds):
        """A NAN bound once failed as "samples contain non-finite values",
        which names no flag."""
        model_path = tmp_path / "model.occ"
        main(["train", "ockelm_thr1", labeled_csv, "--label-col", "-1",
              "--seed", "0", "-o", str(model_path)])
        capsys.readouterr()
        _refused(["grid", str(model_path), "--bounds", *bounds], capsys, "bounds must be finite")

    def test_exponent_negative_bounds(self, tmp_path, labeled_csv, capsys):
        """argparse once took -1e3 for a flag and exited 2 with "expected 4
        arguments"; it reads as -1000 now."""
        model_path = str(tmp_path / "model.occ")
        main(["train", "ockelm_thr1", labeled_csv, "--label-col", "-1",
              "--seed", "0", "-o", model_path])
        written = []
        for x in ("-1e3", "-1000"):
            out = tmp_path / f"grid{x}.csv"
            argv = ["grid", model_path, "--bounds", x, "1e3", "-1", "1", "--resolution", "3"]
            assert main([*argv, "-o", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestMeasureNames:
    """metrics.MEASURES names the measures of the .runs.csv header and of
    the score report line, in the same order."""

    def test_runs_header_and_score_report(self, tmp_path, labeled_csv, capsys):
        names = [name for _, name in MEASURES]
        out = tmp_path / "report.csv"
        argv = ["ockelm_thr1", labeled_csv, "--label-col", "-1", "--seed", "1"]
        assert main(["bench", *argv, "--runs", "2", "-o", str(out)]) == 0
        header = (tmp_path / "report.csv.runs.csv").read_text().splitlines()[0]
        assert header == ",".join(["run", *names])
        model = str(tmp_path / "m.occ")
        assert main(["train", *argv, "-o", model]) == 0
        capsys.readouterr()
        assert main(["score", model, labeled_csv, "--label-col", "-1", "-o", str(out)]) == 0
        report = capsys.readouterr().err.split()
        assert report[::2] == names
        assert all(re.fullmatch(r"\d+\.\d\d|NAN", value) for value in report[1::2])
        measured = [c for c in REPORT_COLUMNS if c in names]
        assert measured == ["F1", "ACC", "AUC"]


class TestBench:
    def test_report_files(self, tmp_path, labeled_csv, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["bench", "ockelm_thr1", labeled_csv, "--label-col", "-1", "--runs", "3",
             "--seed", "1", "--dataset-name", "ring", "-o", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "dataset", "classifier", "variant", "F1", "ACC", "AUC", "Std_AUC",
        ]
        assert rows[1][0] == "ring"
        assert rows[1][1] == "OCKELM"
        assert rows[1][2] == "Thr1"
        float(rows[1][5])
        with open(str(out) + ".runs.csv", newline="") as fh:
            run_rows = list(csv.reader(fh))
        assert len(run_rows) == 4
        assert run_rows[0][0] == "run"
        err = capsys.readouterr().err
        assert "run 0: train " in err
        assert "run 2: train " in err

    def test_report_layout_and_nan(self, tmp_path, capsys):
        """Four targets far apart, each also present as an outlier, and a
        kernel width far below their spacing: every test row is rejected,
        so precision and F1 are 0/0 and render as NAN; one run has a
        standard deviation of 0."""
        points = np.array([[0, 0], [100, 30], [30, 100], [70, 65]], dtype=float)
        labels = np.array([True] * 4 + [False] * 4)
        data = tmp_path / "toy.csv"
        write_csv(Dataset(np.vstack([points, points]), labels, ["x", "y"]), str(data))
        out = tmp_path / "report.csv"
        code = main(
            ["bench", "ockelm_thr1", str(data), "--label-col", "-1", "--runs", "1",
             "--seed", "0", "--kern-par", "0.05", "-o", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["dataset", "classifier", "variant", "F1", "ACC", "AUC", "Std_AUC"],
            ["toy", "OCKELM", "Thr1", "NAN", "66.67", "50.00", "0.00"],
        ]
        with open(str(out) + ".runs.csv", newline="") as fh:
            assert list(csv.reader(fh))[1] == [
                "0", "NAN", "0.00", "100.00", "NAN", "66.67", "50.00",
            ]

    def test_stdout_table_without_out(self, tmp_path, labeled_csv, capsys):
        code = main(
            ["bench", "aakelm_thr3", labeled_csv, "--label-col", "-1",
             "--runs", "2", "--seed", "0"]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("dataset,classifier,variant")
        assert len(out_lines) == 2
        assert "AAKELM" in out_lines[1]

    def test_selection_writes_grid(self, tmp_path, labeled_csv):
        out = tmp_path / "report.csv"
        code = main(
            ["bench", "ocelm_thr1", labeled_csv, "--label-col", "-1", "--runs", "2",
             "--seed", "2", "--select", "-o", str(out)]
        )
        assert code == 0
        with open(str(out) + ".sel.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["rejection", "consistent"]
        assert len(rows) > 1

    def test_dataset_name_defaults_to_stem(self, tmp_path, labeled_csv, capsys):
        main(["bench", "ockelm_thr2", labeled_csv, "--label-col", "-1",
              "--runs", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("labeled,")


class TestOnlineStandIn:
    """Every online variant runs the 20-run protocol on the benchmark's
    699x9 stand-in table (perfbench/workloads.py), with and without
    selection: the default initial chunk of 2m rows and the m grid capped
    at half the smallest fold training set keep H0'H0 well conditioned."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("stand_in") / "t.csv")
        perfbench_module("workloads").write_table(3, path)
        return path

    @pytest.mark.parametrize("select", [[], ["--select"]], ids=["fixed", "select"])
    @pytest.mark.parametrize(
        "vid",
        [f"{stem}_{node}" for stem in (
            "os_ocelm_thr1", "os_ocelm_thr2", "os_aaelm_thr1", "os_aaelm_thr2",
            "os_aaelm_thr3",
        ) for node in ("sig", "rbf")],
    )
    def test_bench_exits_0(self, table, capsys, vid, select):
        code = main(["bench", vid, table, "--label-col", "-1", "--seed", "3", *select])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert len(captured.out.splitlines()) == 2


class TestOnlineSmallTable:
    """With fewer than 200 training rows the default hidden width is half
    of them, so the default initial chunk of 2m rows is not square: every
    online id trains on 90 targets, 10 of them duplicated (a width of N
    made H0 square and, with repeated rows, rank-deficient). The table
    has 3 features: on 2, 45 hidden nodes are too collinear for the
    unregularized start whatever the row count."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        targets = rng.normal(0.0, 1.0, (80, 3))
        samples = np.vstack([targets, targets[:10], rng.normal(6.0, 1.0, (40, 3))])
        labels = np.array([True] * 90 + [False] * 40)
        path = str(tmp_path_factory.mktemp("small") / "t.csv")
        write_csv(Dataset(samples, labels), path)
        return path

    @pytest.mark.parametrize(
        "vid",
        [f"{stem}{node}" for stem in (
            "os_ocelm_thr1", "os_ocelm_thr2", "os_aaelm_thr1", "os_aaelm_thr2",
            "os_aaelm_thr3",
        ) for node in ("", "_sig", "_rbf")],
    )
    def test_train_exits_0(self, tmp_path, table, capsys, vid):
        out = str(tmp_path / "m.occ")
        code = main(["train", vid, table, "--label-col", "-1", "--seed", "2", "-o", out])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "param m 45" in captured.out
        assert load_model(out).finalized


class TestSubprocess:
    def test_bench_byte_deterministic(self, tmp_path, labeled_csv):
        """Identical seeds give identical bytes in every artifact; timing
        lines stay off stdout."""
        args = ["bench", "ockelm_thr1", labeled_csv, "--label-col", "-1",
                "--runs", "2", "--seed", "9"]
        a = run_cli([*args, "-o", str(tmp_path / "a.csv")], tmp_path)
        b = run_cli([*args, "-o", str(tmp_path / "b.csv")], tmp_path)
        assert a.returncode == 0
        assert b.returncode == 0
        assert a.stdout == b.stdout
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (
            (tmp_path / "a.csv.runs.csv").read_bytes()
            == (tmp_path / "b.csv.runs.csv").read_bytes()
        )
        assert "train" in a.stderr

    def test_exit_codes(self, tmp_path, labeled_csv):
        bad_variant = run_cli(["bench", "nonsense", labeled_csv], tmp_path)
        assert bad_variant.returncode == 2
        assert "invalid choice" in bad_variant.stderr
        missing = run_cli(
            ["train", "ockelm_thr1", "no-such-file.csv", "-o", "m.occ"], tmp_path
        )
        assert missing.returncode == 1
        # A child that cannot import occelm also exits 1; only the CLI's own
        # handler prints "error:" without a traceback.
        assert "error:" in missing.stderr
        assert "Traceback" not in missing.stderr
        ok = run_cli(
            ["gen", "ring", "--seed", "0", "-o", str(tmp_path / "r.csv")], tmp_path
        )
        assert ok.returncode == 0

    def test_online_select_on_too_few_rows(self, tmp_path):
        """Two folds of a 3-row file leave 1 training row: too few for
        any online hidden width."""
        path = tmp_path / "three.csv"
        path.write_text("1.0,2.0\n2.0,1.5\n0.5,0.1\n")
        proc = run_cli(
            ["select", "os_ocelm_thr1", str(path), "--folds", "2", "--seed", "1"],
            tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: 3 training rows")
        assert "has 1 rows" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_entropy_seed_still_deterministic_files(self, tmp_path):
        """Without --seed the drawn seed is announced on stderr, and
        passing that seed back reproduces the file byte for byte."""
        r = run_cli(["gen", "banana", "-o", str(tmp_path / "g.csv")], tmp_path)
        assert r.returncode == 0
        assert "seed " in r.stderr
        assert r.stdout == ""
        seed = re.search(r"seed (\d+)", r.stderr).group(1)
        again = run_cli(
            ["gen", "banana", "--seed", seed, "-o", str(tmp_path / "h.csv")],
            tmp_path,
        )
        assert again.returncode == 0
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "h.csv").read_bytes()


def test_huge_c_solves_or_exits_with_one_line(tmp_path):
    """At --c-reg 1e16 an offline train either solves or exits 1 with one
    stderr line naming the condition: no warning and no traceback. On this
    200-row integer table, ocelm_thr1's rank-100 Gram is refused."""
    path = tmp_path / "int.csv"
    rows = np.random.default_rng(0).integers(1, 11, (200, 4))
    np.savetxt(path, rows, fmt="%d", delimiter=",", header="a,b,c,d", comments="")
    codes = {}
    for vid in ["ockelm_thr1", "ocelm_thr1"]:
        proc = run_cli(
            ["train", vid, str(path), "--seed", "1", "--c-reg", "1e16", "-o", "m.occ"],
            tmp_path,
        )
        codes[vid] = proc.returncode
        if proc.returncode == 1:
            assert re.fullmatch(
                r"error: residual bound not met after refinement; "
                r"condition estimate \S+\n",
                proc.stderr,
            )
        else:
            assert proc.returncode == 0
            assert re.fullmatch(r"train \S+s\n", proc.stderr)
    assert codes["ocelm_thr1"] == 1


_TRAIN = ["train", "aakelm_thr1", "{data}", "--label-col", "-1", "--seed", "1",
          "-o", "m.occ"]
_SELECT = ["select", "aakelm_thr1", "{data}", "--label-col", "-1", "--seed", "1"]


class TestFoldsBelowTwo:
    """--folds 1 gets one message from every engine: the check runs before
    the grid is built (the online grid once failed first, on the size of
    the fold training sets)."""

    @pytest.mark.parametrize("vid", ["ockelm_thr1", "ocelm_thr1", "os_ocelm_thr1"])
    def test_select_exits_1(self, labeled_csv, capsys, vid):
        argv = ["select", vid, labeled_csv, "--label-col", "-1", "--seed", "1", "--folds", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: folds must be >= 2\n"
        assert captured.out == ""


class TestNegativeSeed:
    """--seed must be >= 0 under every command: a usage error naming the
    flag (exit 2), before any file is read or written. numpy refuses a
    negative seed with a message that names no flag (exit 1), and
    `train ockelm_thr1`, which draws no layer, once took it (exit 0)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "ring", "-o", "{out}"],
            ["train", "ocelm_thr1", "{data}", "--label-col", "-1", "-o", "{out}"],
            ["train", "ockelm_thr1", "{data}", "--label-col", "-1", "-o", "{out}"],
            ["bench", "ockelm_thr1", "{data}", "--label-col", "-1", "-o", "{out}"],
            ["select", "ockelm_thr1", "{data}", "--label-col", "-1", "-o", "{out}"],
        ],
        ids=["gen", "train-ocelm", "train-ockelm", "bench", "select"],
    )
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_usage_error_names_the_flag(self, tmp_path, labeled_csv, capsys, argv, seed):
        out = tmp_path / "out.csv"
        argv = [a.format(data=labeled_csv, out=out) for a in argv] + ["--seed", seed]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"occelm {argv[0]}: error: argument --seed: {seed}: must be >= 0"]
        assert captured.out == ""
        assert not out.exists()


class TestBadFlagValues:
    """A flag value the library refuses is reported like any toolbox
    error: one "error:" line on stderr and exit 1, never a traceback. An
    infinite C or kernel width is refused at training, since a model file
    holding it would not load; so is a width whose square overflows, and
    a polynomial degree that is not an integer (it was truncated)."""

    @pytest.mark.parametrize(
        "argv",
        [
            _TRAIN + ["--fracrej", "1.5"],
            _TRAIN + ["--fracrej", "nan"],
            _TRAIN + ["--c-reg", "0"],
            _TRAIN + ["--c-reg", "nan"],
            _TRAIN + ["--kern-par", "-1"],
            _TRAIN + ["--c-reg", "inf"],
            _TRAIN + ["--kern-par", "inf"],
            _TRAIN + ["--kern-par", "1e308"],
            _TRAIN + ["--kernel", "wavelet", "--kern-par", "1e308"],
            _SELECT + ["--folds", "1"],
            _SELECT + ["--sigma-thr", "-1"],
            _TRAIN + ["--kernel", "polynomial", "--kern-par", "2.5"],
            _TRAIN + ["--kernel", "polynomial", "--kern-par", "inf"],
            ["gen", "ring", "--radius", "0", "--seed", "1", "-o", "r.csv"],
            ["gen", "banana", "--noise-std", "-1", "--seed", "1", "-o", "b.csv"],
        ],
        ids=[
            "fracrej-1.5", "fracrej-nan", "c-reg-0", "c-reg-nan", "kern-par--1",
            "c-reg-inf", "kern-par-inf", "kern-par-1e308", "wavelet-kern-par-1e308",
            "folds-1", "sigma-thr--1", "poly-kern-par-2.5",
            "poly-kern-par-inf", "radius-0", "noise-std--1",
        ],
    )
    def test_exits_1_without_traceback(self, tmp_path, labeled_csv, argv):
        proc = run_cli([a.format(data=labeled_csv) for a in argv], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestDefectsPropagate:
    """Only a toolbox refusal or an OSError becomes an `error:` line. Any
    other exception raised inside a command is a defect: it leaves main
    with its traceback. numpy's LinAlgError, a ValueError, once exited 1
    as if the input were at fault, and a builtin KeyError exited 2."""

    @pytest.mark.parametrize("error", [
        np.linalg.LinAlgError("injected"), ValueError("injected"), KeyError("injected"),
    ], ids=["LinAlgError", "ValueError", "KeyError"])
    def test_propagates(self, tmp_path, monkeypatch, capsys, error):
        def write_csv(data, path):
            raise error

        monkeypatch.setattr(occelm.cli, "write_csv", write_csv)
        with pytest.raises(type(error), match="injected"):
            main(["gen", "ring", "--seed", "1", "-o", str(tmp_path / "r.csv")])
        assert capsys.readouterr() == ("", "")


def _refused(argv, capsys, message):
    """argv exits 1 with nothing on stdout and exactly one error line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("raw, message", [
    (b"1,2\n\xff,3\n", "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    (b"1," + b"2" * 140_000 + b"\n", "field larger than field limit (131072)"),
], ids=["not-utf-8", "long-cell"])
def test_unreadable_table(tmp_path, capsys, raw, message):
    """A table that is no UTF-8, or holds a cell past csv's 128 KiB limit,
    is a ParseError; the long cell once ended in a csv.Error traceback."""
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    argv = ["train", "ockelm_thr1", str(path), "--seed", "1", "-o", str(tmp_path / "m.occ")]
    _refused(argv, capsys, message)


class TestErrorMessages:
    """The exact line each refused selection setting, protocol table and
    generator parameter prints."""

    @pytest.mark.parametrize("command", ["select", "train", "bench"])
    @pytest.mark.parametrize("fracrej", ["0", "1.5"])
    def test_selection_fracrej(self, tmp_path, labeled_csv, capsys, command, fracrej):
        """Selection's (0, 1) check runs before the threshold rule's
        [0, 1) one, under every command that selects."""
        argv = [command, "ockelm_thr1", labeled_csv, "--label-col", "-1",
                "--seed", "1", "--fracrej", fracrej]
        if command != "select":
            argv.append("--select")
        if command == "train":
            argv += ["-o", str(tmp_path / "m.occ")]
        _refused(argv, capsys, "fracrej must lie in (0, 1)")

    @pytest.mark.parametrize(
        "value, message",
        [("-1", "sigma_thr must be >= 0"), ("nan", "sigma_thr must be finite"),
         ("inf", "sigma_thr must be finite"), ("-1e-3", "sigma_thr must be >= 0"),
         ("-1E-3", "sigma_thr must be >= 0"), ("-inf", "sigma_thr must be >= 0")],
    )
    def test_sigma_thr(self, labeled_csv, capsys, value, message):
        """NAN once gave err_thr nan and a minimum-rejection pick, inf a
        bound that every grid point met; both exited 0. argparse once took
        -1e-3 and -inf for flags (exit 2)."""
        argv = ["select", "ockelm_thr1", labeled_csv, "--label-col", "-1",
                "--seed", "1", "--sigma-thr", value]
        _refused(argv, capsys, message)

    @pytest.mark.parametrize(
        "variant, extra",
        [("ockelm_thr1", ()), ("ocelm_thr1", ()), ("os_ocelm_thr1", ("--hidden", "8"))],
    )
    def test_wrong_width_score(self, tmp_path, labeled_csv, capsys, variant, extra):
        """A 3-column file against a 2-feature model: one check, one line."""
        model = str(tmp_path / "m.occ")
        argv = ["train", variant, labeled_csv, "--label-col", "-1", "--seed", "0"]
        assert main([*argv, *extra, "-o", model]) == 0
        capsys.readouterr()
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3\n4,5,6\n")
        _refused(["score", model, str(wide)], capsys, "rows have 3 features, expected 2")

    def test_more_folds_than_rows(self, tmp_path, capsys):
        path = tmp_path / "four.csv"
        write_csv(gen_ring(4, seed=1), str(path))
        argv = ["select", "ockelm_thr1", str(path), "--seed", "1", "--folds", "9"]
        _refused(argv, capsys, "need at least folds=9 rows, got 4")

    @pytest.mark.parametrize(
        "targets, outliers, message",
        [
            (2, 4, "benchmarking needs at least 3 target rows: each run trains "
                   "on half of them, and z-scoring needs 2"),
            (6, 0, "benchmarking needs at least one outlier row"),
            (6, None, "benchmarking needs labeled data"),
        ],
    )
    def test_bench_table(self, tmp_path, capsys, targets, outliers, message):
        ring = gen_ring(targets + (outliers or 0), seed=1)
        labels = None if outliers is None else [True] * targets + [False] * outliers
        path = tmp_path / "t.csv"
        write_csv(Dataset(ring.samples, labels, ["x", "y"]), str(path))
        argv = ["bench", "ockelm_thr1", str(path), "--seed", "1", "--runs", "2"]
        if labels is not None:
            argv += ["--label-col", "-1"]
        _refused(argv, capsys, message)

    @pytest.mark.parametrize(
        "shape, flag, value, message",
        [
            ("ring", "--noise-std", "nan", "noise_std must be finite"),
            ("banana", "--noise-std", "nan", "noise_std must be finite"),
            ("ring", "--noise-std", "inf", "noise_std must be finite"),
            ("banana", "--noise-std", "inf", "noise_std must be finite"),
            ("ring", "--radius", "nan", "radius must be finite"),
            ("ring", "--radius", "inf", "radius must be finite"),
        ],
    )
    def test_gen_parameter(self, tmp_path, capsys, shape, flag, value, message):
        """NAN noise once wrote the noiseless file, and an infinite
        radius or noise failed as non-finite samples."""
        out = tmp_path / "g.csv"
        argv = ["gen", shape, "--count", "4", "--seed", "1", flag, value, "-o", str(out)]
        _refused(argv, capsys, message)
        assert not out.exists()


class TestOverflowRefusals:
    """A finite flag value whose derived numbers overflow: one "error:" line
    naming the flag or the overflow, and no numpy RuntimeWarning before it,
    run as a fresh interpreter would. The grid span and the drawn rows once
    failed as "samples contain non-finite values", after a warning from
    np.linspace for the grid; a tiny rbf width, whose -2 sigma^2 underflows
    to -0.0, printed a divide-by-zero warning from the Gram tiles, then
    failed as an overflowed Gram matrix or model output. KernelSpec now
    refuses that width by name."""

    TINY = "rbf kernel needs sigma**2 > 0, sigma 1e-300 squares to 0"

    @staticmethod
    def _model(tmp_path, labeled_csv, sigma=None) -> str:
        path = tmp_path / "m.occ"
        main(["train", "ockelm_thr1", labeled_csv, "--label-col", "-1", "--seed", "0",
              "-o", str(path)])
        if sigma is not None:
            text = re.sub(r"kparam sigma .*", f"kparam sigma {sigma}", path.read_text())
            path.write_text(text)
        return str(path)

    @staticmethod
    def _one_error_line(argv, cwd, message):
        proc = run_cli(argv, cwd)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("bounds, message", [
        (["-1e308", "1e308", "-1e308", "1e308"], "--bounds make the lattice overflow"),
        (["-5", "-5", "-5", "1.7976931348623157e308"],
         "row 3: a z-scored value overflowed to inf or nan"),
    ], ids=["span", "last-step"])
    def test_grid_lattice(self, tmp_path, labeled_csv, bounds, message):
        """The span overflows; or only linspace's last step does, before it
        sets the last point to the bound, and the finite lattice overflows
        the model's z-score (the fuzz test found this warning)."""
        model = self._model(tmp_path, labeled_csv)
        argv = ["grid", model, "--bounds", *bounds, "--resolution", "4"]
        self._one_error_line(argv, tmp_path, message)

    @pytest.mark.parametrize("shape, extra", [
        ("ring", ["--seed", "1"]), ("banana", ["--seed", "1"]),
        # radius plus noise overflowed in numpy's add, which warned
        ("ring", ["--radius", "1e308", "--count", "2", "--seed", "4"]),
    ], ids=["ring", "banana", "ring-radius"])
    def test_gen_noise(self, tmp_path, shape, extra):
        argv = ["gen", shape, "--noise-std", "1e308", *extra, "-o", "g.csv"]
        self._one_error_line(argv, tmp_path, "noise_std 1e+308 makes the drawn rows overflow")
        assert not (tmp_path / "g.csv").exists()

    def test_tiny_rbf_width_at_training(self, tmp_path, labeled_csv):
        argv = ["train", "ockelm_thr1", labeled_csv, "--label-col", "-1", "--seed", "1",
                "--kern-par", "1e-300", "-o", "m.occ"]
        self._one_error_line(argv, tmp_path, self.TINY)

    def test_tiny_rbf_width_in_a_model_file(self, tmp_path, labeled_csv):
        model = self._model(tmp_path, labeled_csv, sigma="1e-300")
        argv = ["score", model, labeled_csv, "--label-col", "-1"]
        self._one_error_line(argv, tmp_path, f"malformed model file: {self.TINY}")
