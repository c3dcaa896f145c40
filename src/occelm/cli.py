"""Command-line entry point: generate data, train, score, benchmark,
select hyperparameters, and export decision-boundary grids.

Exit codes: 0 success, 1 computation error, 2 usage error. Every command
is deterministic under --seed: stdout and all written files depend only on
the flags, while wall-clock lines and any entropy-drawn seed go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time

import numpy as np

from .bench import (
    KERNEL_ENGINE,
    VARIANTS,
    choose_params,
    default_params,
    fit,
    parse_variant,
    run_benchmark,
    run_seed,
    score_model,
)
from .dataset import Dataset, gen_banana, gen_ring, load_csv, write_csv, zscore_apply, zscore_fit
from .errors import NotTwoDimensional, NoTargets, OccelmError
from .featuremap import ADDITIVE_SIGMOID, RBF_NODE
from .metrics import REPORT_COLUMNS, confuse, measures, render_value
from .modelio import load_model, save_model
from .modelsel import write_diagnostics

_NODE_FLAG = {"sig": ADDITIVE_SIGMOID, "rbf": RBF_NODE}
_KERNEL_CHOICES = ("rbf", "linear", "polynomial", "wavelet")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text}: must be >= 1")
    return value


def _variant_choices() -> list[str]:
    out: list[str] = []
    for vid, variant in VARIANTS.items():
        out.append(vid)
        if variant.engine != KERNEL_ENGINE:
            out.extend((f"{vid}_sig", f"{vid}_rbf"))
    return out


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % 2**32)
    print(f"seed {seed}", file=sys.stderr)
    return seed


@contextlib.contextmanager
def _csv_out(path: str | None):
    """CSV writer on the file at path, or on stdout when path is None."""
    if path is None:
        yield csv.writer(sys.stdout)
        return
    with open(path, "w", newline="") as fh:
        yield csv.writer(fh)


def _target_rows(data: Dataset) -> Dataset:
    """Training rows: every row of an unlabeled file, else the targets."""
    if data.labels is None:
        return Dataset(data.samples, feature_names=data.feature_names)
    if not np.any(data.labels):
        raise NoTargets("no target-labeled rows to train on")
    return Dataset(data.samples[data.labels], feature_names=data.feature_names)


def _node_type_arg(args) -> str | None:
    return _NODE_FLAG[args.node_type] if args.node_type else None


def _print_params(params: dict, consistent: bool | None) -> None:
    for name, value in params.items():
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        print(f"param {name} {text}")
    if consistent is not None:
        print(f"consistent {int(consistent)}")


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    if args.shape == "banana":
        noise = 1.0 if args.noise_std is None else args.noise_std
        data = gen_banana(args.count, noise_std=noise, seed=seed)
    else:
        noise = 0.1 if args.noise_std is None else args.noise_std
        data = gen_ring(args.count, radius=args.radius, noise_std=noise, seed=seed)
    write_csv(data, args.out)
    return 0


def cmd_train(args) -> int:
    seed = _resolve_seed(args)
    variant, node_type = parse_variant(args.variant, _node_type_arg(args))
    data = load_csv(args.data, args.label_col)
    targets = _target_rows(data)
    zstats = zscore_fit(targets)
    Xz = zscore_apply(targets, zstats).samples

    if args.select:
        params, diag = choose_params(
            variant, Xz, kernel_kind=args.kernel, node_type=node_type,
            fracrej=args.fracrej, folds=args.folds, sigma_thr=args.sigma_thr, seed=seed,
        )
        consistent = diag.consistent
    else:
        params = default_params(
            variant.engine, args.kernel, Xz, args.kern_par, args.c_reg, args.hidden
        )
        consistent = None

    start = time.perf_counter()
    model = fit(
        variant, params, targets, fracrej=args.fracrej,
        kernel_kind=args.kernel, node_type=node_type,
        layer_seed=run_seed(seed), zstats=zstats, n0=args.n0, block=args.block,
    )
    print(f"train {time.perf_counter() - start:.4f}s", file=sys.stderr)
    save_model(model, args.out)
    _print_params(params, consistent)
    return 0


def cmd_score(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.data, args.label_col)
    decisions = score_model(model, data.samples)

    with _csv_out(args.out) as writer:
        writer.writerow(["row", "decision", "score", "thresh"])
        for i, d in enumerate(decisions):
            writer.writerow(
                [i, "+1" if d.is_target else "-1", f"{d.score:.17g}", f"{d.thresh:.17g}"]
            )

    if data.labels is not None:
        r = measures(confuse(decisions, data.labels))
        print(
            f"precision {render_value(r.precision)} recall {render_value(r.recall)} "
            f"specificity {render_value(r.specificity)} F1 {render_value(r.f1)} "
            f"ACC {render_value(r.accuracy)} AUC {render_value(r.auc)}",
            file=sys.stderr,
        )
    return 0


def _write_runs_csv(path: str, result) -> None:
    with _csv_out(path) as writer:
        writer.writerow(["run", "precision", "recall", "specificity", "F1", "ACC", "AUC"])
        for i, r in enumerate(result.run_reports):
            writer.writerow(
                [i] + [render_value(v) for v in (
                    r.precision, r.recall, r.specificity, r.f1, r.accuracy, r.auc
                )]
            )


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    data = load_csv(args.data, args.label_col)
    name = args.dataset_name or args.data.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    result = run_benchmark(
        data,
        args.variant,
        dataset_name=name,
        runs=args.runs,
        seed=seed,
        fracrej=args.fracrej,
        kernel_kind=args.kernel,
        node_type=_node_type_arg(args),
        select_params=args.select,
        folds=args.folds,
        sigma_thr=args.sigma_thr,
        kern_par=args.kern_par,
        c_reg=args.c_reg,
        hidden=args.hidden,
        n0=args.n0,
        block=args.block,
        time_sink=lambda line: print(line, file=sys.stderr),
    )
    row = result.report_row()
    cells = [
        row["dataset"], row["classifier"], row["variant"],
        render_value(result.report.f1), render_value(result.report.accuracy),
        render_value(result.report.auc), render_value(result.report.std_auc),
    ]
    with _csv_out(args.out) as writer:
        writer.writerow(REPORT_COLUMNS)
        writer.writerow(cells)
    if args.out is not None:
        _write_runs_csv(f"{args.out}.runs.csv", result)
        if result.selection is not None:
            write_diagnostics(result.selection, f"{args.out}.sel.csv")
    return 0


def cmd_select(args) -> int:
    seed = _resolve_seed(args)
    variant, node_type = parse_variant(args.variant, _node_type_arg(args))
    data = load_csv(args.data, args.label_col)
    targets = _target_rows(data)
    zstats = zscore_fit(targets)
    Xz = zscore_apply(targets, zstats).samples
    params, diag = choose_params(
        variant, Xz, kernel_kind=args.kernel, node_type=node_type,
        fracrej=args.fracrej, folds=args.folds, sigma_thr=args.sigma_thr, seed=seed,
    )
    print(f"err_thr {diag.err_thr:.17g}")
    print(f"fold_size {diag.fold_size}")
    _print_params(params, diag.consistent)
    if args.out is not None:
        write_diagnostics(diag, args.out)
    return 0


def cmd_grid(args) -> int:
    model = load_model(args.model)
    if model.feature_count != 2:
        raise NotTwoDimensional(
            f"grid export needs a 2-feature model, got {model.feature_count}"
        )
    xmin, xmax, ymin, ymax = args.bounds
    xs = np.linspace(xmin, xmax, args.resolution)
    ys = np.linspace(ymin, ymax, args.resolution)
    points = np.array([(x, y) for x in xs for y in ys])
    decisions = score_model(model, points)

    with _csv_out(args.out) as writer:
        writer.writerow(["x", "y", "score", "is_target"])
        for (x, y), d in zip(points, decisions):
            writer.writerow(
                [f"{x:.17g}", f"{y:.17g}", f"{d.score:.17g}", int(d.is_target)]
            )
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=_KERNEL_CHOICES, default="rbf")
    p.add_argument("--kern-par", type=float, default=None)
    p.add_argument("--c-reg", type=float, default=None)
    p.add_argument("--hidden", type=_positive_int, default=None)
    p.add_argument("--n0", type=_positive_int, default=None)
    p.add_argument("--block", type=_positive_int, default=None)
    p.add_argument("--node-type", choices=tuple(_NODE_FLAG), default=None)


def _add_select_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fracrej", type=float, default=0.1)
    p.add_argument("--folds", type=_positive_int, default=5)
    p.add_argument("--sigma-thr", type=float, default=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occelm", description="One-class ELM/OSELM toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic 2-D dataset")
    p.add_argument("shape", choices=("banana", "ring"))
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--noise-std", type=float, default=None)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one variant and save the model")
    p.add_argument("variant", choices=_variant_choices(), metavar="variant")
    p.add_argument("data")
    p.add_argument("--label-col", type=int, default=None)
    p.add_argument("--select", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o", required=True)
    _add_model_flags(p)
    _add_select_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a CSV with a saved model")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--label-col", type=int, default=None)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="full multi-run benchmark protocol")
    p.add_argument("variant", choices=_variant_choices(), metavar="variant")
    p.add_argument("data")
    p.add_argument("--label-col", type=int, default=None)
    p.add_argument("--dataset-name", default=None)
    p.add_argument("--runs", type=_positive_int, default=20)
    p.add_argument("--select", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o", default=None)
    _add_model_flags(p)
    _add_select_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("select", help="consistency-based hyperparameter search")
    p.add_argument("variant", choices=_variant_choices(), metavar="variant")
    p.add_argument("data")
    p.add_argument("--label-col", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o", default=None)
    _add_model_flags(p)
    _add_select_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("grid", help="export a decision-boundary lattice")
    p.add_argument("model")
    p.add_argument("--bounds", type=float, nargs=4, required=True,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--resolution", type=_positive_int, default=50)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OccelmError, OSError, ValueError) as exc:
        # ValueError: a flag value the library refuses (numpy's LinAlgError
        # is one too)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
