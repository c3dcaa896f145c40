"""Command-line entry point: generate data, train, score, benchmark,
select hyperparameters, and export decision-boundary grids.

Exit codes: 0 success, 1 computation error, 2 usage error. Every command
is deterministic under --seed: stdout and all written files depend only on
the flags, while wall-clock lines and any entropy-drawn seed go to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

import numpy as np

from .bench import (
    FIXED_PARAMS,
    KERNELS,
    NODE_NAMES,
    VARIANTS,
    choose_params,
    default_params,
    fit,
    fixed_params,
    parse_variant,
    run_benchmark,
    run_seed,
    score_model,
)
from .dataset import Dataset, gen_banana, gen_ring, label_text, load_csv, value_text
from .dataset import write_csv, write_table, zscore_apply, zscore_fit
from .errors import BadArgument, DimensionMismatch, OccelmError, TooFewSamples, UsageError
from .metrics import MEASURES, REPORT_COLUMNS, confuse, measures, render_value
from .modelio import load_model, save_model
from .modelsel import write_diagnostics

# every id with and without a node suffix; parse_variant refuses the
# suffixed kernel ids as a usage error
_VARIANT_CHOICES = [v + s for v in VARIANTS for s in ("", *(f"_{n}" for n in NODE_NAMES))]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text}: must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:  # numpy refuses a negative seed
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text}: must be >= 0")
    return value


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % 2**32)
    print(f"seed {seed}", file=sys.stderr)
    return seed


def _resolve_run(args):
    """The variant with its feature map, its fixed parameters and the
    selection flags given (--folds, --sigma-thr), before any file is read.
    A flag the run does not read raises UsageError."""
    select = getattr(args, "select", True)  # the select command always selects
    variant = parse_variant(args.variant, NODE_NAMES.get(args.node_type), args.kernel)
    fixed = fixed_params(variant, select, {k: getattr(args, k, None) for k in FIXED_PARAMS})
    scan = {"folds": args.folds, "sigma_thr": args.sigma_thr}
    scan = {name: value for name, value in scan.items() if value is not None}
    if scan and not select:
        raise UsageError(f"--{next(iter(scan)).replace('_', '-')} needs --select")
    return variant, fixed, scan


def _training_rows(args):
    """The training rows of the data file (every row of an unlabeled file,
    else the targets), their z-score stats and the normalized rows."""
    targets = load_csv(args.data, args.label_col)
    if targets.labels is not None:
        if not np.any(targets.labels):
            raise TooFewSamples("no target-labeled rows to train on")
        targets = Dataset(targets.samples[targets.labels], feature_names=targets.feature_names)
    zstats = zscore_fit(targets)
    return targets, zstats, zscore_apply(targets, zstats).samples


def _print_params(params: dict, consistent: bool | None) -> None:
    for name, value in params.items():
        print(f"param {name} {value_text(value)}")
    if consistent is not None:
        print(f"consistent {int(consistent)}")


def cmd_gen(args) -> int:
    given = {k: getattr(args, k) for k in ("noise_std", "radius") if getattr(args, k) is not None}
    if args.shape == "banana" and "radius" in given:
        raise UsageError("banana does not read --radius")
    seed = _resolve_seed(args)
    data = (gen_banana if args.shape == "banana" else gen_ring)(args.count, seed=seed, **given)
    write_csv(data, args.out)
    return 0


def cmd_train(args) -> int:
    variant, fixed, scan = _resolve_run(args)
    seed = _resolve_seed(args)
    targets, zstats, Xz = _training_rows(args)
    if args.select:
        params, diag = choose_params(variant, Xz, fracrej=args.fracrej, seed=seed, **scan)
        consistent = diag.consistent
    else:
        params = default_params(variant, Xz, fixed)
        consistent = None

    start = time.perf_counter()
    model = fit(
        variant, params, targets, fracrej=args.fracrej, layer_seed=run_seed(seed),
        zstats=zstats, n0=fixed.get("n0"), block=fixed.get("block"),
    )
    print(f"train {time.perf_counter() - start:.4f}s", file=sys.stderr)
    save_model(model, args.out)
    _print_params(params, consistent)
    return 0


def cmd_score(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.data, args.label_col)
    decisions = score_model(model, data.samples)

    columns = zip(
        decisions.is_target.tolist(), decisions.score.tolist(), decisions.thresh.tolist()
    )
    write_table(args.out, ["row", "decision", "score", "thresh"], (
        [i, label_text(is_target), value_text(score), value_text(thresh)]
        for i, (is_target, score, thresh) in enumerate(columns)
    ))

    if data.labels is not None:
        r = measures(confuse(decisions, data.labels))
        cells = (f"{name} {render_value(getattr(r, field))}" for field, name in MEASURES)
        print(" ".join(cells), file=sys.stderr)
    return 0


def _write_runs_csv(path: str, result) -> None:
    write_table(path, ["run", *(name for _, name in MEASURES)], (
        [i, *(render_value(getattr(r, field)) for field, _ in MEASURES)]
        for i, r in enumerate(result.run_reports)
    ))


def cmd_bench(args) -> int:
    variant, fixed, scan = _resolve_run(args)
    seed = _resolve_seed(args)
    data = load_csv(args.data, args.label_col)
    name = args.dataset_name or args.data.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    result = run_benchmark(
        data, variant, dataset_name=name, runs=args.runs, seed=seed,
        fracrej=args.fracrej, select_params=args.select, fixed=fixed, **scan,
    )
    for r, secs in enumerate(result.train_seconds):
        print(f"run {r}: train {secs:.4f}s", file=sys.stderr)
    cells = [
        result.dataset_name, result.variant.classifier, result.variant.label,
        render_value(result.report.f1), render_value(result.report.accuracy),
        render_value(result.report.auc), render_value(result.report.std_auc),
    ]
    write_table(args.out, REPORT_COLUMNS, [cells])
    if args.out is not None:
        _write_runs_csv(f"{args.out}.runs.csv", result)
        if result.selection is not None:
            write_diagnostics(result.selection, f"{args.out}.sel.csv")
    return 0


def cmd_select(args) -> int:
    variant, _, scan = _resolve_run(args)
    seed = _resolve_seed(args)
    _, _, Xz = _training_rows(args)
    params, diag = choose_params(variant, Xz, fracrej=args.fracrej, seed=seed, **scan)
    print(f"err_thr {value_text(diag.err_thr)}")
    print(f"fold_size {diag.fold_size}")
    _print_params(params, diag.consistent)
    if args.out is not None:
        write_diagnostics(diag, args.out)
    return 0


def cmd_grid(args) -> int:
    r, (xmin, xmax, ymin, ymax) = args.resolution, args.bounds
    if not np.isfinite(args.bounds).all():
        raise BadArgument("bounds must be finite")
    with np.errstate(all="ignore"):  # judged just below
        xs, ys = np.linspace(xmin, xmax, r), np.linspace(ymin, ymax, r)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise BadArgument("--bounds make the lattice overflow")
    model = load_model(args.model)
    if model.zstats.feature_count != 2:
        raise DimensionMismatch(
            f"grid export needs a 2-feature model, got {model.zstats.feature_count}"
        )
    points = np.column_stack([np.repeat(xs, r), np.tile(ys, r)])  # x outer, y inner
    decisions = score_model(model, points)

    write_table(args.out, ["x", "y", "score", "is_target"], (
        [value_text(x), value_text(y), value_text(score), int(is_target)]
        for (x, y), score, is_target in zip(
            points, decisions.score.tolist(), decisions.is_target.tolist()
        )
    ))
    return 0


class _Parser(argparse.ArgumentParser):
    """Takes -1e3 and -inf, like -5, for numbers, not flags; subparsers too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(inf|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="occelm", description="One-class ELM/OSELM toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name: str, summary: str, func, own: dict) -> None:
        """train, bench or select: the variant, the data and --label-col, the
        command's own flags, then the run flags. The fixed parameters, which
        selection would otherwise choose, go to commands that take --select."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("variant", choices=_VARIANT_CHOICES, metavar="variant")
        p.add_argument("data")
        p.add_argument("--label-col", type=int, default=None)
        for flag, kwargs in own.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=_nonnegative_int, default=None)
        p.add_argument("--out", "-o", required=name == "train", default=None)
        p.add_argument("--kernel", choices=KERNELS, default=None)
        if "--select" in own:
            p.add_argument("--kern-par", type=float, default=None)
            p.add_argument("--c-reg", type=float, default=None)
            for flag in ("--hidden", "--n0", "--block"):
                p.add_argument(flag, type=_positive_int, default=None)
        p.add_argument("--node-type", choices=tuple(NODE_NAMES), default=None)
        p.add_argument("--fracrej", type=float, default=0.1)
        p.add_argument("--folds", type=_positive_int, default=None)
        p.add_argument("--sigma-thr", type=float, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("gen", help="generate a synthetic 2-D dataset")
    p.add_argument("shape", choices=("banana", "ring"))
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--noise-std", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    select = {"--select": {"action": "store_true"}}
    run_command("train", "train one variant and save the model", cmd_train, select)

    p = sub.add_parser("score", help="score a CSV with a saved model")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--label-col", type=int, default=None)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_score)

    run_command("bench", "full multi-run benchmark protocol", cmd_bench, {
        "--dataset-name": {"default": None},
        "--runs": {"type": _positive_int, "default": 20},
        **select,
    })
    run_command("select", "consistency-based hyperparameter search", cmd_select, {})

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
    except UsageError as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OccelmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
