"""Run the full 20-run benchmark protocol on a labeled dataset.

With no arguments a synthetic two-ring set is used; pass a labeled CSV
(label in the last column, +1 targets / -1 outliers) to benchmark real
data, e.g. the tables described in data/README.md.
"""

import argparse

import numpy as np

from occelm import Dataset, gen_ring, load_csv, run_benchmark


def synthetic() -> Dataset:
    targets = gen_ring(120, radius=1.0, noise_std=0.08, seed=30)
    outliers = gen_ring(40, radius=5.0, noise_std=0.4, seed=31)
    return Dataset(
        np.vstack([targets.samples, outliers.samples]),
        np.array([True] * 120 + [False] * 40),
        ["x", "y"],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv", nargs="?", help="labeled CSV file")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--variants",
        default="ockelm_thr1,aakelm_thr1,aakelm_thr2,aakelm_thr3",
        help="comma-separated variant ids",
    )
    args = parser.parse_args()

    if args.csv:
        data = load_csv(args.csv, label_column=-1)
        name = args.csv.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    else:
        data = synthetic()
        name = "two_rings"
    print(
        f"{name}: {data.samples.shape[0]} rows, "
        f"{int(data.labels.sum())} targets / "
        f"{int((~data.labels).sum())} outliers; {args.runs} runs, "
        "hyperparameters selected on run 0\n"
    )
    print("classifier        variant      F1     ACC     AUC  Std_AUC")
    for vid in args.variants.split(","):
        result = run_benchmark(
            data,
            vid.strip(),
            dataset_name=name,
            runs=args.runs,
            seed=args.seed,
            select_params=True,
        )
        r = result.report
        print(
            f"{result.variant.classifier:<12}  {result.variant.label:>7}"
            f"  {r.f1:6.2f}  {r.accuracy:6.2f}  {r.auc:6.2f}  {r.std_auc:7.2f}"
        )
    print(
        "\nmean training time per run is in BenchResult.train_seconds; "
        "the occelm CLI writes the same table with `occelm bench`."
    )


if __name__ == "__main__":
    main()
