"""Data handling tour: generators, normalization, splits, CSV round trip.

Everything is seeded, so repeated runs print identical numbers.
"""

import tempfile
from pathlib import Path

import numpy as np

from occelm import (
    Dataset,
    gen_banana,
    gen_ring,
    load_csv,
    occ_split,
    write_csv,
    zscore_apply,
    zscore_fit,
)


def describe(name: str, data: Dataset) -> None:
    X = data.samples
    print(f"{name}: {X.shape[0]} rows x {X.shape[1]} features")
    print(f"  mean {np.array2string(X.mean(axis=0), precision=3)}")
    print(f"  std  {np.array2string(X.std(axis=0, ddof=1), precision=3)}")


def main() -> None:
    banana = gen_banana(100, seed=0)
    ring = gen_ring(60, radius=2.0, noise_std=0.15, seed=1)
    describe("banana", banana)
    describe("ring", ring)

    stats = zscore_fit(banana)
    normalized = zscore_apply(banana, stats)
    print("\nz-scored banana (statistics fitted on itself):")
    describe("banana_z", normalized)

    labels = np.array([True] * 60 + [False] * 20)
    mixed = Dataset(
        np.vstack(
            [ring.samples, gen_ring(20, radius=6.0, seed=2).samples]
        ),
        labels,
        ["x", "y"],
    )
    train_half, test_half = occ_split(mixed, seed=7, run=0)
    print(
        "\nsplit (run 0, seed 7): "
        f"{train_half.samples.shape[0]} training targets, "
        f"{test_half.samples.shape[0]} test rows "
        f"({int(test_half.labels.sum())} targets + "
        f"{int((~test_half.labels).sum())} outliers)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixed.csv"
        write_csv(mixed, str(path))
        again = load_csv(str(path), label_column=-1)
        same = np.array_equal(again.samples, mixed.samples) and np.array_equal(
            again.labels, mixed.labels
        )
        print(f"CSV round trip through {path.name}: identical = {same}")


if __name__ == "__main__":
    main()
