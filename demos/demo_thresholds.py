"""The three outlier-threshold rules on one reconstruction problem.

Thr1 cuts at an order statistic of the training errors, Thr2 at
mean + 0.2 * std, and Thr3 judges each feature's relative
reconstruction error instead of one pooled score.
"""

import numpy as np

from occelm import (
    ThresholdSpec,
    gen_ring,
    random_kernel,
    relative_errors,
    score,
    thr1_fit,
    thr2_fit,
    train_reconstruction,
    zscore_fit,
)


def main() -> None:
    train = gen_ring(100, radius=1.0, noise_std=0.05, seed=9)
    stats = zscore_fit(train)
    mapping = random_kernel(m=40)

    errors = None
    for kind in ("thr1", "thr2", "thr3"):
        tspec = ThresholdSpec(kind, fracrej=0.1)
        model = train_reconstruction(train, mapping, 1.0, tspec, seed=21, zstats=stats)
        if errors is None:
            errors = np.asarray(model.train_errors)
            print(
                f"training errors: min {errors.min():.4f}, "
                f"median {np.median(errors):.4f}, max {errors.max():.4f}"
            )
            print(f"  thr1 (reject ~10%):   {thr1_fit(errors, 0.1):.4f}")
            print(f"  thr2 (mean + 0.2*sd): {thr2_fit(errors):.4f}")
        probes = np.array(
            [[1.0, 0.0], [0.0, -1.05], [2.5, 2.5], [0.0, 0.0]]
        )
        verdicts = ", ".join(
            f"({p[0]:.2f}, {p[1]:.2f})="
            f"{'target' if is_target else 'OUTLIER'}"
            for p, is_target in zip(probes, score(model, probes).is_target)
        )
        print(f"{kind}: {verdicts}")

    print(
        "\nNote thr3 accepting (2.50, 2.50): it judges the per-feature "
        "shape of the reconstruction, not its pooled magnitude, so a "
        "proportionally rebuilt far point can stay inside its budget."
    )
    print("\nThr3's per-feature view on the ring centre (0, 0):")
    model3 = train_reconstruction(
        train,
        random_kernel(m=40),
        1.0,
        ThresholdSpec("thr3", condn1=0.5, condn2_frac=0.1),
        seed=21,
        zstats=stats,
    )
    centre = np.array([[0.0, 0.0]])
    d = score(model3, centre)
    print(
        f"  fraction of badly reconstructed features = {d.score[0]:.2f} "
        f"(budget {d.thresh[0]:.2f}) -> "
        f"{'target' if d.is_target[0] else 'outlier'}"
    )
    print(
        "  relative_errors([1, 2], [1.1, 1.9]) = "
        f"{np.array2string(relative_errors([1.0, 2.0], [1.1, 1.9]), precision=3)}"
    )


if __name__ == "__main__":
    main()
