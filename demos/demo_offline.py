"""Train the four offline families on a ring and score a mixed test set.

Boundary models (OCELM / OCKELM) push every training output toward a
constant and score distance from it; reconstruction models (AAELM /
AAKELM) rebuild their input and score the squared residual.
"""

import numpy as np

from occelm import (
    ThresholdSpec,
    confuse,
    gen_ring,
    measures,
    random_kernel,
    rbf_kernel,
    score,
    train_boundary,
    train_reconstruction,
    zscore_apply,
    zscore_fit,
)


def main() -> None:
    train = gen_ring(120, radius=1.0, noise_std=0.05, seed=4)
    test_targets = gen_ring(40, radius=1.0, noise_std=0.05, seed=5)
    test_outliers = gen_ring(40, radius=4.0, noise_std=0.3, seed=6)
    test_X = np.vstack([test_targets.samples, test_outliers.samples])
    truth = np.array([True] * 40 + [False] * 40)

    stats = zscore_fit(train)
    sigma = 1.0
    tspec = ThresholdSpec("thr1", fracrej=0.1)
    cases = [
        ("OCELM  (random map)", train_boundary, random_kernel(m=50)),
        ("OCKELM (rbf kernel)", train_boundary, rbf_kernel(sigma)),
        ("AAELM  (random map)", train_reconstruction, random_kernel(m=50)),
        ("AAKELM (rbf kernel)", train_reconstruction, rbf_kernel(sigma)),
    ]
    print("variant              thresh    sens    spec     auc")
    for name, trainer, mapping in cases:
        model = trainer(train, mapping, 1.0, tspec, seed=11, zstats=stats)
        decisions = score(model, test_X)
        result = measures(confuse(decisions, truth))
        print(
            f"{name}  {model.thresh:8.4f} {result.recall:7.2f} "
            f"{result.specificity:7.2f} {result.auc:7.2f}"
        )
    print(
        "\nAll four reject the radius-4 cloud; the threshold value itself "
        "is family-specific (deviation vs squared reconstruction error)."
    )


if __name__ == "__main__":
    main()
