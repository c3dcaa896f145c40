"""Consistency-based hyperparameter selection, step by step.

The scan accepts a (sigma, C) pair when its cross-validated rejection
rate stays below a statistical allowance around the requested rate, then
keeps the most complex boundary (smallest sigma) among the consistent
ones.
"""

import numpy as np

from occelm import (
    VARIANTS,
    ThresholdSpec,
    choose_params,
    error_threshold,
    gen_banana,
    rbf_kernel,
    score,
    sigma_grid,
    train_boundary,
    zscore_apply,
    zscore_fit,
)
from occelm.modelsel import C_GRID


def main() -> None:
    data = gen_banana(100, seed=0)
    stats = zscore_fit(data)
    Xz = zscore_apply(data, stats).samples

    M = Xz.shape[0] // 5
    print(
        f"rejection allowance: err_thr(fracrej=0.1, sigma_thr=2, M={M}) "
        f"= {error_threshold(0.1, 2.0, M):.4f}"
    )
    sigmas = sigma_grid(Xz)
    print(
        f"sigma grid: {sigmas.size} geometric points in "
        f"[{sigmas[0]:.3f}, {sigmas[-1]:.3f}]; C grid: {len(C_GRID)} decades"
    )

    params, diag = choose_params(VARIANTS["ockelm_thr1"], Xz, fracrej=0.1, folds=5)
    consistent = [p for p in diag.points if p.consistent]
    print(
        f"scanned {len(diag.points)} combinations, "
        f"{len(consistent)} consistent"
    )
    print(f"chosen: sigma = {params['sigma']:.4f}, C = {params['C']:g}")

    model = train_boundary(
        data,
        rbf_kernel(params["sigma"]),
        params["C"],
        ThresholdSpec("thr1", fracrej=0.1),
        seed=0,
        zstats=stats,
    )
    accepted = float(np.mean([d.is_target for d in score(model, data)]))
    print(f"final model accepts {accepted:.0%} of its own training data")


if __name__ == "__main__":
    main()
