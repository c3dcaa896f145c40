"""Stream a banana set through the sequential trainer chunk by chunk.

The recursive update visits each chunk once, needs no past rows for the
weights, and still lands on the same least-squares weights as one batch
solve over everything it has seen. The model keeps the rows only so that
finalize can fit the threshold on all of them under the final weights.
"""

import numpy as np

from occelm import (
    ThresholdSpec,
    gen_banana,
    hidden_apply,
    hidden_init,
    os_finalize,
    os_init,
    os_score,
    os_update,
    zscore_fit,
)


def main() -> None:
    data = gen_banana(200, noise_std=0.6, seed=14)
    stats = zscore_fit(data)
    X = data.samples
    layer = hidden_init("additive_sigmoid", m=15, n=2, seed=3)

    model = os_init("boundary", layer, X[:30], zstats=stats)
    seen = 30
    print(f"init: {seen} rows, beta shape {model.rls.beta.shape}")
    for start in range(30, 200, 34):
        chunk = X[start : start + 34]
        os_update(model, chunk)
        seen += chunk.shape[0]
        print(f"  +{chunk.shape[0]:3d} rows -> seen {seen}")

    from occelm.dataset import Dataset, zscore_apply

    Hs = hidden_apply(layer, zscore_apply(Dataset(X), stats).samples)
    batch, *_ = np.linalg.lstsq(Hs, np.ones((200, 1)), rcond=None)
    drift = np.linalg.norm(model.rls.beta - batch) / np.linalg.norm(batch)
    print(f"relative drift vs one-shot least squares: {drift:.2e}")

    os_finalize(model, ThresholdSpec("thr1", fracrej=0.1))
    inside = os_score(model, X[:10])
    outside = os_score(model, np.array([[20.0, 20.0], [-15.0, 4.0]]))
    print(
        f"after finalize: {sum(d.is_target for d in inside)}/10 early "
        f"training rows accepted, "
        f"{sum(not d.is_target for d in outside)}/2 far points rejected"
    )


if __name__ == "__main__":
    main()
