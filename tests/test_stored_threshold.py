"""The threshold has one owner: ThresholdSpec carries the rejection
fraction, and offline.fit_threshold alone fits the cut and gives the
training errors a trained model holds. So a trained model reproduces its
own cut from its own `tspec` and training errors, for offline and online
models alike, and its file keeps that cut to the bit. The file keeps no
training errors: scoring reads only the cut."""

import numpy as np
import pytest

from occelm.bench import VARIANTS, fit, score_model
from occelm.dataset import Dataset, zscore_fit
from occelm.featuremap import rbf_kernel
from occelm.modelio import load_model, save_model
from occelm.offline import train_boundary, train_reconstruction
from occelm.threshold import THR1, THR3, ThresholdSpec, thr1_fit, thr2_fit

CUT_VARIANTS = [vid for vid, v in VARIANTS.items() if v.tkind != THR3]

# train_errors come from the training solve's outputs (Omega @ beta, or the
# final RLS weights), the scores from scoring the same rows afresh
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12


def _params(vid: str) -> dict:
    engine = VARIANTS[vid].engine
    if engine == "kernel":
        return {"sigma": 1.5, "C": 10.0}
    if engine == "random":
        return {"m": 12, "C": 10.0}
    return {"m": 8}


@pytest.mark.parametrize("vid", CUT_VARIANTS)
def test_saved_file_reproduces_its_cut(vid, tmp_path):
    rows = np.random.default_rng(5).normal(2.0, 1.5, (60, 3))
    model = fit(
        VARIANTS[vid], _params(vid), rows, fracrej=0.15,
        layer_seed=[1, 0, 7], zstats=zscore_fit(Dataset(rows)),
    )
    tspec = model.tspec
    assert (tspec.kind, tspec.fracrej) == (VARIANTS[vid].tkind, 0.15)
    errors = np.asarray(model.train_errors)
    assert errors.shape == (60,)
    if tspec.kind == THR1:
        refit = thr1_fit(errors, tspec.fracrej)
    else:
        refit = thr2_fit(errors, tspec.std_mult)
    assert np.float64(refit).tobytes() == np.float64(model.thresh).tobytes()
    path = str(tmp_path / "m.occ")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.tspec == tspec
    assert np.float64(loaded.thresh).tobytes() == np.float64(model.thresh).tobytes()
    assert loaded.train_errors is None
    np.testing.assert_allclose(
        score_model(loaded, rows).score, errors, rtol=SCORE_RTOL, atol=SCORE_ATOL
    )


@pytest.mark.parametrize("train", [train_boundary, train_reconstruction])
def test_rejection_fraction_only_through_spec(train):
    """Arguments after tspec are keyword-only, and there is no fracrej
    keyword: an old positional fracrej cannot become the seed."""
    X = np.random.default_rng(6).normal(0.0, 1.0, (20, 3))
    with pytest.raises(TypeError):
        train(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"), 0.3)
    with pytest.raises(TypeError):
        train(X, rbf_kernel(1.0), 1.0, ThresholdSpec("thr1"), fracrej=0.3)
