"""Guard for the benchmark tracer: perfbench/spans.py patches occelm
functions by module attribute (its SITES table), so renaming or moving one
of them silently breaks a traced benchmark run. The tracer file is
compiled from source here, never imported, so no bytecode is written
next to it."""

import numpy as np

from conftest import perfbench_module

from occelm.bench import VARIANTS, choose_params


def test_every_site_resolves_to_a_function():
    spans = perfbench_module("spans")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.SITES
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_traced_selection_matches_untraced():
    """The tracer wraps the selection scanner as counted(params, rows):
    select must call it with exactly two positional arguments, and the
    traced scan must choose what the untraced one chooses."""
    spans = perfbench_module("spans")
    Xz = np.random.default_rng(2).normal(0.0, 1.0, (40, 3))
    for vid in ("ockelm_thr1", "aaelm_thr3"):
        plain = choose_params(VARIANTS[vid], Xz, seed=1)
        rec = spans.Recorder()
        with rec.cycle(), spans.traced(rec):
            traced = choose_params(VARIANTS[vid], Xz, seed=1)
        assert traced[0] == plain[0]
        assert [(p.params, p.consistent) for p in traced[1].points] == [
            (p.params, p.consistent) for p in plain[1].points
        ]
        np.testing.assert_array_equal(
            [p.rejection for p in traced[1].points],
            [p.rejection for p in plain[1].points],
        )
        assert rec.counts[-1]["modelsel.trainer_calls"] > 0
