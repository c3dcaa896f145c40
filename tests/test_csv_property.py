"""Property test: write_csv followed by load_csv gives back every bit of
any finite matrix, with and without labels and feature names."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from occelm.dataset import Dataset, load_csv, write_csv


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def datasets(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 5))
    samples = draw(
        arrays(np.float64, (rows, cols), elements=st.floats(allow_nan=False, allow_infinity=False))
    )
    labels = None
    if draw(st.booleans()):
        labels = draw(arrays(np.bool_, rows))
    names = None
    if draw(st.booleans()):
        # the documented header rule: a first line is names when one of its
        # feature cells is not a number; cells are read back stripped
        name = st.text(min_size=1, max_size=8).filter(lambda t: t == t.strip())
        names = draw(st.lists(name, min_size=cols, max_size=cols))
        if all(_is_number(n) for n in names):
            names[0] = "f"
    return Dataset(samples, labels, names)


@settings(max_examples=200, deadline=None)
@given(data=datasets())
def test_round_trip_is_bit_exact(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    write_csv(data, path)
    back = load_csv(path, label_column=-1 if data.labels is not None else None)
    assert back.samples.shape == data.samples.shape
    np.testing.assert_array_equal(
        back.samples.view(np.uint64), data.samples.view(np.uint64)
    )
    if data.labels is None:
        assert back.labels is None
    else:
        np.testing.assert_array_equal(back.labels, data.labels)
    assert back.feature_names == data.feature_names
