import math

import numpy as np
import pytest

from concertq.serialize import csv_rows, fmt


def test_csv_rows_formats_each_column_by_type():
    floats = np.array([0.1, -0.0, 1e300, 2.0])
    text = csv_rows(
        ["i", "s", "x"], [np.array([1, 2, 3, 4]), ["a", "b", "c", "d"], floats]
    )
    expected = ["i,s,x"] + [f"{i},{s},{fmt(x)}" for i, s, x in zip((1, 2, 3, 4), "abcd", floats)]
    assert text == "\n".join(expected) + "\n"
    assert text.splitlines()[1] == "1,a,0.10000000000000001"


def test_csv_rows_header_only_for_empty_columns():
    assert csv_rows(["t", "v"], [np.array([]), np.array([])]) == "t,v\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_rows_rejects_non_finite_cells(bad):
    with pytest.raises(ValueError, match="cannot serialize non-finite number"):
        csv_rows(["q", "x"], [[1, 2], np.array([0.5, bad])])


def test_csv_rows_rejects_ragged_columns():
    with pytest.raises(ValueError):
        csv_rows(["q", "x"], [[1, 2], np.array([0.5])])
