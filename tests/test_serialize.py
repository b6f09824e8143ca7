import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concertq import serialize
from concertq.serialize import csv_rows, fmt

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


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


@given(st.lists(_FINITE, max_size=200), st.lists(_FINITE, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_csv_rows_matches_per_cell_format(values, pool):
    # a free column, one drawn from a few values and a one-value column
    free = np.asarray(values, dtype=float)
    few = np.resize(np.asarray(pool, dtype=float), free.size)
    one = np.full(free.size, pool[0])
    ids = np.arange(free.size) % 3 - 1
    text = csv_rows(["i", "x", "y", "z"], [ids, free, few, one])
    rows = zip(ids.tolist(), free.tolist(), few.tolist(), one.tolist())
    expected = ["i,x,y,z"] + [
        f"{i},{format(x, '.17g')},{format(y, '.17g')},{format(z, '.17g')}" for i, x, y, z in rows
    ]
    assert text == "\n".join(expected) + "\n"


def test_csv_rows_keeps_the_sign_of_zero():
    column = np.array([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324])
    tiny = "4.9406564584124654e-324"
    assert csv_rows(["x"], [column]) == f"x\n0\n-0\n0\n-0\n{tiny}\n-{tiny}\n"


def test_csv_cells_share_one_string_per_distinct_value():
    values = np.array([0.5, 0.25, 0.5, -0.0, 0.25, 0.0])
    cells = serialize._distinct_text(values, values.view(np.int64), ".17g")
    assert cells == [format(x, ".17g") for x in values.tolist()]
    assert cells[0] is cells[2] and cells[1] is cells[4]
    assert cells[3] is not cells[5]


def test_write_csv_writes_the_text_of_one_csv_rows_call_in_blocks(monkeypatch):
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 5)
    header = ["i", "s", "x"]
    columns = [np.arange(12), np.array(list("abcdefghijkl"), dtype=object), np.linspace(0.0, 1.0, 12)]
    whole = csv_rows(header, columns)
    for with_header, want in ((True, whole), (False, whole.removeprefix("i,s,x\n"))):
        out = io.StringIO()
        serialize.write_csv(out, header, columns, with_header=with_header)
        assert out.getvalue() == want
    out = io.StringIO()
    serialize.write_csv(out, ["t", "v"], [np.array([]), np.array([])])
    assert out.getvalue() == "t,v\n"


def test_write_csv_refuses_a_non_finite_value_before_the_first_block(monkeypatch):
    # a bad value in a later block of an earlier column than another bad value
    # in the first block: csv_rows of the whole table names the first column's
    # value, and so must the writer, with nothing written
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 5)
    x, y = np.linspace(0.0, 1.0, 12), np.linspace(1.0, 2.0, 12)
    x[8], y[1] = math.inf, math.nan
    header, columns = ["i", "x", "y"], [np.arange(12), x, y]
    with pytest.raises(ValueError) as whole:
        csv_rows(header, columns)
    out = io.StringIO()
    with pytest.raises(ValueError) as blocks:
        serialize.write_csv(out, header, columns)
    assert str(blocks.value) == str(whole.value) == "cannot serialize non-finite number inf"
    assert out.getvalue() == ""


def test_write_csv_refuses_ragged_columns_before_the_first_block(monkeypatch):
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 5)
    out = io.StringIO()
    with pytest.raises(ValueError):
        serialize.write_csv(out, ["q", "x"], [np.arange(12), np.zeros(11)])
    assert out.getvalue() == ""
