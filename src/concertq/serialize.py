"""Deterministic JSON/CSV emission.

Floats are printed with 17 significant digits so that repeated runs with the
same inputs produce byte-identical artifacts and round-trip exactly.  Only
``csv_rows`` and ``write_csv`` import numpy, so ``fmt``, ``to_json``,
``column_cells`` and ``write_columns`` run without it.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, filterfalse, repeat
from typing import Any  # numpy arrays: this module imports numpy only when called

# rows per csv_rows call of write_csv, which bounds the text built at once
CSV_BLOCK_ROWS = 8192


def fmt(x: float) -> str:
    """17-significant-digit representation of a float (exact round trip)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    xf = float(x)
    if math.isnan(xf) or math.isinf(xf):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(xf, ".17g")


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt(obj))
    elif isinstance(obj, str):
        out.append(
            '"'
            + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            + '"'
        )
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(k, str):
                k = str(k)
            _emit(k, out)
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """Serialize nested dicts/lists/scalars with 17-digit floats."""
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def column_cells(column) -> map:
    """The text of every value of a compact column (int64 or float64, its
    buffer format "q" or "d"): ints by ``str``, floats as ``fmt`` writes them
    (its callers refuse non-finite ones).  Each distinct value is formatted
    once, a float keyed on its bit pattern (so -0.0 keeps its own text)."""
    keys = memoryview(column).cast("B").cast("q")
    spec = "" if memoryview(column).format == "q" else ".17g"
    texts = {key: format(x, spec) for key, x in dict(zip(keys, column)).items()}
    return map(texts.__getitem__, keys)


def write_columns(out, header: list[str], columns) -> None:
    """``write_csv`` of equal-length columns without numpy: compact columns
    (``array.array``s of int64 or float64), each block's cells by
    ``column_cells``, and lists of strings, written as they are.  The first
    non-finite value, in column order, is refused before any write."""
    numeric = [column for column in columns if isinstance(column, array)]
    for x in filterfalse(math.isfinite, chain(*numeric)):
        fmt(x)
    out.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [column[start:start + CSV_BLOCK_ROWS] for column in columns]
        rows = zip(*(column_cells(c) if isinstance(c, array) else c for c in block))
        out.write("\n".join(map(",".join, rows)) + "\n")


def _distinct_text(values: Any, key: Any, spec: str) -> list[str]:
    """``format(x, spec)`` of every value, as references to one string per
    distinct ``key``: keys are sorted, the first of each run of equal keys
    marks a distinct value, and a scatter of the run numbers maps every cell
    back to its string.  Each distinct value is formatted once."""
    import numpy as np
    order = np.argsort(key)
    ranked = key[order]
    new = np.empty(ranked.shape, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    inverse = np.empty(ranked.shape, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    distinct = values[order[new]].tolist()
    texts = np.array(list(map(format, distinct, repeat(spec, len(distinct)))), dtype=object)
    return texts[inverse].tolist()


def _finite(arr: Any) -> Any:
    """A float column as float64, refused if it holds a non-finite value
    (the error names its first one)."""
    import numpy as np
    arr = arr.astype(np.float64, copy=False)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite number {arr[~finite][0].item()!r}")
    return arr


def csv_rows(header: list[str], columns) -> str:
    """CSV text from equal-length columns.  A float column is checked once
    for non-finite values and formatted like fmt, an integer column like str,
    and any other column cell by cell through str.  A numeric column formats
    each distinct value once (a float keyed on its bit pattern, so -0.0 keeps
    its own text) and its cells share those strings."""
    import numpy as np
    cells = []
    for column in columns:
        arr = np.asarray(column)
        if arr.dtype.kind == "f":
            arr = _finite(arr)
            cells.append(_distinct_text(arr, arr.view(np.int64), ".17g"))
        elif arr.dtype.kind in "iu":
            cells.append(_distinct_text(arr, arr, ""))
        else:
            cells.append(map(str, column))
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells, strict=True)))
    # the text is the largest object here: let go of the cells before it is
    # built, and end it with an empty line rather than a second copy + "\n"
    del cells
    lines.append("")
    return "\n".join(lines)


def write_csv(out, header: list[str], columns, with_header: bool = True) -> None:
    """Write the text of ``csv_rows(header, columns)`` to the stream ``out``,
    without its header line unless ``with_header``.  The rows are formatted
    in blocks of at most ``CSV_BLOCK_ROWS``, each written before the next is
    built.  Every float column's values, then the columns' lengths, are
    checked before the first block, so a table that csv_rows refuses writes
    nothing (and a non-finite value is named as csv_rows names it)."""
    import numpy as np
    arrays = [np.asarray(column) for column in columns]
    for arr in arrays:
        if arr.dtype.kind == "f":
            _finite(arr)
    rows = len(arrays[0]) if arrays else 0
    if any(len(arr) != rows for arr in arrays):
        raise ValueError(f"columns of unequal lengths {[len(arr) for arr in arrays]}")
    # every block's text starts with the header line; only the first keeps it
    skip = len(",".join(header)) + 1
    cut = 0 if with_header else skip
    for start in range(0, max(rows, 1), CSV_BLOCK_ROWS):
        out.write(csv_rows(header, [arr[start:start + CSV_BLOCK_ROWS] for arr in arrays])[cut:])
        cut = skip
