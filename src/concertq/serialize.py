"""Deterministic JSON/CSV emission.

Floats are printed with 17 significant digits so that repeated runs with the
same inputs produce byte-identical artifacts and round-trip exactly.
"""

from __future__ import annotations

import math

import numpy as np


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
        # numpy scalars and similar
        if hasattr(obj, "item"):
            _emit(obj.item(), out)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """Serialize nested dicts/lists/scalars with 17-digit floats."""
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def csv_rows(header: list[str], columns) -> str:
    """CSV text from equal-length columns.  A float column is checked once
    for non-finite values and formatted like fmt; other cells go through
    str.  Cells are formatted row by row, so no column is held as strings."""
    cells = []
    for column in columns:
        arr = np.asarray(column)
        if arr.dtype.kind == "f":
            finite = np.isfinite(arr)
            if not finite.all():
                raise ValueError(f"cannot serialize non-finite number {arr[~finite][0].item()!r}")
            cells.append(format(x, ".17g") for x in arr.tolist())
        else:
            cells.append(map(str, column))
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells, strict=True)))
    return "\n".join(lines) + "\n"
