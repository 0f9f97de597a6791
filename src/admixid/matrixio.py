"""Delimited matrix files: comma-separated values, no header, LF line ends.

Floats are written with 17 significant digits so a write/read round trip
reproduces every double bit-for-bit. Parse failures, including a cell
holding nan or inf, report 1-based line and column positions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ParseError", "ShapeError", "read_matrix", "write_matrix"]


class ParseError(ValueError):
    """A cell failed to parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ShapeError(ValueError):
    """Rows of the file have inconsistent lengths, or the file is empty."""


def read_matrix(path) -> np.ndarray:
    """Read a 2-D float matrix from a comma-separated file; every cell must be finite."""
    rows: list[list[float]] = []
    line_nos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = []
            for col_no, cell in enumerate(line.split(","), start=1):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"cannot parse {cell.strip()!r} as a number", line_no, col_no
                    ) from None
            rows.append(row)
            line_nos.append(line_no)
    if not rows:
        raise ShapeError(f"{path}: no rows found")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ShapeError(
                f"{path}: row {i} has {len(row)} cells, expected {width}"
            )
    arr = np.array(rows, dtype=float)
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(
            f"{float(arr[i, j])!r} is not a finite number", line_nos[i], j + 1
        )
    return arr


def write_matrix(path, values) -> None:
    """Write a 2-D matrix as comma-separated values with LF line ends."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ShapeError("write_matrix expects a 2-D array")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in arr:
            fh.write(",".join(f"{x:.17g}" for x in row))
            fh.write("\n")
