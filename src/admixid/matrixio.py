"""Delimited matrix files: comma-separated values, no header, LF line ends.

Floats are written with 17 significant digits so a write/read round trip
reproduces every double bit-for-bit.

A file of at least _PLAIN_MIN_BYTES whose cells are all plain decimals
(`-?digits[.digits][(e|E)[+-]?digits]`, no spaces, LF line ends, rows of
equal length, no blank line) is read in blocks of whole lines: numpy's
integer parser reads each cell's digits and exponent, and one long-double
division or multiplication by a power of ten gives the double that float()
gives. This path needs np.longdouble to be the x87 80-bit type (x86-64).
Every other file goes to np.loadtxt; one it fails on, finds empty or not
finite goes to a line loop of float() calls, which reports the 1-based line
and column of the error.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings

import numpy as np

__all__ = ["ParseError", "ShapeError", "read_matrix", "write_matrix"]

# The x87 80-bit long double, in 16 bytes with its 64-bit significand first: it holds
# every |D| < 10**18 and every 10**k with k <= 27 (5**27 < 2**64) exactly, so D / 10**k
# and D * 10**k are rounded once.
_LONG_ONE = np.longdouble(1).tobytes()
_PLAIN_PATH = (
    np.finfo(np.longdouble).nmant == 63
    and len(_LONG_ONE) == 16
    and _LONG_ONE[:10] == (0x3FFF << 64 | 1 << 63).to_bytes(10, "little")
)
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
# below this size np.loadtxt is the faster reader: the two tie at 8-10 KB of %.17g cells
# (2-core x86-64 VM, numpy 2.4)
_PLAIN_MIN_BYTES = 10240
# a block holds about this many cells (about 110 bytes of temporaries each), or fewer
_BLOCK_CELLS = 2048
_BLOCK_BYTES = 65536

# the non-digit bytes of a plain decimal; a separator is a comma or a newline, an
# exponent mark "e" or "E", and a sign straight after the mark is the exponent's
_COMMA, _NEWLINE, _MINUS, _DOT, _EXP, _EXP_SIGN, _OTHER = range(7)
_STATES = 2 * 7  # (code, digits before it?)
_SEP = slice(_COMMA, _NEWLINE + 1)
_STATE = np.full(256, 2 * _OTHER)  # 2 * code, by byte
_STATE[list(b",\n-.eE+")] = 2 * np.array([_COMMA, _NEWLINE, _MINUS, _DOT, _EXP, _EXP, _EXP_SIGN])
# which non-digit may follow which, by (code, digits just before it?) of each: every
# cell reads -?digits[.digits][(e|E)[+-]?digits], with at least one digit before the
# exponent and one in it, and ends at a separator
_FOLLOWS = np.zeros((7, 2, 7, 2), bool)
_FOLLOWS[_SEP, :, _SEP, 1] = True  # a cell of digits only
_FOLLOWS[_SEP, :, _MINUS, 0] = True  # "-" opens a cell
_FOLLOWS[_SEP, :, _DOT, :] = True  # so may "."
_FOLLOWS[_MINUS, :, _SEP, 1] = True  # "-" and digits
_FOLLOWS[_MINUS, :, _DOT, :] = True
_FOLLOWS[_DOT, 1, _SEP, :] = True  # digits before the "." ...
_FOLLOWS[_DOT, 0, _SEP, 1] = True  # ... or after it
_FOLLOWS[:, :, _EXP, :] = _FOLLOWS[:, :, _COMMA, :]  # the mark ends digits as "," does
_FOLLOWS[_EXP, :, _EXP_SIGN, 0] = True
_FOLLOWS[_EXP:_EXP_SIGN + 1, :, _SEP, 1] = True  # the exponent's digits
_FOLLOWS = _FOLLOWS.ravel()  # index: _STATES * state before + state, state = 2 * code + digits


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
    if _PLAIN_PATH and os.stat(path).st_size >= _PLAIN_MIN_BYTES:
        with open(path, "rb") as fh:
            arr = _read_plain_decimal(fh)
        if arr is not None:
            return arr
    rows: list[list[float]] = []
    line_nos: list[int] = []
    # a byte that is not UTF-8 decodes to a lone surrogate, which no cell parse accepts
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        with contextlib.suppress(ValueError), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: the ShapeError below
            arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            if arr.size and np.isfinite(arr).all():
                return arr
        fh.seek(0)
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.split(",")
            try:
                rows.append(list(map(float, cells)))
            except ValueError:
                # rescan the failed line for the position of its first bad cell
                for col_no, cell in enumerate(cells, start=1):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(_cell_error(cell), line_no, col_no) from None
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


def _cell_error(cell: str) -> str:
    """Why float() refused the cell."""
    try:
        cell.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(cell[exc.start]) - 0xDC00  # undo the surrogate escape
        return f"byte 0x{byte:02x} is not UTF-8"
    return f"cannot parse {cell.strip()!r} as a number"


def _read_plain_decimal(fh) -> np.ndarray | None:
    """The matrix of a binary file of plain decimals, or None if it holds anything else."""
    rows, last, exponents = 0, b"\n", False
    while chunk := fh.read(_BLOCK_BYTES):
        b = np.frombuffer(chunk, np.uint8)
        if b.max() > ord("9"):  # an exponent mark, another letter or a non-ASCII byte
            if np.count_nonzero(b > ord("9")) != chunk.count(b"e") + chunk.count(b"E"):
                return None
            exponents = True
        rows += np.count_nonzero(b == ord("\n"))
        last = chunk[-1:]
    rows += last != b"\n"
    fh.seek(0)
    width = fh.readline().count(b",") + 1
    out = np.empty((rows, width))
    flat = out.reshape(-1)
    # the first block: about _BLOCK_CELLS cells at the first line's bytes per cell, and at
    # least that line
    block_bytes = max(fh.tell(), min(_BLOCK_BYTES, _BLOCK_CELLS * fh.tell() // width))
    fh.seek(0)
    pos = 0
    while data := fh.read(block_bytes):
        lines = data.rfind(b"\n") + 1  # the bytes of whole lines
        if not lines and len(data) == block_bytes:  # a line longer than the block
            fh.seek(-len(data), os.SEEK_CUR)
            block_bytes *= 2
            continue
        if lines:
            fh.seek(lines - len(data), os.SEEK_CUR)
        else:  # the last line, without a newline
            data, lines = data + b"\n", len(data) + 1
        n = _parse_block(
            data, lines, width, flat[pos:], exponents and (b"e" in data or b"E" in data)
        )
        if n is None:
            return None
        pos += n
        # about _BLOCK_CELLS cells next, at this block's bytes per cell
        block_bytes = min(_BLOCK_BYTES, _BLOCK_CELLS * lines // n)
    return out if pos == flat.size else None


def _parse_block(
    data: bytes, lines: int, width: int, out: np.ndarray, exponents: bool
) -> int | None:
    """Write the cells in the first `lines` bytes of data to the head of out; their
    count, or None if they are not plain decimals. Only with exponents may a cell hold
    an exponent.

    Every byte is at most "9" or an exponent mark: _read_plain_decimal checked the
    file. Each array is freed when done with, so that few are alive at once; the
    arithmetic is on int64 and long doubles, whose numpy loops the rest of the program
    has already paged in."""
    b = np.frombuffer(data, np.uint8, lines)
    # every non-digit byte, in order (in uint8 a byte below "0" wraps round above 9)
    at = np.flatnonzero(b - ord("0") > 9 if exponents else b < ord("0"))
    kind = b[at]
    gap = at.copy()  # digits just before each non-digit
    gap[1:] -= at[:-1] + 1
    state = _STATE[kind]
    if exponents:
        # each exponent mark, and a "-" straight after one is the exponent's sign (one
        # with digits between is declined); a mark is never the block's last non-digit
        marks = np.flatnonzero(kind > ord("9"))
        state[marks[kind[marks + 1] == ord("-")] + 1] = 2 * _EXP_SIGN
    state += gap > 0
    if not (
        _FOLLOWS[_STATES * 2 * _NEWLINE + state[0]]  # the block follows a newline
        and _FOLLOWS[_STATES * state[:-1] + state[1:]].all()
    ):
        return None
    seps = np.flatnonzero(state < 2 * _MINUS)
    n = len(seps)
    # a row too short or too long shows either here or in the cell count of the file
    if n > len(out) or not (kind[seps[width - 1::width]] == ord("\n")).all():
        return None
    # a cell's digits stop at its separator, or at its exponent mark; the digits after a
    # cell's "." are those before the stop (at seps[0] - 1 sits the block's last newline)
    stop = seps
    if exponents:
        expd = np.searchsorted(seps, marks)  # the cells with an exponent, in order
        stop = seps.copy()
        stop[expd] = marks
    shift = gap[stop] * (kind[stop - 1] == ord("."))
    ends = at[seps]
    del at, kind, gap, state, stop
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1

    text = data.replace(b".", b"").replace(b"\n", b",")
    if exponents:
        # the marks turn into separators, so each exponent is one more token: the one
        # after its cell's digits, which the exponents before it have moved on by as many
        text = text.replace(b"e", b",").replace(b"E", b",")
        exps = expd + np.arange(1, len(expd) + 1)
        digits = np.fromstring(text, np.int64, count=n + len(expd), sep=",")
        shift[expd] -= digits[exps]
        digits = np.delete(digits, exps)
    else:
        digits = np.fromstring(text, np.int64, count=n, sep=",")
    del text, seps
    # r = D / 10**shift, or D * 10**-shift where shift < 0 (a cell with an exponent)
    r = digits.astype(np.longdouble)
    r /= _POW10.take(shift, mode="clip")
    if exponents:
        up = expd[shift[expd] < 0]
        r[up] *= _POW10.take(-shift[up], mode="clip")
    cells = out[:n]
    cells[...] = r
    # r rounds to the double nearest D * 10**-shift unless r lies exactly halfway between
    # two doubles, where the low 11 of its 64 significand bits read 0x400 (halfway just
    # below a power of two included). Below 10**18 and with |shift| <= 27, |r| is 0 or
    # above 1e-27, so no double here is subnormal. numpy's parser saturates a cell or an
    # exponent beyond int64, and a shift past int64 wraps to below -27.
    redo = (r.view(np.int64)[::2] % 2048 == 0x400) | (shift > 27)
    if exponents:
        redo[up] |= shift[up] < -27
    redo |= (digits >= 10**18) | (digits <= -(10**18))
    redo |= (digits == 0) & (b[starts] == ord("-"))  # -0
    for i in np.flatnonzero(redo):
        cells[i] = float(data[starts[i]:ends[i]])
        if not math.isfinite(cells[i]):
            return None
    return n


def write_matrix(path, values) -> None:
    """Write a 2-D matrix as comma-separated values with LF line ends."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ShapeError("write_matrix expects a 2-D array")
    fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(fmt % tuple(row) for row in arr.tolist()))
