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

write_matrix writes each cell as "%.17g" % x, and _json_rows a report's
matrices as json.dumps writes them (repr(x)). From _G17_MIN_CELLS and
_REPR_MIN_CELLS cells on, unless two thirds of them are whole numbers, and on
the same x87 platform, one vectorized pass over blocks of cells does it,
under this certificate. A finite normal cell with decimal exponent e is
scaled to s = |x| * 10**(16 - e) by one long-double multiplication or
division by an exact 10**|k|, |k| <= 27, so s is within half a 64-bit ulp,
at most 2**-64 s, of its exact value. Its 17 digits are D = rint(s) unless s
lies outside [1e16, 1e17) (e from log10 was off by one) or within that bound
of a tie. For repr, the integers c with
s - h_below < c < s + h read back as x, h = 2**(E - 54) * 10**(16 - e) being
half an ulp of x in units of s (h_below = h / 2 at a power of two, whose
lower neighbour is nearer); the shortest is the multiple of 100 among them if
there is one (there is at most one), else the multiple of 10 nearest to s,
else D, unless an end of the interval lies within the bound of an integer.
Python formats whatever the certificate leaves: those cells, and the
subnormal, non-finite and out-of-range ones (0 is exact). Each cell is laid
out in a fixed-width field of NUL-padded bytes, and one bytes.translate
deletes the NULs.
"""

from __future__ import annotations

import contextlib
import json
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
# a block holds about _BLOCK_CELLS cells, or fewer, so that its 45 or so numpy calls
# are few beside its per-cell work. Its temporaries take about 115 bytes a cell (0.93
# MB traced at 8192 cells of %.17g text), so a file of fewer than 8 * _BLOCK_CELLS
# cells takes blocks of an eighth of its cells, and at least _BLOCK_CELLS // 4: the
# temporaries stay under twice the matrix the file fills (8 bytes a cell), which
# recovery holds too, or at 0.24 MB
_BLOCK_CELLS = 8192
_BLOCK_BYTES = 262144
# the first pass's chunks: with one bool a byte, 128 KiB of temporaries, and faster than
# 256 KiB chunks (1.1 against 1.4 ms for the bench's four largest P files)
_SCAN_BYTES = 65536

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

# the writer's 10**-27 ... 10**27 as doubles, within an ulp
_POW10_F = np.concatenate([1 / _POW10[:0:-1], _POW10]).astype(float)  # index k + 27
_MIN_NORMAL = np.finfo(float).tiny
_MAX_FLOAT = np.finfo(float).max
# below these cell counts "%.17g" % row and json.dumps are the faster writers (_vectorized)
_G17_MIN_CELLS = 512
_REPR_MIN_CELLS = 640
# a block's largest temporaries, its text fields (at most 40 bytes a cell) and the
# long doubles (16), stay under 128 KiB
_TEXT_BLOCK_CELLS = 3072
# a cell's field: its sign and "0.000" prefix (7 bytes), 17 digits and a point (18), the
# exponent (4); _BODY bytes in all, then its separator, padded to a multiple of 8
_BODY = 29
_q = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_chars = (_q + ord("0")).astype(np.uint8)
_kept = np.flip(np.logical_or.accumulate(np.flip(_q != 0, 1), 1), 1)
# four digits in a uint32: rows 0-9999 in full, rows 10000-19999 with trailing zeros NUL
_DIGIT_GROUPS = np.concatenate([_chars, _chars * _kept]).view(np.uint32).ravel()
del _q, _chars, _kept
_ZEROS = np.tri(18, 17, -1, np.uint8) * np.uint8(ord("0"))  # row m: m zeros
_BEFORE = np.tri(17, 18, 0, bool)  # row P: the bytes up to index P
_SIGN_PREFIX = np.zeros((2, 6, 8), np.uint8)
_SIGN_PREFIX[1, :, 0] = ord("-")
_SIGN_PREFIX[:, :, 1:6] = np.tri(6, 5, -1, np.uint8) * np.frombuffer(b"0.000", np.uint8)
_SIGN_PREFIX = _SIGN_PREFIX.view(np.uint64).ravel()  # index: 6 * negative + prefix length
_PREFIX_LENGTH = np.array([0, 5, 4, 3, 2, 0])  # of "0.000" by exponent, from -5 to 0
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


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
    while chunk := fh.read(_SCAN_BYTES):
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
    block_cells = min(_BLOCK_CELLS, max(_BLOCK_CELLS // 4, flat.size // 8))
    # the first block: about block_cells cells at the first line's bytes per cell, and at
    # least that line
    block_bytes = max(fh.tell(), min(_BLOCK_BYTES, block_cells * fh.tell() // width))
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
        # about block_cells cells next, at this block's bytes per cell
        block_bytes = min(_BLOCK_BYTES, block_cells * lines // n)
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
    state = _STATE.take(kind)  # take, as indexing with a uint8 array is slower
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
    redo = ((r.view(np.int64)[::2] & 0x7FF) == 0x400) | (shift > 27)
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
    if _vectorized([arr], _G17_MIN_CELLS):
        with open(path, "wb") as fh:
            fh.writelines(_float_text([arr], (b",", b"\n", b"\n"), shortest=False))
        return
    fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(fmt % tuple(row) for row in arr.tolist()))


def _json_rows(matrices: list) -> list[str]:
    """json.dumps(m.tolist())[2:-2] of each nonempty 2-D float matrix: its rows, cells
    joined by ", " and rows by "], [", without the outer brackets."""
    if _vectorized(matrices, _REPR_MIN_CELLS):
        text = b"".join(_float_text(matrices, (b", ", b"], [", b"\n"), shortest=True))
        return text.decode("ascii").split("\n")[:-1]
    return [json.dumps(m.tolist())[2:-2] for m in matrices]


def _vectorized(matrices: list, min_cells: int) -> bool:
    """Whether the vectorized writer pays: from min_cells cells on, unless two thirds
    of them or more are whole numbers, which Python writes in a few digits and fast."""
    size = sum(m.size for m in matrices)
    if not (_PLAIN_PATH and size >= min_cells):
        return False
    with np.errstate(invalid="ignore"):  # rint of nan
        whole = sum(np.count_nonzero(m == np.rint(m)) for m in matrices)
    return 3 * whole < 2 * size


def _float_text(matrices: list, seps: tuple, shortest: bool):
    """The cells of the nonempty matrices in blocks of text: each cell as "%.17g" % x,
    or as json.dumps(x) when shortest, followed by seps[0], by seps[1] at a row end and
    by seps[2] at a matrix end."""
    flat = np.concatenate([np.ravel(m) for m in matrices])
    code = np.zeros(flat.size, np.uint8)
    end = 0
    for m in matrices:
        start, end = end, end + m.size
        code[start + m.shape[1] - 1:end:m.shape[1]] = 1
        code[end - 1] = 2
    width = max(map(len, seps))
    table = np.frombuffer(b"".join(s.ljust(width, b"\0") for s in seps), np.uint8)
    table = table.reshape(3, width)
    for i in range(0, flat.size, _TEXT_BLOCK_CELLS):
        block = slice(i, i + _TEXT_BLOCK_CELLS)
        yield _format_block(flat[block], code[block], table, shortest)


def _format_block(x: np.ndarray, code: np.ndarray, seps: np.ndarray, shortest: bool) -> bytes:
    """The text of the cells x, each followed by its separator seps[code]."""
    n = len(x)
    zero = x == 0
    D, X, ok = _decimal_digits(x, shortest)
    D[zero] = 0
    X[zero] = 0
    # X is the decimal exponent: plain notation from 1e-4 up to 1e17 ("%.17g") or 1e16
    # (repr), with the point after the digit at index X, and repr writes x.0
    plain = (X >= -4) & (X < 17 - shortest)
    point = np.where(plain, X, 0)
    out = np.zeros((n, -(-(_BODY + seps.shape[1]) // 8) * 8), np.uint8)
    # bytes 0-6: the sign, then "0." and up to three zeros before the digits of a cell
    # below 1; byte 7: D's first digit; bytes 8-23: its other 16, as four groups of four
    out.view(np.uint64)[:, 0] = _SIGN_PREFIX.take(
        _PREFIX_LENGTH.take(X + 5, mode="clip") + 6 * np.signbit(x)
    )
    high = D // 10**8
    low = D - high * 10**8
    groups = np.empty((4, n), np.uint32)  # the last group first
    groups[1] = low // 10**4
    groups[0] = low - groups[1] * 10**4
    groups[3] = high // 10**4
    groups[2] = high - groups[3] * 10**4
    np.add(groups[3] // 10**4, ord("0"), out=out[:, 7], casting="unsafe")
    groups[3] %= 10**4
    # a group with only zeros after it takes the table row that turns its trailing
    # zeros into NUL
    zeros_after = groups[:3] == 0
    zeros_after[1] &= zeros_after[0]
    zeros_after[2] &= zeros_after[1]
    groups[1:] += zeros_after * np.uint32(10000)
    groups[0] += 10000
    out.view(np.uint32)[:, 2:6] = _DIGIT_GROUPS.take(groups)[::-1].T
    digits = out[:, 7:25]
    whole = np.flatnonzero(plain & (X >= 0))
    if len(whole):
        digits[whole, :17] |= _ZEROS.take(X[whole] + 1 + shortest, axis=0)
    # a point where a digit follows it: the digits after it move one byte on
    dot = np.flatnonzero((point >= 0) & (point < 16))
    dot = dot[digits[dot, point[dot] + 1] != 0]
    if len(dot):
        at = point[dot]
        shifted = np.zeros((len(dot), 19), np.uint8)
        shifted[:, 1:] = digits[dot]
        field = np.where(_BEFORE.take(at, axis=0), shifted[:, 1:], shifted[:, :18])
        field[np.arange(len(dot)), at + 1] = ord(".")
        digits[dot] = field
    # bytes 25-28: the exponent, "e" and a sign and two digits (|X| < 100 here)
    sci = np.flatnonzero(~plain)
    if len(sci):
        exp = X[sci]
        text = _DIGIT_GROUPS.take(np.abs(exp)).view(np.uint8).reshape(-1, 4).copy()
        text[:, 0] = ord("e")
        text[:, 1] = np.where(exp < 0, ord("-"), ord("+"))
        out[sci, 25:29] = text
    out[:, _BODY:_BODY + seps.shape[1]] = seps.take(code, axis=0)
    fallback = np.flatnonzero(~(ok | zero))
    if len(fallback):
        cells = x[fallback].tolist()
        if shortest:
            cells = json.dumps(cells)[1:-1].split(", ")
        fmt = f"%-{_BODY}s" if shortest else f"%-{_BODY}.17g"
        pad = (fmt * len(cells) % tuple(cells)).encode("ascii").translate(_SPACE_TO_NUL)
        out[fallback, :_BODY] = np.frombuffer(pad, np.uint8).reshape(-1, _BODY)
    return out.tobytes().translate(None, b"\0")


def _decimal_digits(x: np.ndarray, shortest: bool):
    """(D, X, ok): where ok, |x| reads D * 10**(X - 16) with D in [10**16, 10**17),
    rounded to 17 significant digits, or to the fewest that read back as x (trailing
    zeros after them) when shortest."""
    a = np.abs(x)
    ok = (a >= _MIN_NORMAL) & (a <= _MAX_FLOAT)  # neither 0, subnormal nor inf or nan
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)  # may be off by one next to a power of 10
    k = 16 - e
    s = a.astype(np.longdouble) * _POW10.take(k, mode="clip")
    if k.min() < 0:
        s /= _POW10.take(-k, mode="clip")
    rounded = np.rint(s)
    # s outside [1e16, 1e17) means e was off by one; s == 1e16 is exact, since no double
    # next to a power of ten comes within 2**-10 of it in these units (test_io)
    ok &= (s >= 1e16) & (s < 1e17)
    delta = (rounded - s).astype(float)  # D - s: exact, then rounded to 53 bits
    s = s.astype(float)
    d = np.abs(delta)
    # s is within half an ulp of |x| * 10**k, at most 2**(E - 65) for s below 2**E (and
    # the copies in doubles are off by much less than 2**-47)
    bound = np.ldexp(1.0, np.frexp(s)[1] - 65) + 2.0**-47
    ok &= (np.abs(k) <= 27) & (0.5 - d > bound)
    D = D_17 = np.where(ok, rounded, 0).astype(np.int64)
    X = e + (D == 10**17)
    if shortest:
        # the integers c with s - h_below < c < s + h read back as x: h is half an ulp of
        # x in units of s, and h_below is h/2 at a power of two, where the spacing below
        # is half the spacing above. Of them, the shortest is a multiple of 100 if one
        # lies within (there is at most one), else the multiple of 10 nearest to s if
        # one lies within, else D; its trailing zeros are dropped when it is laid out.
        frac, E = np.frexp(a)
        h = np.ldexp(_POW10_F.take(k + 27, mode="clip"), E - 54)
        h_below = np.where(frac == 0.5, h / 2, h)
        lo = delta + h_below  # D - (s - h_below)
        hi = h - delta  # (s + h) - D
        below = np.floor(lo)
        above = np.floor(hi)
        # D lies within, as h_below > 0.55 (h > s * 2**-54); neither end may lie within
        # the bound of an integer
        half = 0.5 - bound
        ok &= (np.abs(lo - below - 0.5) < half) & (np.abs(hi - above - 0.5) < half)
        with np.errstate(invalid="ignore"):  # cells not ok may be far from any int64
            H = D + above.astype(np.int64)
            room = (below + above).astype(np.int64)  # the candidates are H - room ... H
        r1 = H - H // 10 * 10
        r2 = H - H // 100 * 100
        D = np.where(r2 <= room, H - r2, np.where(r1 <= room, H - r1, D))
        two = np.flatnonzero((r1 + 10 <= room) & (r2 > room))  # two multiples of 10
        if len(two):
            off = (D[two] - D_17[two]) + delta[two]  # the upper one minus s
            ok[two[np.abs(off - 5) <= bound[two]]] = False
            D[two] -= 10 * (off > 5)
        D = np.where(ok, D, 0)  # no digits of any size from the cells left to Python
        X = e + (D == 10**17)
    D[D == 10**17] = 10**16
    return D, X, ok
