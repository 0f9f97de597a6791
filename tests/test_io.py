"""CSV matrix reading and writing."""

import contextlib
import functools
import io
import json
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admixid import ParseError, ShapeError, matrixio, read_matrix, write_matrix


def test_read_literal_matrix(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.5,0.25\n0.75,1\n")
    out = read_matrix(p)
    assert out.shape == (2, 2)
    assert np.array_equal(out, [[0.5, 0.25], [0.75, 1.0]])


def test_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(19)
    vals = rng.uniform(size=(7, 5))
    vals[0, 0] = 1.0 / 3.0
    vals[1, 1] = 1e-17
    vals[2, 2] = 0.1 + 0.2  # not exactly 0.3
    p = tmp_path / "m.csv"
    write_matrix(p, vals)
    back = read_matrix(p)
    # 17 significant digits reproduce every double exactly
    assert back.shape == vals.shape
    assert np.array_equal(back, vals)


def test_parse_error_reports_line_and_column(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\nx,3\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line == 2
    assert exc.value.column == 1
    assert "line 2, column 1" in str(exc.value)


def test_parse_error_mid_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2,3\n4,,6\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_parse_error_mid_row_after_blank_lines(tmp_path):
    p = tmp_path / "m.csv"
    # the two blank lines count towards the line number
    p.write_text("0.5,0.5,0.5,0.5\n\n\n0.5,0.25,1e-3x,0.5\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert (exc.value.line, exc.value.column) == (4, 3)
    assert "'1e-3x'" in str(exc.value)


def test_cells_parse_exactly_as_float(tmp_path):
    cells = [" 0.1 ", "\t2.5e-3", "1_000", "  -0.0", "0.30000000000000004"]
    p = tmp_path / "m.csv"
    p.write_bytes((",".join(cells) + "\r\n" + ",".join(reversed(cells)) + "\r\n").encode())
    out = read_matrix(p)
    want = np.array([[float(c) for c in cells], [float(c) for c in reversed(cells)]])
    assert out.tobytes() == want.tobytes()


def test_ragged_rows_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ShapeError, match="row 2"):
        read_matrix(p)
    # two 1-cell rows that pair up into one full row, in a file of the plain path's size
    lines = ["0.5,0.25"] * (matrixio._PLAIN_MIN_BYTES // 8)
    lines[-2:-1] = ["0.5", "0.25"]
    p.write_text("\n".join(lines) + "\n")
    if matrixio._PLAIN_PATH:
        with open(p, "rb") as fh:
            assert matrixio._read_plain_decimal(fh) is None
    with pytest.raises(ShapeError, match=f"row {len(lines) - 2} has 1 cells"):
        read_matrix(p)
    assert outcome(read_matrix, p) == outcome(oracle_read_matrix, p)


def test_empty_file_rejected(tmp_path):
    # numpy's "no data" warning on an empty file must not escape
    for text in ("", "\n\n", "  \n\t\n"):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="no rows"):
                read_matrix(p)


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("\n0.5,0.5\n\n0.25,0.75\n\n")
    out = read_matrix(p)
    assert np.array_equal(out, [[0.5, 0.5], [0.25, 0.75]])


def test_crlf_input_accepted(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"0.5,0.5\r\n0.25,0.75\r\n")
    out = read_matrix(p)
    assert np.array_equal(out, [[0.5, 0.5], [0.25, 0.75]])


def test_written_files_use_lf_only(tmp_path):
    p = tmp_path / "m.csv"
    write_matrix(p, np.array([[0.5, 0.25], [0.75, 1.0]]))
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw == b"0.5,0.25\n0.75,1\n"


def test_write_rejects_non_2d(tmp_path):
    with pytest.raises(ShapeError):
        write_matrix(tmp_path / "m.csv", np.arange(3.0))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN", "Infinity"])
def test_non_finite_cell_is_a_parse_error(tmp_path, cell):
    p = tmp_path / "m.csv"
    # the blank lines still count towards the reported line number
    p.write_text(f"\n0.5,0.25\n\n0.75,{cell}\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line == 4
    assert exc.value.column == 2
    assert "not a finite number" in str(exc.value)


def test_first_non_finite_cell_is_reported(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.5,0.5,0.5\n0.5,0.5,inf\nnan,0.5,0.5\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert (exc.value.line, exc.value.column) == (2, 3)


def test_write_bytes_match_the_per_cell_format(tmp_path):
    vals = np.array([[-0.0, 0.0, 1.0, 0.1], [5e-324, 1e-300, 1.2345678901234568e16, 1 / 3]])
    p = tmp_path / "m.csv"
    for arr in (vals, vals.T, vals[:1], vals[:, :1]):
        write_matrix(p, arr)
        want = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in arr)
        assert p.read_bytes() == want.encode()


# ---- read_matrix against the cell-by-cell parse ------------------------------

def oracle_read_matrix(path):
    """read_matrix as one line loop with float() per cell."""
    rows, line_nos = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.split(",")
            try:
                rows.append(list(map(float, cells)))
            except ValueError:
                for col_no, cell in enumerate(cells, start=1):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(
                            f"cannot parse {cell.strip()!r} as a number", line_no, col_no
                        ) from None
            line_nos.append(line_no)
    if not rows:
        raise ShapeError(f"{path}: no rows found")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ShapeError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    arr = np.array(rows, dtype=float)
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(f"{float(arr[i, j])!r} is not a finite number", line_nos[i], j + 1)
    return arr


GOOD_CELLS = ["0.5", " 0.25 ", "-0.0", "1e-300", "7", "0.30000000000000004", "\t2.5e-3"]
# float() accepts the underscore and the Arabic-Indic digit, numpy's parser does not
ODD_CELLS = ["1_0", "\u0663", "\ufeff0.5", "nan", "inf", "1e400", "", "#1", "0x1p3"]
FILLER_LINES = ["", "  ", "\t \x0c"]


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        # most lines hold well-formed cells only, so that numpy's parser reads many files
        odd = draw(st.integers(0, 11)) == 0
        cells = st.sampled_from(GOOD_CELLS + ODD_CELLS if odd else GOOD_CELLS)
        ragged = draw(st.integers(0, 19)) == 0
        n = draw(st.integers(1, 5)) if ragged else width
        line = ",".join(draw(st.lists(cells, min_size=n, max_size=n)))
        lines.append(line + ("," if draw(st.integers(0, 19)) == 0 else ""))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(FILLER_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def outcome(read, path):
    try:
        arr = read(path)
    except (ParseError, ShapeError) as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts())
def test_read_matrix_matches_the_cell_by_cell_parse(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    p.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(read_matrix, p)
    assert got == outcome(oracle_read_matrix, p)


# ---- non-UTF-8 input ----------------------------------------------------------

def test_non_utf8_byte_is_a_parse_error_at_its_cell(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"0.5,0.25\n\n0.75,0.5\xe9\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert (exc.value.line, exc.value.column) == (3, 2)
    assert str(exc.value) == "line 3, column 2: byte 0xe9 is not UTF-8"


def test_first_bad_cell_wins_over_a_later_non_utf8_byte(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"0.5,x\n0.75,\xff\n")
    with pytest.raises(ParseError, match="line 1, column 2: cannot parse 'x'"):
        read_matrix(p)


def test_non_utf8_byte_in_a_large_file(tmp_path, monkeypatch):
    p = tmp_path / "m.csv"
    lines = ["0.25,0.5,0.75"] * (matrixio._PLAIN_MIN_BYTES // 10)
    lines[-2] = "0.25,\xc3(,0.75"  # a lead byte without its continuation
    p.write_bytes("\n".join(lines).encode("latin-1"))
    # in one block, and in the last of many
    for blocks in ("default", "small"):
        if blocks == "small" and matrixio._PLAIN_PATH:
            plain, parsed = read_in_small_blocks(monkeypatch, p)
            assert plain is None and late_edit(parsed, 3 * (len(lines) - 2))
        with pytest.raises(ParseError) as exc:
            read_matrix(p)
        assert (exc.value.line, exc.value.column) == (len(lines) - 1, 2)
        assert "byte 0xc3 is not UTF-8" in str(exc.value)


# ---- the plain-decimal path ----------------------------------------------------

needs_plain_path = pytest.mark.skipif(
    not matrixio._PLAIN_PATH, reason="np.longdouble is not the x87 80-bit type"
)


def read_plain(cells, width):
    """_read_plain_decimal on cells laid out width to a row; also float() of each cell."""
    rows = [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    got = matrixio._read_plain_decimal(io.BytesIO(("\n".join(rows) + "\n").encode()))
    assert got is not None
    return got, np.array([float(c) for c in cells]).reshape(got.shape)


def read_in_small_blocks(monkeypatch, p):
    """_read_plain_decimal of the file p in blocks of at most 64 cells or 1 KiB, which
    stay patched in; also what _parse_block returned for each block."""
    monkeypatch.setattr(matrixio, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(matrixio, "_BLOCK_BYTES", 1024)
    parse_block, parsed = matrixio._parse_block, []
    monkeypatch.setattr(
        matrixio, "_parse_block", lambda *args: parsed.append(parse_block(*args)) or parsed[-1]
    )
    with open(p, "rb") as fh:
        return matrixio._read_plain_decimal(fh), parsed


def late_edit(parsed, cells_before):
    """Whether the blocks read ended with the one holding an edit made after cells_before
    cells, and 7 or more blocks before it passed."""
    head = parsed[:-1]
    return (len(head) >= 7 and all(cells is not None for cells in head)
            and sum(map(len, head)) <= cells_before)


@needs_plain_path
def test_plain_powers_of_ten_are_exact():
    assert [int(p) for p in matrixio._POW10] == [10**k for k in range(28)]


@needs_plain_path
def test_plain_path_reads_each_form_as_float():
    cells = [
        "0", "-0", "-0.0", "0.0", "007", "-007.50", "000.000", "1.", "-1.", ".5", "-.5", "5",
        "123456789012345678", "-12345678901234567.8", "0.123456789012345678",  # 18 digits
        "1234567890123456789", "-.1234567890123456789", "9223372036854775808",  # 19 digits
        "99999999999999999999999", "-18446744073709551617", "1" * 300 + ".5",  # saturated
        "0." + "0" * 26 + "1", "0." + "0" * 27 + "1", "1." + "0" * 40,  # k = 27, 28, 40
        "9007199254740993", "36028797018963972", "576460752303423552",  # halfway: to even
        "0.5000000000000000277555756156289135105907917022705078125",  # halfway above 0.5
        "0.30000000000000004", "1.7976931348623157", "0.1", "0.000123",
    ]
    got, want = read_plain(cells, 1)
    assert got.tobytes() == want.tobytes()


def near_halfway_cells(seed=5, scale=1.0):
    """Plain decimals of 16-19 digits within 1e-18 (relative) of a point halfway between
    two adjacent doubles, on both sides of it, and the point itself where it is short.
    The doubles are scaled by a power of two, which keeps them halfway."""
    rng = np.random.default_rng(seed)
    doubles = scale * np.concatenate([
        rng.uniform(0, 1, 300),
        rng.uniform(1, 1e6, 200),
        2.0 ** rng.integers(-30, 60, 100),  # the halfway point below a power of two
        np.nextafter(2.0 ** rng.integers(-30, 60, 100), 0),
    ])
    cells = []
    for d in doubles.tolist():
        with localcontext(Context(prec=2000)):
            for lo, hi in ((np.nextafter(d, 0), d), (d, np.nextafter(d, np.inf))):
                mid = (Decimal(lo) + Decimal(hi)) / 2
                for digits in (16, 17, 18, 19):
                    for rounding in (ROUND_FLOOR, ROUND_CEILING):
                        near = Context(prec=digits, rounding=rounding).plus(mid)
                        cells.append(format(near, "f"))
    return cells


@needs_plain_path
def test_plain_path_matches_float_near_halfway_points():
    cells = near_halfway_cells()
    got, want = read_plain(cells, 8)
    assert got.tobytes() == want.tobytes()


def exponent_forms(cells):
    """Each plain decimal cell as D e x, with D its significant digits, and as one
    digit, a point and the rest of them, e +-x."""
    forms = []
    for cell in cells:
        sign, digits, exp = Decimal(cell).normalize().as_tuple()
        text = "-" * sign + "".join(map(str, digits))
        forms.append(f"{text}e{exp}")
        forms.append(f"{text[:sign + 1]}.{text[sign + 1:]}E{exp + len(digits) - 1:+d}")
    return forms


@needs_plain_path
def test_plain_path_reads_each_exponent_form_as_float():
    cells = [
        "1e-5", "1E5", "1e+5", "1.e5", ".5e1", "-.5E-1", "-0e5", "0e-5", "-0.0E+0", "1e0",
        "1e-0", "2.5e-300", "5e-324", "2.5e-320", "1.7976931348623157e308", "1e-400",
        "2.8262791613936043e-16", "1.2345678901234567e-05", "-9.8765432109876543e+20",
        "1e27", "1e-27", "1.5e-26", "123456789012345678e27", "123456789012345678e-27",  # |t| 27
        "1e28", "1e-28", "1.5e-27", "123456789012345678e28", "123456789012345678e-28",  # |t| 28
        "0." + "0" * 30 + "1e31", "1" + "0" * 30 + "e-30",  # t = 0 from many digits
        "123456789012345678e-5", "-123456789012345678e5", "-.123456789012345678e3",  # 18
        "1234567890123456789e-5", "-1234567890123456789e5", "9223372036854775808e-3",  # 19
        "99999999999999999999e-3", "1e" + "0" * 30 + "5",  # saturated, long exponent
        "1e-9223372036854775808", "1e-9223372036854775809", "1e-99999999999999999999",
    ]
    got, want = read_plain(cells, 1)
    assert got.tobytes() == want.tobytes()


@needs_plain_path
def test_plain_path_matches_float_near_halfway_points_with_exponents():
    # the same cells as above, and others up to 1e39, whose exponents multiply
    cells = near_halfway_cells() + near_halfway_cells(seed=6, scale=2.0**70)
    got, want = read_plain(exponent_forms(cells), 8)
    assert got.tobytes() == want.tobytes()


@needs_plain_path
def test_plain_path_matches_float_on_random_exponent_forms():
    rng = np.random.default_rng(17)
    n = 20000
    lengths = rng.integers(1, 20, n)
    digits = rng.integers(0, 10, (n, 19)).astype(str)
    exps = rng.integers(-45, 45, n)
    cells = []
    for i, length in enumerate(lengths.tolist()):
        text = "".join(digits[i, :length])
        point = int(rng.integers(0, length + 1))
        cell = text[:length - point] + "." + text[length - point:] if point else text
        mark = "eE"[rng.integers(0, 2)] + ["", "+", "-"][rng.integers(0, 3)]
        cell += mark + str(abs(int(exps[i]))) if mark[1:] else mark + str(int(exps[i]))
        cells.append("-" + cell if rng.integers(0, 4) == 0 else cell)
    got, want = read_plain(cells, 10)
    assert got.tobytes() == want.tobytes()


@needs_plain_path
def test_plain_path_matches_float_on_random_decimals():
    rng = np.random.default_rng(11)
    n = 20000
    lengths = rng.integers(1, 20, n)
    digits = rng.integers(0, 10, (n, 19)).astype(str)
    cells = []
    for i, length in enumerate(lengths.tolist()):
        text = "".join(digits[i, :length])
        point = int(rng.integers(0, min(length, 18) + 1))
        cell = text[:length - point] + "." + text[length - point:] if point else text
        cells.append("-" + cell if rng.integers(0, 4) == 0 else cell)
    got, want = read_plain(cells, 10)
    assert got.tobytes() == want.tobytes()


@needs_plain_path
def test_file_above_the_threshold_takes_the_plain_path(tmp_path, monkeypatch):
    read_plain_decimal = matrixio._read_plain_decimal
    taken = []

    def spy(fh):
        taken.append(read_plain_decimal(fh))
        return taken[-1]

    monkeypatch.setattr(matrixio, "_read_plain_decimal", spy)
    rng = np.random.default_rng(3)
    p = tmp_path / "m.csv"
    small = rng.uniform(1e-3, 1, (5, 4))  # %.17g of these needs no exponent
    write_matrix(p, small)
    assert read_matrix(p).tobytes() == small.tobytes() and not taken
    big = rng.uniform(1e-3, 1, (40, 30))
    big[0, :3] = [0.0, -0.0, 1.0]
    write_matrix(p, big)
    assert p.stat().st_size >= matrixio._PLAIN_MIN_BYTES
    got = read_matrix(p)
    assert taken and taken[-1] is got
    assert got.tobytes() == big.tobytes() == oracle_read_matrix(p).tobytes()


@needs_plain_path
def test_written_file_with_exponents_takes_the_plain_path(tmp_path):
    # a recovered Q: roundoff dust where the true entry is 0, and other small values
    rng = np.random.default_rng(23)
    q = rng.dirichlet(np.ones(5), 400).T
    q[:, :5] = np.eye(5)
    q[rng.random(q.shape) < 0.01] = 2.8262791613936043e-16
    q[0, 300:310] = rng.uniform(1e-9, 1e-4, 10)
    # and whatever else %.17g prints with an exponent
    q[1, 300:308] = [5e-324, -2.5e-310, 1e-300, 1.7976931348623157e308, -1e300, 1e17, 1e22, -1e23]
    p = tmp_path / "Q.csv"
    write_matrix(p, q)
    assert b"e-" in p.read_bytes() and p.stat().st_size >= matrixio._PLAIN_MIN_BYTES
    with open(p, "rb") as fh:
        got = matrixio._read_plain_decimal(fh)
    assert got.tobytes() == q.tobytes() == read_matrix(p).tobytes()


@needs_plain_path
@pytest.mark.parametrize("shape", [(1, 9000), (3, 5000), (2000, 2)])
@pytest.mark.parametrize("final_eol", [True, False])
def test_plain_path_reads_long_and_short_lines(tmp_path, shape, final_eol):
    # a line longer than a block is read whole, and so is a last line without a newline
    vals = np.random.default_rng(13).uniform(1e-3, 1, shape)
    p = tmp_path / "m.csv"
    write_matrix(p, vals)
    if not final_eol:
        p.write_bytes(p.read_bytes()[:-1])
    with open(p, "rb") as fh:
        got = matrixio._read_plain_decimal(fh)
    assert got.tobytes() == vals.tobytes()


class CountingReader(io.BytesIO):
    """A binary file in memory that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data

    def readline(self, size=-1):
        line = super().readline(size)
        self.bytes_read += len(line)
        return line


@needs_plain_path
def test_plain_path_reads_each_byte_once(tmp_path):
    # a file of about 10 blocks; the bytes a block reads past its last newline are read
    # again by the next, under 1 in 20
    vals = np.random.default_rng(29).uniform(1e-3, 1, (200, 100))
    p = tmp_path / "m.csv"
    write_matrix(p, vals)
    fh = CountingReader(p.read_bytes())
    got = matrixio._read_plain_decimal(fh)
    assert got.tobytes() == vals.tobytes()
    assert p.stat().st_size <= fh.bytes_read < 1.5 * p.stat().st_size


@functools.cache
def block_test_cells():
    """Cells the reader must get exactly: decimals next to and at halfway points between
    doubles, some of them in exponent forms, and forms of -0."""
    cells = near_halfway_cells(seed=11)[::5]
    return cells + exponent_forms(cells[::4]) + ["-0", "-0.0", "-0e5", "-0E-3", "-.0"]


@needs_plain_path
@pytest.mark.parametrize("block", [(2, 40), (7, 7 * 24), (2048, 65536), "default"])
@pytest.mark.parametrize("width", [3, 1000])
@pytest.mark.parametrize("final_eol", [True, False])
def test_block_size_never_changes_a_value(tmp_path, monkeypatch, block, width, final_eol):
    # 8 times _BLOCK_CELLS cells or more take blocks of _BLOCK_CELLS; rows of "0" first:
    # the blocks sized from their 2 bytes a cell are shorter than the 1000-cell rows of
    # long cells after them, at every block size here
    if block != "default":
        monkeypatch.setattr(matrixio, "_BLOCK_CELLS", block[0])
        monkeypatch.setattr(matrixio, "_BLOCK_BYTES", block[1])
    cells = block_test_cells()
    cells = cells * -(-8 * matrixio._BLOCK_CELLS // len(cells))
    cells = cells + ["0"] * (-len(cells) % width)
    np.random.default_rng(width).shuffle(cells)
    lines = [",".join(["0"] * width)] * 3
    lines += [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    if width == 1000:  # the blocks after the first, sized at 2 bytes a cell
        assert len(lines[3]) > min(matrixio._BLOCK_BYTES, 2 * matrixio._BLOCK_CELLS)
    p = tmp_path / "m.csv"
    # and with a first line of cells a hundred times as long as the others
    for first in (lines[0], ",".join(["0." + "0" * 200 + "5"] * width)):
        lines[0] = first
        p.write_bytes(("\n".join(lines) + "\n" * final_eol).encode())
        with open(p, "rb") as fh:
            got = matrixio._read_plain_decimal(fh)
        assert got is not None and got.tobytes() == oracle_read_matrix(p).tobytes()


PLAIN_FORMS = ["0", "-0", "1", "0.5", "-.25", "1.", "007.5", "0.30000000000000004",
               "123456789012345678", "9007199254740993", "0.12345678901234567"]
EXPONENT_FORMS = ["1e-5", "-2.5E+7", ".5e1", "2.8262791613936043e-16", "-0e5"]


def plain_body(rng, rows, width, forms=PLAIN_FORMS):
    """rows lines of plain-decimal cells."""
    picks = rng.integers(0, len(forms), (rows, width))
    return [",".join(forms[i] for i in row) for row in picks.tolist()]


def replace_first_cell(cell):
    def edit(lines, i):
        lines[i] = ",".join([cell] + lines[i].split(",")[1:])
    return edit


LAST_BLOCK = "last block"

# each declined form, made at line i of a large plain-decimal file
DECLINED = {
    "exponent without digits": replace_first_cell("1e"),
    "exponent sign without digits": replace_first_cell("1e+"),
    "exponent without a number": replace_first_cell("e5"),
    "exponent with a point": replace_first_cell("1e5.5"),
    "two exponent marks": replace_first_cell("1ee5"),
    "two exponent signs": replace_first_cell("1e-+5"),
    "space in the exponent": replace_first_cell("1e 5"),
    "sign after exponent digits": replace_first_cell("1e5-3"),
    "exponent beyond float range": replace_first_cell("1e400"),
    "plus sign": replace_first_cell("+0.5"),
    "space": replace_first_cell(" 0.5"),
    "empty cell": replace_first_cell(""),
    "point alone": replace_first_cell("."),
    "minus alone": replace_first_cell("-"),
    "minus point": replace_first_cell("-."),
    "inner minus": replace_first_cell("1-2"),
    "two minus signs": replace_first_cell("--1"),
    "two points": replace_first_cell("1.2.3"),
    "non-ASCII digit": replace_first_cell("\u0663"),
    "byte order mark": replace_first_cell("\ufeff0.5"),
    "nan": replace_first_cell("nan"),
    "beyond float range": replace_first_cell("1" * 400),
    "blank line": lambda lines, i: lines.insert(i, ""),
    "whitespace line": lambda lines, i: lines.insert(i, " \t"),
    "long row": lambda lines, i: lines.__setitem__(i, lines[i] + ",1"),
    "short row": lambda lines, i: lines.__setitem__(i, lines[i].split(",", 1)[1]),
    "trailing comma": lambda lines, i: lines.__setitem__(i, lines[i] + ","),
    # a row split in two, and a cell moved to the next row: the cell count stays the same
    "split row": lambda lines, i: lines.__setitem__(i, lines[i].replace(",", "\n", 1)),
    "moved cell": lambda lines, i: lines.__setitem__(
        slice(i, i + 2), [lines[i].rsplit(",", 1)[0], "0.5," + lines[i + 1]]),
}


def edited_file(tmp_path, monkeypatch, edit, at, eol, forms=PLAIN_FORMS):
    """A large file of plain-decimal cells, edited at line at; its plain-path read. At
    LAST_BLOCK the edit is made at line -2, which small blocks read in the last block,
    after 7 or more without it (with LF line ends)."""
    lines = plain_body(np.random.default_rng(7), matrixio._PLAIN_MIN_BYTES // 20, 4, forms)
    edit(lines, -2 if at == LAST_BLOCK else at)
    p = tmp_path / "m.csv"
    p.write_bytes((eol.join(lines) + eol).encode())
    assert p.stat().st_size >= matrixio._PLAIN_MIN_BYTES
    if at == LAST_BLOCK:
        plain, parsed = read_in_small_blocks(monkeypatch, p)
        unedited = matrixio._PLAIN_MIN_BYTES // 20 - 2
        assert late_edit(parsed, 4 * unedited) or eol != "\n"
        return p, plain
    with open(p, "rb") as fh:
        return p, matrixio._read_plain_decimal(fh)


def read_as_the_line_loop(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(read_matrix, p)
    assert got == outcome(oracle_read_matrix, p)
    return got


@needs_plain_path
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("at", [0, 7, -2, LAST_BLOCK])
@pytest.mark.parametrize("form", sorted(DECLINED))
def test_declined_forms_read_as_the_line_loop_does(tmp_path, monkeypatch, form, at, eol):
    p, plain = edited_file(tmp_path, monkeypatch, DECLINED[form], at, eol)
    assert plain is None
    read_as_the_line_loop(p)


@needs_plain_path
@pytest.mark.parametrize("at", [0, 7, -2, LAST_BLOCK])
@pytest.mark.parametrize("form", sorted(DECLINED))
def test_declined_forms_among_exponent_cells(tmp_path, monkeypatch, form, at):
    forms = PLAIN_FORMS + EXPONENT_FORMS
    p, plain = edited_file(tmp_path, monkeypatch, DECLINED[form], at, "\n", forms)
    assert plain is None
    read_as_the_line_loop(p)


# one exponent cell, made at line i of a large plain-decimal file
EXPONENT_CELLS = {
    "exponent": "1e-3",
    "capital exponent": "-2.5E+7",
    "roundoff dust": "2.8262791613936043e-16",
}


@needs_plain_path
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("at", [0, 7, -2, LAST_BLOCK])
@pytest.mark.parametrize("form", sorted(EXPONENT_CELLS))
def test_exponent_forms_read_as_the_line_loop_does(tmp_path, monkeypatch, form, at, eol):
    # a CR line end still declines the file
    edit = replace_first_cell(EXPONENT_CELLS[form])
    p, plain = edited_file(tmp_path, monkeypatch, edit, at, eol)
    got = read_as_the_line_loop(p)
    assert (plain is None) == (eol == "\r\n")
    assert plain is None or plain.tobytes() == got[2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 6),
    odd=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(GOOD_CELLS + ODD_CELLS + [""])),
                 max_size=2),
    blank=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n"]),
    final_eol=st.booleans(),
)
def test_large_files_read_as_the_cell_by_cell_parse(
    tmp_path_factory, seed, width, odd, blank, eol, final_eol
):
    rng = np.random.default_rng(seed)
    lines = plain_body(rng, 2 * matrixio._PLAIN_MIN_BYTES // (8 * width), width)
    for where, cell in odd:
        i = int(where * (len(lines) - 1))
        lines[i] = ",".join([cell] + lines[i].split(",")[1:])
    if blank:
        lines.insert(int(rng.integers(0, len(lines))), "")
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    p.write_bytes((eol.join(lines) + (eol if final_eol else "")).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(read_matrix, p) == outcome(oracle_read_matrix, p)


# ---- the vectorized writer -------------------------------------------------------

def g17_text(arr):
    """The per-cell "%.17g" join that write_matrix must reproduce."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in arr.tolist()).encode()


def json_rows_text(matrices):
    """What json_rows must reproduce: each matrix's json.dumps without its outer brackets."""
    return [json.dumps(m.tolist())[2:-2] for m in matrices]


def every_size_vectorized():
    """Send every nonempty matrix, however small or whole, through the vectorized writer."""
    return mock.patch.object(
        matrixio, "_vectorized",
        lambda matrices, min_cells: matrixio._PLAIN_PATH and sum(m.size for m in matrices) > 0,
    )


def assert_written_as_python_does(path, arr):
    write_matrix(path, arr)
    assert path.read_bytes() == g17_text(arr)
    pair = [arr, arr[::-1]]
    assert matrixio.json_rows(pair, ", ", "], [") == json_rows_text(pair)
    if np.isfinite(arr).all():
        assert read_matrix(path).tobytes() == arr.tobytes()


# 17 digits that tie at the 18th ("%.17g" rounds them half to even), exact decimals
# that tie at shorter lengths, and values that need exactly 1, 11, 15, 16 and 17 digits
NAMED_VALUES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.125, 0.375, 0.5, 1.0, 2.5, 1e-4,
    9.999999999999999e-05, 1e-05, 7e-05, 1e-11, 1e-12, 1e15, 1e16, 1e17, 9999999999999998.0,
    99999999999999999.0, 1e22, 1e23, 1e43, 1e44, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.1 + 0.2,
    123456789012345.125, 123456789012345.375, 1234567890123.0625, 0.28770272205,
    0.997209935789211, 0.6369616873214543, 0.016527635528529094, 1.7976931348623157e308,
    123456.0,
]


# the doubles next to each power of ten the vectorized writer handles, where the
# decimal exponent from log10 may be off by one
NEXT_TO_POWERS_OF_TEN = [
    float(np.nextafter(10.0**m, side)) for m in range(-12, 45) for side in (0.0, np.inf)
]


# a power of two has a lower neighbour twice as near as its upper one, so its shortest
# repr may not be the nearest short decimal (2**64 is 1.8446744073709552e+19)
POWERS_OF_TWO = [2.0**j for j in range(-40, 150)]


@needs_plain_path
def test_writer_matches_python_on_named_values(tmp_path):
    vals = np.array(NAMED_VALUES + NEXT_TO_POWERS_OF_TEN + POWERS_OF_TWO)
    vals = np.concatenate([vals, -vals])
    with every_size_vectorized():
        for arr in (vals[None, :], vals[:, None], vals.reshape(2, -1), vals[:-2].reshape(-1, 4)):
            assert_written_as_python_does(tmp_path / "m.csv", arr)


@needs_plain_path
def test_writer_matches_python_across_blocks(tmp_path):
    # 7000 cells span three blocks, with row ends inside and at their edges
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64, size=7000, dtype=np.uint64).view(np.float64)
    vals = np.where(rng.uniform(size=7000) < 0.5, rng.uniform(size=7000), bits)
    vals[rng.integers(0, 7000, size=700)] = rng.choice(NAMED_VALUES, size=700)
    for width in (1, 7, 1024, 3072):
        arr = vals[: 7000 // width * width].reshape(-1, width)
        assert matrixio._vectorized([arr], matrixio._G17_MIN_CELLS)
        assert_written_as_python_does(tmp_path / "m.csv", arr)


@st.composite
def matrices_of(draw, cells):
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vals = draw(st.lists(cells, min_size=rows * width, max_size=rows * width))
    return np.array(vals, dtype=float).reshape(rows, width)


raw_doubles = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array([bits], np.uint64).view(np.float64)[0])
)


@needs_plain_path
@settings(max_examples=300, deadline=None, derandomize=True)
@given(arr=matrices_of(st.floats(allow_nan=False, allow_infinity=False)))
def test_writer_matches_python_on_any_finite_double(tmp_path_factory, arr):
    with every_size_vectorized():
        assert_written_as_python_does(tmp_path_factory.mktemp("w") / "m.csv", arr)


@needs_plain_path
@settings(max_examples=300, deadline=None, derandomize=True)
@given(arr=matrices_of(raw_doubles))
def test_writer_matches_python_on_raw_bit_patterns(tmp_path_factory, arr):
    # nan and the infinities among them too ("nan", "inf"; json's NaN, Infinity)
    with every_size_vectorized():
        assert_written_as_python_does(tmp_path_factory.mktemp("w") / "m.csv", arr)


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (0, 3), (4, 0), (0, 0)])
def test_writer_keeps_the_bytes_of_thin_and_empty_shapes(tmp_path, shape, vectorized):
    # an empty file for 0 x N and M newlines for M x 0, as the per-row format writes
    arr = np.random.default_rng(3).uniform(size=shape)
    p = tmp_path / "m.csv"
    with every_size_vectorized() if vectorized else contextlib.nullcontext():
        write_matrix(p, arr)
    assert p.read_bytes() == g17_text(arr)
    if not arr.size:
        assert p.read_bytes() == b"\n" * shape[0]


@needs_plain_path
def test_only_large_matrices_of_fractions_take_the_vectorized_writer(tmp_path, monkeypatch):
    blocks = []
    real = matrixio._format_block
    monkeypatch.setattr(matrixio, "_format_block", lambda *a: blocks.append(1) or real(*a))
    rng = np.random.default_rng(4)
    write_matrix(tmp_path / "small.csv", rng.uniform(size=(1, matrixio._G17_MIN_CELLS - 1)))
    matrixio.json_rows([rng.uniform(size=(1, matrixio._REPR_MIN_CELLS - 1))], ", ", "], [")
    assert not blocks
    # nor does a large one of whole numbers, which Python writes faster
    write_matrix(tmp_path / "whole.csv", np.eye(5)[:, rng.integers(0, 5, size=400)])
    matrixio.json_rows([np.eye(5)[:, rng.integers(0, 5, size=400)]], ", ", "], [")
    assert not blocks
    write_matrix(tmp_path / "large.csv", rng.uniform(size=(1, matrixio._G17_MIN_CELLS)))
    matrixio.json_rows([rng.uniform(size=(1, matrixio._REPR_MIN_CELLS))], ", ", "], [")
    assert len(blocks) == 2


def test_no_double_next_to_a_power_of_ten_scales_to_just_below_1e16():
    # _decimal_digits takes s == 1e16 as exact: |x| * 10**(16 - e) rounded once to 64
    # bits. Only a double within half an ulp there (2**-11) of 1e16 could round onto it,
    # and the nearest doubles to 10**m, for every m the vectorized writer handles, are
    # either 10**m itself or much farther away
    for m in range(16 - 27, 16 + 28):
        near = float(Fraction(10) ** m)
        for x in (np.nextafter(near, 0.0), near, np.nextafter(near, np.inf)):
            s = Fraction(float(x)) * Fraction(10) ** (16 - m)
            assert s == 10**16 or abs(s - 10**16) > Fraction(1, 2**10)


def decimal_midpoints(max_digits=4):
    """Doubles next to short decimals d * 10**p that lie exactly halfway between two
    doubles: the decimal sits on an end of their rounding intervals, so whether it reads
    back as them decides the shortest repr (1e23 is the best known)."""
    out = []
    for p in range(16, 45):
        for d in range(1, 10**max_digits):
            c = d * 10**p
            half_ulp = 2 ** (c.bit_length() - 54)
            if d % 10 and c % (2 * half_ulp) == half_ulp:
                x = float(c)
                out += [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf))]
    return out


@needs_plain_path
def test_writer_matches_python_at_decimal_midpoints_of_doubles(tmp_path):
    vals = np.array(decimal_midpoints())
    assert vals.size > 5000
    with every_size_vectorized():  # whole numbers all
        assert_written_as_python_does(tmp_path / "m.csv", vals.reshape(-1, 3))
