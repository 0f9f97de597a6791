"""CSV matrix reading and writing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admixid import ParseError, ShapeError, read_matrix, write_matrix


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
