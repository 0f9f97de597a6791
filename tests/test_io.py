"""CSV matrix reading and writing."""

import numpy as np
import pytest

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
    p = tmp_path / "m.csv"
    p.write_text("")
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
