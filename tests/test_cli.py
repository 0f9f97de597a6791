"""End-to-end command-line behaviour, driven through main(argv)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import admixid
from admixid import (
    AdmixtureMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    are_equivalent,
    convex_decompose,
    generate_instance,
    read_matrix,
    write_matrix,
)
from admixid.cli import main
from admixid.convex import _successive_projection


def write_csv(path, values):
    write_matrix(path, np.asarray(values, dtype=float))
    return str(path)


@pytest.fixture
def anchor_pair_files(tmp_path):
    f = write_csv(tmp_path / "F.csv", [[1, 0], [0, 1], [0.5, 0.5]])
    q = write_csv(tmp_path / "Q.csv", [[1, 0, 0.3], [0, 1, 0.7]])
    return f, q


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_all_conditions(capsys, anchor_pair_files):
    f, q = anchor_pair_files
    code, out, _ = run(capsys, ["check", "--f", f, "--q", q])
    assert code == 0
    report = json.loads(out)
    assert report["K"] == 2 and report["M"] == 3 and report["N"] == 3
    assert report["anchor_Q"] is True
    assert report["anchor_Q_cols"] == [0, 1]
    assert report["member_anchor_q_model"] is True
    assert report["member_unadmixed_model"] is False


def test_check_identity_pair_satisfies_everything(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", np.eye(2))
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    code, out, _ = run(capsys, ["check", "--f", f, "--q", q])
    assert code == 0
    report = json.loads(out)
    for key in (
        "anchor_F", "anchor_Q", "indep_F", "indep_Q", "distinct_cols_F",
        "unadmixed_Q", "member_anchor_q_model", "member_anchor_f_model",
        "member_unadmixed_model",
    ):
        assert report[key] is True, key


def test_check_population_count_mismatch_exits_3(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[0.5, 0.5], [0.2, 0.8]])
    q = write_csv(tmp_path / "Q.csv", np.eye(3))
    code, _, err = run(capsys, ["check", "--f", f, "--q", q])
    assert code == 3
    assert "error:" in err


def test_unparseable_csv_exits_2(capsys, tmp_path):
    bad = tmp_path / "F.csv"
    bad.write_text("0.5,x\n")
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    code, _, err = run(capsys, ["check", "--f", str(bad), "--q", q])
    assert code == 2
    assert "line 1" in err


def test_non_finite_cell_exits_2(capsys, tmp_path):
    bad = tmp_path / "pi.csv"
    bad.write_text("0.5,0.25\n0.75,nan\n")
    code, _, err = run(capsys, ["recover", "--pi", str(bad), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "line 2, column 2" in err


@pytest.mark.parametrize("command", ["check", "recover"])
def test_non_utf8_byte_exits_2_naming_its_cell(capsys, tmp_path, command):
    # a UnicodeDecodeError is a ValueError, which the CLI would map to exit 5
    bad = tmp_path / "m.csv"
    bad.write_bytes(b"0.5,0.25\n0.75,\xe9\n")
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    argv = {
        "check": ["check", "--f", str(bad), "--q", q],
        "recover": ["recover", "--pi", str(bad), "--out-dir", str(tmp_path)],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: line 2, column 2: byte 0xe9 is not UTF-8\n"


def test_missing_file_exits_2(capsys, tmp_path):
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    code, _, err = run(capsys, ["check", "--f", str(tmp_path / "nope.csv"), "--q", q])
    assert code == 2


def test_recover_fixed_regime(capsys, tmp_path):
    pi = write_csv(tmp_path / "pi.csv", [[1, 0, 0.3], [0, 1, 0.7], [0.5, 0.5, 0.5]])
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys,
        ["recover", "--pi", pi, "--regime", "anchorQ", "--out-dir", str(out_dir)],
    )
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "anchorQ"
    assert report["K"] == 2
    assert report["residual"] <= 1e-9
    f_back = read_matrix(report["F_path"])
    q_back = read_matrix(report["Q_path"])
    assert np.abs(f_back @ q_back - read_matrix(pi)).max() <= 1e-9


def test_recover_auto_falls_through_to_unadmixed(capsys, tmp_path):
    # square corners defeat both anchor regimes; distinct columns still
    # admit the trivial unadmixed reading
    pi = write_csv(tmp_path / "pi.csv", [[0, 1, 0, 1], [0, 0, 1, 1]])
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, ["recover", "--pi", pi, "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "unadmixed"
    assert report["K"] == 4


def test_recover_auto_total_failure_exits_4(capsys, tmp_path):
    # corners block the anchor regimes; the trailing near-duplicate chain
    # makes the unadmixed assignment ambiguous
    t = 1e-8
    pi_vals = np.array(
        [
            [0, 1, 0, 1, 0.5, 0.5 + 1.5 * t, 0.5 + 0.7 * t],
            [0, 0, 1, 1, 0.2, 0.2, 0.2],
        ]
    )
    pi = write_csv(tmp_path / "pi.csv", pi_vals)
    code, _, err = run(capsys, ["recover", "--pi", pi, "--out-dir", str(tmp_path)])
    assert code == 4
    assert "anchorQ:" in err
    assert "anchorF:" in err
    assert "unadmixed:" in err


# P = diag(1.2, 1, 1) Q: anchorF's recovered locus 0 would have frequency 1.2
UNIT_BOX_LEAK_PI = np.diag([1.2, 1, 1]) @ [
    [0.6, 0.2, 0.2, 0.5], [0.2, 0.6, 0.2, 0.1], [0.2, 0.2, 0.6, 0.4],
]


def test_recover_anchor_f_frequency_above_one_exits_4(capsys, tmp_path):
    pi = write_csv(tmp_path / "pi.csv", UNIT_BOX_LEAK_PI)
    code, out, err = run(
        capsys, ["recover", "--pi", pi, "--regime", "anchorF", "--out-dir", str(tmp_path)]
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: anchorF: frequency matrix entries must lie in [0, 1]")


def test_recover_auto_goes_on_past_an_anchor_f_unit_box_failure(capsys, tmp_path):
    pi = write_csv(tmp_path / "pi.csv", UNIT_BOX_LEAK_PI)
    code, out, _ = run(capsys, ["recover", "--pi", pi, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "unadmixed"
    assert report["K"] == 4


# the cone of rows 0-2 and a point just outside the middle of its face 0-1
# (OUTWARD is that face's outer normal); with EQ = eq_tol, row 3 lies 0.5 EQ
# and its scaled near-duplicate row 4 1.4 EQ outside it
EQ = Tolerance().eq_tol
FACE_MID, OUTWARD = np.array([0.25, 0.5, 0.25]), np.array([-1.0, 1.0, -1.0])
ROW_OUTSIDE_THE_CONE_PI = [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5],
                           FACE_MID + 0.5 * EQ * OUTWARD, FACE_MID + 1.4 * EQ * OUTWARD]


@pytest.mark.parametrize("p, message", [
    # an anchorQ member's rows span more than K rays: the sweep finds them dependent
    (generate_instance("anchorQ", 3, 20, 15, 7).product().values,
     "6 extreme rays are linearly dependent; decompositions over them are not unique"),
    # the certified rays give a frequency above 1, which the final validation refuses
    (UNIT_BOX_LEAK_PI,
     "frequency matrix entries must lie in [0, 1] (within 1e-07); found range [0, 1.2]"),
    # the sweep drops row 3, within eq_tol of the cone, and row 4 is its duplicate
    (ROW_OUTSIDE_THE_CONE_PI,
     "row 4 is not a nonnegative combination of the recovered rows"),
    # two independent rays whose span misses the all-ones row
    ([[0.5, 0, 0], [0, 0.5, 0]],
     "no ray scaling gives unit column sums; input is outside the regime"),
    # the all-ones row lies outside the cone of the two rays
    ([[0.8, 0.2], [0.6, 0.4]], "column-sum scaling has a nonpositive weight -1"),
])
def test_recover_anchor_f_refusals_keep_their_text(capsys, tmp_path, p, message):
    pi = write_csv(tmp_path / "pi.csv", p)
    code, out, err = run(
        capsys, ["recover", "--pi", pi, "--regime", "anchorF", "--out-dir", str(tmp_path)]
    )
    assert (code, out, err) == (4, "", f"error: anchorF: {message}\n")


@pytest.mark.parametrize("p, message", [
    # a fourth vertex 3 eq_tol outside the triangle: too close for the 10x
    # refusal of the certificate, so the sweep finds four dependent vertices
    ([[0, 1, 0, 0.5 + 3 * EQ], [0, 0, 1, 0.5 + 3 * EQ]],
     "4 extreme columns are affinely dependent; decompositions over them are not unique"),
    # the sweep drops column 3 just outside the triangle, and column 4 is its
    # near-duplicate further out
    ([[0, 1, 0, 0.5 + 1.2 * EQ, 0.5 + 1.8 * EQ], [0, 0, 1, 0.5 + 1.2 * EQ, 0.5 + 1.8 * EQ]],
     "column 4 is not a convex combination of the extreme columns"),
])
def test_recover_anchor_q_refusals_keep_their_text(capsys, tmp_path, p, message):
    pi = write_csv(tmp_path / "pi.csv", p)
    code, out, err = run(
        capsys, ["recover", "--pi", pi, "--regime", "anchorQ", "--out-dir", str(tmp_path)]
    )
    assert (code, out, err) == (4, "", f"error: anchorQ: {message}\n")


def test_recover_anchor_f_zero_input_exits_4(capsys, tmp_path):
    pi = write_csv(tmp_path / "pi.csv", np.zeros((3, 4)))
    code, _, err = run(
        capsys, ["recover", "--pi", pi, "--regime", "anchorF", "--out-dir", str(tmp_path)]
    )
    assert code == 4
    assert "input is numerically zero" in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
def test_tolerance_must_be_finite_and_positive(capsys, anchor_pair_files, flag, value):
    f, q = anchor_pair_files
    code, out, err = run(capsys, [flag, value, "check", "--f", f, "--q", q])
    assert code == 2
    assert out == ""
    assert err == "error: tolerances must be finite and positive\n"


def test_recover_keeps_a_huge_finite_tolerance(capsys, tmp_path):
    # recovery validates its factors at 10x eq_tol, which overflows here
    pi = write_csv(tmp_path / "pi.csv", [[1, 0, 0.3], [0, 1, 0.7], [0.5, 0.5, 0.5]])
    code, _, _ = run(
        capsys,
        ["--tol", "1e308", "recover", "--pi", pi, "--regime", "anchorQ",
         "--out-dir", str(tmp_path)],
    )
    assert code == 0


def test_counterexample_rotation_with_delta(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[1, 0.5], [0, 0.4], [1, 0.6]])
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    out_dir = tmp_path / "cx"
    code, out, _ = run(
        capsys,
        [
            "counterexample", "--construction", "rotate_R_Q",
            "--f", f, "--q", q, "--delta", "0.25", "--out-dir", str(out_dir),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["construction"] == "R_rotation_Q"
    assert report["parameters"]["delta"] == 0.25
    assert report["product_gap"] <= 1e-7
    f2 = read_matrix(out_dir / "F2.csv")
    q2 = read_matrix(out_dir / "Q2.csv")
    orig = read_matrix(f) @ read_matrix(q)
    assert np.abs(f2 @ q2 - orig).max() <= 1e-7


def test_counterexample_auto_delta_reported(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[1, 0.5], [0, 0.4], [1, 0.6]])
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    code, out, _ = run(
        capsys,
        [
            "counterexample", "--construction", "rotate_R_Q",
            "--f", f, "--q", q, "--out-dir", str(tmp_path),
        ],
    )
    assert code == 0
    assert json.loads(out)["parameters"]["delta"] == pytest.approx(0.2)


def test_counterexample_precondition_exits_5(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", np.eye(2))
    code, _, err = run(
        capsys,
        [
            "counterexample", "--construction", "unadmixed_dup_column",
            "--f", f, "--n", "3", "--out-dir", str(tmp_path),
        ],
    )
    assert code == 5
    assert "NoDuplicateColumns" in err


def test_counterexample_within_eq_tol_of_a_relabelling_exits_5(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[0.3, 0.5, 0.3], [0.5, 0.4, 0.2], [0.7, 0.6, 0.9]])
    q = write_csv(tmp_path / "Q.csv", [[0.5, 0.2, 0.4], [0.3, 0.5, 0.3], [0.2, 0.3, 0.3]])
    code, out, err = run(
        capsys,
        [
            "counterexample", "--construction", "rotate_R_Q", "--f", f, "--q", q,
            "--delta", "1e-9", "--out-dir", str(tmp_path / "cx"),
        ],
    )
    assert (code, out) == (5, "")
    assert err.startswith("error: PreconditionViolated: ") and "relabelling" in err
    assert not (tmp_path / "cx").exists()


RECOVER_HELP = """\
usage: admixid recover [-h] --pi PATH
                       [--regime {anchorQ,anchorF,unadmixed,auto}]
                       [--out-dir DIR] [--output PATH]

options:
  -h, --help            show this help message and exit
  --pi PATH             expected frequency CSV
  --regime {anchorQ,anchorF,unadmixed,auto}
                        recovery regime (default auto)
  --out-dir DIR         directory for F.csv and Q.csv (default .)
  --output PATH         report destination (default stdout)
"""


def test_recover_help_lists_regimes_in_auto_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["recover", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == RECOVER_HELP


def test_counterexample_delta_on_non_rotation_exits_5(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[0.3, 0.3], [0.7, 0.7]])
    code, _, err = run(
        capsys,
        [
            "counterexample", "--construction", "necessity_pq",
            "--f", f, "--n", "3", "--delta", "0.1", "--out-dir", str(tmp_path),
        ],
    )
    assert code == 5
    assert "--delta" in err


def test_counterexample_missing_count_exits_2(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[0.3, 0.3], [0.7, 0.7]])
    code, _, err = run(
        capsys,
        ["counterexample", "--construction", "necessity_pq", "--f", f],
    )
    assert code == 2
    assert "--n" in err


def test_simulate_writes_genotype_csv(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[1, 1], [1, 1]])
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    out = tmp_path / "G.csv"
    code, _, _ = run(
        capsys,
        ["simulate", "--f", f, "--q", q, "--seed", "4", "--output", str(out)],
    )
    assert code == 0
    assert out.read_text() == "2,2\n2,2\n"


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_simulate_seed_outside_key_range_exits_5(capsys, tmp_path, seed):
    f = write_csv(tmp_path / "F.csv", [[0.5, 0.5], [0.5, 0.5]])
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    code, out, err = run(capsys, ["simulate", "--f", f, "--q", q, "--seed", str(seed)])
    assert code == 5
    assert out == ""
    assert err.count("error:") == 1 and "seed" in err


def test_simulate_largest_seed_is_accepted(capsys, tmp_path):
    f = write_csv(tmp_path / "F.csv", [[1, 1], [0, 0]])
    q = write_csv(tmp_path / "Q.csv", np.eye(2))
    code, out, _ = run(capsys, ["simulate", "--f", f, "--q", q, "--seed", str(2**64 - 1)])
    assert code == 0
    assert out == "2,2\n0,0\n"


def _genotype_join(pair, seed):
    g = admixid.simulate_genotypes(pair.product(), seed).values
    return "".join(",".join(map(str, row)) + "\n" for row in g.tolist()).encode()


def _simulate_pair(tmp_path, k, m, n, seed=3):
    pair = generate_instance("anchorQ" if m >= k else "unadmixed", k, m, n, seed)
    return pair, write_csv(tmp_path / "F.csv", pair.F.values), write_csv(tmp_path / "Q.csv",
                                                                         pair.Q.values)


# (K, M, N, entries of P per block): several blocks with a ragged last one, a
# last block of one row (which joins the one before it), M = 1, N = 1, a row
# wider than a block, and a row wider than the draw buffer
_STREAM_CASES = [
    (3, 50, 7, 64),
    (3, 41, 5, 40),
    (2, 1, 9, 8),
    (1, 23, 1, 8),
    (2, 9, 100, 64),
    (2, 5, 2100, 4096),
    (4, 2000, 400, None),
]


@pytest.mark.parametrize("k,m,n,cells", _STREAM_CASES)
def test_simulate_stream_matches_the_library_draw(capsys, tmp_path, monkeypatch, k, m, n, cells):
    from admixid import cli

    if cells is not None:
        monkeypatch.setattr(cli, "_SIMULATE_BLOCK_CELLS", cells)
    pair, f, q = _simulate_pair(tmp_path, k, m, n)
    want = _genotype_join(pair, 11)
    out = tmp_path / "G.csv"
    assert main(["simulate", "--f", f, "--q", q, "--seed", "11", "--output", str(out)]) == 0
    assert out.read_bytes() == want
    capsys.readouterr()
    assert main(["simulate", "--f", f, "--q", q, "--seed", "11"]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == want and captured.err == ""


_SIMULATE_ERRORS = [
    (["--seed", "-1"], "Q.csv", 5, "error: seed must be nonnegative"),
    (["--seed", str(2**64)], "Q.csv", 5,
     "error: seed must be below 2**64, the width of a Philox key word"),
    (["--seed", "1"], "Q3.csv", 3, "error: F has 2 populations but Q has 3"),
    (["--seed", "1"], "Qbad.csv", 5, "error: admixture matrix column 1 sums to 0.9, expected 1"),
]


@pytest.mark.parametrize("extra,q_name,code,line", _SIMULATE_ERRORS)
def test_simulate_errors_write_nothing(capsys, tmp_path, monkeypatch, extra, q_name, code, line):
    from admixid import cli

    monkeypatch.setattr(cli, "_SIMULATE_BLOCK_CELLS", 8)  # F's 9 rows span blocks
    f = write_csv(tmp_path / "F.csv", [[0.5, 0.5]] * 9)
    write_csv(tmp_path / "Q.csv", np.eye(2))
    write_csv(tmp_path / "Q3.csv", np.eye(3)[:, :2])
    write_csv(tmp_path / "Qbad.csv", [[1, 0.5], [0, 0.4]])
    out = tmp_path / "G.csv"
    argv = ["simulate", "--f", f, "--q", str(tmp_path / q_name), *extra]
    assert run(capsys, [*argv, "--output", str(out)]) == (code, "", line + "\n")
    assert not out.exists()
    assert run(capsys, argv) == (code, "", line + "\n")


def test_equiv_self_is_equivalent(capsys, tmp_path, anchor_pair_files):
    code, out, _ = run(
        capsys, ["equiv", "--pair1", str(tmp_path), "--pair2", str(tmp_path)]
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["equivalent"] is True
    assert verdict["permutation"] == [0, 1]


def test_equiv_distinct_pairs_exit_1(capsys, tmp_path):
    d1 = tmp_path / "p1"
    d2 = tmp_path / "p2"
    d1.mkdir()
    d2.mkdir()
    write_csv(d1 / "F.csv", [[0.3, 0.3], [0.7, 0.7]])
    write_csv(d1 / "Q.csv", [[1, 0, 1], [0, 1, 0]])
    write_csv(d2 / "F.csv", [[0.3, 0.3], [0.7, 0.7]])
    write_csv(d2 / "Q.csv", [[1, 0, 0], [0, 1, 1]])
    code, out, _ = run(capsys, ["equiv", "--pair1", str(d1), "--pair2", str(d2)])
    assert code == 1
    verdict = json.loads(out)
    assert verdict["equivalent"] is False
    assert verdict["permutation"] is None


def test_gen_then_check_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "inst"
    code, out, _ = run(
        capsys,
        [
            "gen", "--class", "anchorQ", "--k", "2", "--m", "4", "--n", "5",
            "--seed", "9", "--out-dir", str(out_dir),
        ],
    )
    assert code == 0
    report = json.loads(out)
    code, out, _ = run(
        capsys, ["check", "--f", report["F_path"], "--q", report["Q_path"]]
    )
    assert code == 0
    assert json.loads(out)["member_anchor_q_model"] is True


def test_gen_dimension_bound_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "gen", "--class", "anchorF", "--k", "3", "--m", "2", "--n", "9",
            "--seed", "0", "--out-dir", str(tmp_path),
        ],
    )
    assert code == 3
    assert "requires K <=" in err


def test_gen_without_a_member_to_find_exits_5(capsys, tmp_path):
    # three values in [0, 1] are never pairwise more than 0.6 apart, so no
    # draw of a one-locus F has distinct columns at this tolerance
    code, _, err = run(
        capsys,
        [
            "--tol", "0.6", "gen", "--class", "unadmixed", "--k", "3", "--m", "1",
            "--n", "3", "--seed", "0", "--out-dir", str(tmp_path),
        ],
    )
    assert code == 5
    assert err.startswith("error: GenerationFailed: no unadmixed member found")


def test_gen_negative_seed_exits_5(capsys, tmp_path):
    code, out, err = run(
        capsys,
        [
            "gen", "--class", "anchorQ", "--k", "2", "--m", "4", "--n", "5",
            "--seed", "-1", "--out-dir", str(tmp_path),
        ],
    )
    assert (code, out, err) == (5, "", "error: seed must be nonnegative\n")


def test_tolerance_flag_reaches_equivalence(capsys, tmp_path):
    d1 = tmp_path / "p1"
    d2 = tmp_path / "p2"
    d1.mkdir()
    d2.mkdir()
    write_csv(d1 / "F.csv", [[0.4, 0.6], [0.5, 0.1]])
    write_csv(d1 / "Q.csv", [[1, 0.3], [0, 0.7]])
    write_csv(d2 / "F.csv", [[0.4 + 1e-5, 0.6], [0.5, 0.1 - 1e-5]])
    write_csv(d2 / "Q.csv", [[1, 0.3], [0, 0.7]])
    strict, _, _ = run(capsys, ["equiv", "--pair1", str(d1), "--pair2", str(d2)])
    assert strict == 1
    loose, _, _ = run(
        capsys, ["--tol", "1e-3", "equiv", "--pair1", str(d1), "--pair2", str(d2)]
    )
    assert loose == 0


def test_output_flag_writes_report_file(capsys, tmp_path, anchor_pair_files):
    f, q = anchor_pair_files
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["check", "--f", f, "--q", q, "--output", str(dest)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["K"] == 2


def test_recover_auto_keeps_a_tiny_locus_in_anchor_f(capsys, tmp_path):
    pair = generate_instance("anchorF", 3, 20, 15, 0)
    f = np.vstack([pair.F.values, np.full((1, 3), 1.5e-8)])
    pi = write_csv(tmp_path / "P.csv", f @ pair.Q.values)
    code, out, _ = run(capsys, ["recover", "--pi", pi, "--out-dir", str(tmp_path / "rec")])
    assert code == 0
    report = json.loads(out)
    assert (report["regime"], report["K"]) == ("anchorF", 3)


def test_recover_anchor_q_names_a_column_outside_the_hull(capsys, tmp_path):
    # an anchorF member's columns have more than K extreme points, so the
    # anchorQ attempt is refused by the first column outside the picks' hull
    pair = generate_instance("anchorF", 3, 20, 15, 7)
    p = pair.F.values @ pair.Q.values
    pi = write_csv(tmp_path / "P.csv", p)
    code, _, err = run(capsys, ["recover", "--pi", pi, "--regime", "anchorQ",
                                "--out-dir", str(tmp_path / "rec_q")])
    assert code == 4
    named = re.search(r"anchorQ: column (\d+) lies outside the hull of 3 affinely", err)
    assert named, err
    picks = _successive_projection(p, Tolerance())[1]
    assert convex_decompose(p[:, int(named.group(1))], p[:, picks]) is None
    code, out, _ = run(capsys, ["recover", "--pi", pi, "--out-dir", str(tmp_path / "rec")])
    assert code == 0
    assert json.loads(out)["regime"] == "anchorF"
    rec = FactorPair(FrequencyMatrix(read_matrix(tmp_path / "rec" / "F.csv")),
                     AdmixtureMatrix(read_matrix(tmp_path / "rec" / "Q.csv")))
    assert are_equivalent(rec, pair).equivalent


def missing_anchor_input(tmp_path):
    """M=1, K=10: every flip-and-0.1 shift of column 0 lands on another column."""
    q = np.zeros((10, 9))
    q[np.arange(1, 10), np.arange(9)] = 1.0
    f = write_csv(tmp_path / "F.csv", [[0.05 + 0.1 * j for j in range(10)]])
    return f, write_csv(tmp_path / "Q.csv", q)


def run_in_subprocess(argv):
    """The console entry point in a child process, killed after 60 s.

    For commands that once looped forever: a hang fails the test instead of
    stalling the suite.
    """
    src = str(Path(admixid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "admixid.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_missing_anchor_search_ends_when_every_tenth_collides(tmp_path):
    f, q = missing_anchor_input(tmp_path)
    out_dir = tmp_path / "out"
    proc = run_in_subprocess(["counterexample", "--construction", "unadmixed_missing_anchor",
                              "--f", f, "--q", q, "--out-dir", str(out_dir)])
    assert proc.returncode == 0, proc.stderr
    f2 = read_matrix(out_dir / "F2.csv")
    # the first of the 11 shifts 1/11 apart past the flip 0.95
    assert f2[0, 0] == pytest.approx((0.95 + 1 / 11) % 1.0, abs=1e-12)
    assert np.array_equal(f2[:, 1:], read_matrix(f)[:, 1:])


def test_missing_anchor_without_a_free_shift_exits_5(tmp_path):
    # at eq_tol 0.05 every point of [0, 1) lies within eq_tol of an F column
    f, q = missing_anchor_input(tmp_path)
    proc = run_in_subprocess(["--tol", "0.05", "counterexample", "--construction",
                              "unadmixed_missing_anchor", "--f", f, "--q", q,
                              "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 5
    assert "every replacement tried for column 0" in proc.stderr
