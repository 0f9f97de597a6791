"""Tests of the benchmark's output checks and of its traced counts.

    python3 -m pytest perfbench/tests

Each check must accept a right answer and reject a known-wrong one. The
last tests run the benchmark itself and take about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import sample_member  # noqa: E402


@pytest.fixture
def planted():
    rng = np.random.default_rng(7)
    F, Q = sample_member("anchorQ", 4, 30, 25, rng)
    return F, Q, F @ Q


def rotation(F, Q, delta=0.05):
    """rotate_R_Q by hand: (F R^-1, R Q) for the block on populations (0, 1)."""
    R = np.eye(F.shape[1])
    R[0, 1], R[1, 1] = delta, 1 - delta
    return F @ np.linalg.inv(R), R @ Q


def test_recover_accepts_a_relabelled_pair(planted):
    F, Q, P = planted
    perm = [2, 0, 3, 1]
    assert checks.check_recover(P, F, Q, F[:, perm], Q[perm]) == perm


def test_recover_rejects_F_permuted_without_Q(planted):
    F, Q, P = planted
    with pytest.raises(CheckFailed):
        checks.check_recover(P, F, Q, F[:, [2, 0, 3, 1]], Q)


def test_recover_rejects_a_perturbed_product(planted):
    F, Q, P = planted
    F_hat = F.copy()
    F_hat[3, 1] += 1e-6
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_recover(P, F, Q, F_hat, Q)


def test_recover_rejects_a_different_population_count(planted):
    F, Q, P = planted
    # the trivial factorization F = P, Q = I reproduces P exactly
    with pytest.raises(CheckFailed, match="K="):
        checks.check_recover(P, F, Q, P, np.eye(P.shape[1]))


def test_counterexample_accepts_a_rotation(planted):
    F, Q, _ = planted
    checks.check_counterexample(F, Q, *rotation(F, Q))


def test_counterexample_rejects_a_perturbed_product(planted):
    F, Q, _ = planted
    F2, Q2 = rotation(F, Q)
    F2[0, 0] += 1e-6
    with pytest.raises(CheckFailed, match="product gap"):
        checks.check_counterexample(F, Q, F2, Q2)


def test_counterexample_rejects_a_relabelling(planted):
    F, Q, _ = planted
    perm = [1, 0, 3, 2]
    with pytest.raises(CheckFailed, match="relabelling"):
        checks.check_counterexample(F, Q, F[:, perm], Q[perm])


def genotype_text(G: np.ndarray) -> bytes:
    return ("\n".join(",".join(str(int(x)) for x in row) for row in G) + "\n").encode()


def test_genotypes_accept_a_binomial_draw(planted):
    _, _, P = planted
    G = np.random.default_rng(3).binomial(2, P)
    checks.check_genotypes(genotype_text(G), P)


def test_genotypes_reject_a_three(planted):
    _, _, P = planted
    G = np.random.default_rng(3).binomial(2, P)
    G[4, 5] = 3
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_genotypes(genotype_text(G), P)


def test_genotypes_reject_a_biased_draw(planted):
    _, _, P = planted
    G = np.random.default_rng(3).binomial(2, np.clip(P + 0.15, 0, 1))
    with pytest.raises(CheckFailed, match="standard errors"):
        checks.check_genotypes(genotype_text(G), P)


def test_genotypes_reject_a_wrong_shape(planted):
    _, _, P = planted
    G = np.random.default_rng(3).binomial(2, P)
    with pytest.raises(CheckFailed):
        checks.check_genotypes(genotype_text(G[:, :-1]), P)


def test_gen_rejects_a_pair_without_an_anchor(planted):
    F, Q, _ = planted
    checks.check_gen(F, Q, "anchorQ", 4, 30, 25)
    anchor = int(np.argmax((checks.basis_distances(Q)[2] <= checks.EQ_TOL)))
    Q2 = Q.copy()
    Q2[:, anchor] = 0.25
    with pytest.raises(CheckFailed, match="not a member"):
        checks.check_gen(F, Q2, "anchorQ", 4, 30, 25)


def report_of(F, Q) -> dict:
    flags = checks.conditions(F, Q)
    d = checks.basis_distances(Q) <= checks.EQ_TOL
    rows = checks.anchor_row_mask(F)
    return {
        "K": F.shape[1], "M": F.shape[0], "N": Q.shape[1], **flags,
        "anchor_Q_cols": [int(np.argmax(d[k])) if d[k].any() else None for k in range(F.shape[1])],
        "anchor_F_rows": [int(np.argmax(rows[:, k])) if rows[:, k].any() else None
                          for k in range(F.shape[1])],
    }


def test_classify_accepts_true_witnesses_and_rejects_false_ones(planted):
    F, Q, _ = planted
    report = report_of(F, Q)
    checks.check_classify(report, F, Q, "anchorQ")
    wrong = dict(report, anchor_Q_cols=[(i + 1) % Q.shape[1] for i in report["anchor_Q_cols"]])
    with pytest.raises(CheckFailed, match="not an anchor"):
        checks.check_classify(wrong, F, Q, "anchorQ")
    with pytest.raises(CheckFailed, match="indep_F"):
        checks.check_classify(dict(report, indep_F=False), F, Q)


def test_equiv_rejects_a_wrong_permutation():
    checks.check_equiv({"equivalent": True, "permutation": [1, 0]}, 0, True, [1, 0])
    with pytest.raises(CheckFailed):
        checks.check_equiv({"equivalent": True, "permutation": [0, 1]}, 0, True, [1, 0])
    with pytest.raises(CheckFailed):
        checks.check_equiv({"equivalent": True, "permutation": [1, 0]}, 0, False, None)


def run_benchmark(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "toolkit", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly_and_match_benchmark_json():
    first, second = run_benchmark(1), run_benchmark(1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = {name: v["value"] for name, v in first["metrics"].items() if v["unit"] != "s"}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert all(counts[name] > 0 for name in counts)


def test_untraced_run_prints_every_end_to_end_metric():
    result = run_benchmark(0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
