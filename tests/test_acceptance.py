"""End-to-end acceptance checks for the whole package.

Each test covers one headline guarantee, prints a single PASS/FAIL line,
and enforces the stated tolerance exactly. Run with -s to see the lines.
"""

import time
from fractions import Fraction

import numpy as np

from admixid import (
    AdmixtureMatrix,
    ExpectedFreqMatrix,
    FrequencyMatrix,
    anchor_F_rows,
    anchor_Q_columns,
    are_equivalent,
    check_indep_F,
    check_indep_Q,
    generate_instance,
    has_unique_conic_decompositions,
    has_unique_decompositions,
    necessity_F_rows,
    necessity_pq,
    perturb_F_row,
    perturb_interior_Q_column,
    recover_anchor_F,
    recover_anchor_Q,
    recover_unadmixed,
    rotate_R_F,
    rotate_R_Q,
    rotation_matrices_F,
    rotation_matrices_Q,
    simulate_genotypes,
    unadmixed_dup_column,
    unadmixed_missing_anchor,
)
from admixid.matrices import Tolerance, max_abs

from helpers import (
    anchor_f_with_interior_row,
    anchor_q_with_interior,
    basis_q_missing_pop,
    dependent_f_values,
    dependent_q_values,
    interior_q_values,
    minimal_columns,
    minimal_rows,
)

MATCH_TOL = Tolerance(eq_tol=1e-6)
DELTA_GRID = [round(0.05 * i, 2) for i in range(1, 10)]


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def _round_trip(number, label, model_class, recover):
    rng = np.random.default_rng(1000 + number)
    start = time.perf_counter()
    good = 0
    total = 500
    for case in range(total):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k, 13))
        n = int(rng.integers(k, 13))
        pair = generate_instance(model_class, k, m, n, seed=case)
        rec = recover(pair.product())
        if rec.n_pops == k and are_equivalent(pair, rec.pair(), MATCH_TOL).equivalent:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == total and elapsed < 10.0
    report(number, label, ok, f"{good}/{total} matched in {elapsed:.2f}s")


def test_round_trip_anchor_q():
    _round_trip(1, "round trip through recover_anchor_Q", "anchorQ", recover_anchor_Q)


def test_round_trip_anchor_f():
    _round_trip(2, "round trip through recover_anchor_F", "anchorF", recover_anchor_F)


def test_round_trip_unadmixed():
    _round_trip(3, "round trip through recover_unadmixed", "unadmixed", recover_unadmixed)


def _sound(pair) -> bool:
    return pair.product_gap <= 1e-7 and not are_equivalent(
        pair.original, pair.alternative
    ).equivalent


def test_counterexample_soundness():
    rng = np.random.default_rng(404)
    cases = 100
    tally = {}
    for name in (
        "perturb_interior_Q_column",
        "rotate_R_Q",
        "perturb_F_row",
        "rotate_R_F",
        "necessity_pq",
        "necessity_F_rows",
        "unadmixed_dup_column",
        "unadmixed_missing_anchor",
    ):
        hits = 0
        for _ in range(cases):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(k + 1, 9))
            n = int(rng.integers(k + 1, 9))
            if name == "perturb_interior_Q_column":
                pair = perturb_interior_Q_column(
                    FrequencyMatrix(dependent_f_values(rng, m, k)),
                    AdmixtureMatrix(anchor_q_with_interior(rng, k, n)),
                )
            elif name == "rotate_R_Q":
                pair = rotate_R_Q(
                    FrequencyMatrix(rng.uniform(0.05, 0.95, size=(m, k))),
                    AdmixtureMatrix(interior_q_values(rng, k, n)),
                )
            elif name == "perturb_F_row":
                pair = perturb_F_row(
                    FrequencyMatrix(anchor_f_with_interior_row(rng, k, m)),
                    AdmixtureMatrix(dependent_q_values(rng, k, n)),
                )
            elif name == "rotate_R_F":
                pair = rotate_R_F(
                    FrequencyMatrix(rng.uniform(0.05, 0.95, size=(m, k))),
                    AdmixtureMatrix(interior_q_values(rng, k, n)),
                )
            elif name == "necessity_pq":
                pair = necessity_pq(
                    FrequencyMatrix(dependent_f_values(rng, m, k)), n
                )
            elif name == "necessity_F_rows":
                pair = necessity_F_rows(
                    AdmixtureMatrix(dependent_q_values(rng, k, n)), m
                )
            elif name == "unadmixed_dup_column":
                f_vals = rng.uniform(size=(m, k))
                f_vals[:, -1] = f_vals[:, 0]
                pair = unadmixed_dup_column(FrequencyMatrix(f_vals), n)
            else:
                pair = unadmixed_missing_anchor(
                    FrequencyMatrix(rng.uniform(size=(m, k))),
                    AdmixtureMatrix(basis_q_missing_pop(rng, k, n)),
                )
            hits += _sound(pair)
        tally[name] = hits
    ok = all(v == cases for v in tally.values())
    worst = min(tally, key=tally.get)
    report(
        4,
        "all eight counterexample generators certify",
        ok,
        f"{sum(tally.values())}/{8 * cases}, weakest {worst} {tally[worst]}/{cases}",
    )


def test_rotation_algebra_and_memberships():
    rng = np.random.default_rng(505)
    checks = 0
    ok = True
    for delta in DELTA_GRID:
        for k, k0 in ((2, 0), (3, 2), (5, 3)):
            rq, rq_inv = rotation_matrices_Q(k, k0, delta)
            rf, rf_inv = rotation_matrices_F(k, k0, delta)
            ok &= max_abs(rq @ rq_inv - np.eye(k)) <= 1e-12
            ok &= max_abs(rf @ rf_inv - np.eye(k)) <= 1e-12
            checks += 2
        # qualifying inputs at every delta: frequency columns pinned near
        # 1/2, admixture rows bounded below by 0.46
        f = FrequencyMatrix(rng.uniform(0.46, 0.54, size=(4, 2)))
        top = rng.uniform(0.46, 0.54, size=3)
        q = AdmixtureMatrix(np.vstack([top, 1.0 - top]))
        pair_q = rotate_R_Q(f, q, delta=delta)
        ok &= check_indep_F(pair_q.alternative.F)
        ok &= isinstance(pair_q.alternative.Q, AdmixtureMatrix)
        pair_f = rotate_R_F(f, q, delta=delta)
        ok &= check_indep_Q(pair_f.alternative.Q)
        ok &= isinstance(pair_f.alternative.F, FrequencyMatrix)
        checks += 4
    report(
        5,
        "rotation inverses exact and outputs stay in their classes",
        bool(ok),
        f"{checks} checks over deltas {DELTA_GRID[0]}..{DELTA_GRID[-1]}",
    )


def _kernel_vector(rows, n_cols):
    """A nonzero exact rational kernel vector of the matrix, or None."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    if not free:
        return None
    target = free[0]
    w = [Fraction(0)] * n_cols
    w[target] = Fraction(1)
    for row_idx, pivot_col in enumerate(pivots):
        w[pivot_col] = -mat[row_idx][target]
    return w


def _rational_matrix(rng, n_rows, n_cols):
    den = int(rng.integers(5, 24))
    return [
        [Fraction(int(rng.integers(0, den + 1)), den) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def _to_float(mat):
    return np.array([[float(x) for x in row] for row in mat])


def test_convex_uniqueness_against_exact_search():
    """Float rank verdict vs exact rational second-decomposition search.

    The search works at the uniform open combination: a distinct convex
    decomposition of its value exists iff the stacked value-and-sum matrix
    has a nontrivial kernel, and any kernel vector shifts the uniform
    weights into an explicit certified second decomposition.
    """
    rng = np.random.default_rng(606)
    agree = 0
    total = 1000
    for trial in range(total):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        cols = _rational_matrix(rng, m, d)  # one generator per entry row
        if trial % 4 == 1 and m >= 2:
            cols[-1] = list(cols[0])
        elif trial % 7 == 2 and m >= 3:
            cols[-1] = [(a + b) / 2 for a, b in zip(cols[0], cols[1])]
        stacked = [[cols[j][i] for j in range(m)] for i in range(d)]
        stacked.append([Fraction(1)] * m)
        w = _kernel_vector(stacked, m)
        if w is None:
            second = None
        else:
            lam = [Fraction(1, m)] * m
            steps = [lam[i] / -w[i] for i in range(m) if w[i] < 0]
            t = min(steps) / 2  # sum(w)=0 and w!=0 force a negative entry
            second = [lam[i] + t * w[i] for i in range(m)]
            assert all(x > 0 for x in second) and sum(second) == 1
            for i in range(d):
                recon = sum(cols[j][i] * second[j] for j in range(m))
                direct = sum(cols[j][i] * lam[j] for j in range(m))
                assert recon == direct
            assert second != lam
        verdict = has_unique_decompositions(_to_float(cols).T)
        agree += verdict == (second is None)
    report(6, "convex uniqueness matches exact search", agree == total, f"{agree}/{total}")


def test_conic_uniqueness_against_exact_search():
    """Same exact-search protocol for conic decompositions of the row sum."""
    rng = np.random.default_rng(707)
    agree = 0
    total = 1000
    for trial in range(total):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        rows = _rational_matrix(rng, m, d)
        if trial % 4 == 1 and m >= 2:
            scale = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            rows[-1] = [scale * x for x in rows[0]]
        elif trial % 7 == 2 and m >= 3:
            rows[-1] = [(a + b) / 2 for a, b in zip(rows[0], rows[1])]
        transposed = [[rows[j][i] for j in range(m)] for i in range(d)]
        w = _kernel_vector(transposed, m)
        if w is None:
            second = None
        else:
            ones = [Fraction(1)] * m
            steps = [ones[i] / -w[i] for i in range(m) if w[i] < 0]
            t = min(steps) / 2 if steps else Fraction(1)
            second = [ones[i] + t * w[i] for i in range(m)]
            assert all(x >= 0 for x in second)
            for i in range(d):
                recon = sum(second[j] * rows[j][i] for j in range(m))
                direct = sum(rows[j][i] for j in range(m))
                assert recon == direct
            assert second != ones
        verdict = has_unique_conic_decompositions(_to_float(rows))
        agree += verdict == (second is None)
    report(7, "conic uniqueness matches exact search", agree == total, f"{agree}/{total}")


def test_minimal_sets_ignore_scan_order():
    rng = np.random.default_rng(808)
    stable = 0
    total = 200
    for trial in range(total):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        cols = rng.uniform(size=(d, m))
        if trial % 3 == 0:
            cols[:, -1] = cols[:, 0]
        elif trial % 5 == 0 and m >= 3:
            cols[:, -1] = 0.5 * (cols[:, 0] + cols[:, 1])
        rows = rng.uniform(0.05, 1.0, size=(m, d))
        if trial % 3 == 1:
            rows[-1] = 1.7 * rows[0]
        elif trial % 5 == 1 and m >= 3:
            rows[-1] = rows[0] + rows[1]
        base_cols = minimal_columns(cols)
        base_dirs = {
            tuple(np.round(rows[i] / np.linalg.norm(rows[i]), 9))
            for i in minimal_rows(rows)
        }
        consistent = True
        for _ in range(5):
            order = [int(x) for x in rng.permutation(m)]
            if minimal_columns(cols, scan_order=order) != base_cols:
                consistent = False
            got = {
                tuple(np.round(rows[i] / np.linalg.norm(rows[i]), 9))
                for i in minimal_rows(rows, scan_order=order)
            }
            if got != base_dirs:
                consistent = False
        stable += consistent
    report(8, "minimal generating sets are scan-order independent", stable == total,
           f"{stable}/{total}")


def test_rotation_anchor_bookkeeping():
    rng = np.random.default_rng(909)
    cases = 100
    good_q = 0
    for _ in range(cases):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(k, 9))
        k0 = int(rng.integers(0, k))
        f = FrequencyMatrix(rng.uniform(0.1, 0.9, size=(m, k)))
        extra = int(rng.integers(1, 4))
        interior = rng.uniform(0.05, 1.0, size=(k, extra))
        interior /= interior.sum(axis=0)
        cols = np.column_stack([np.eye(k), interior])
        cols = cols[:, rng.permutation(cols.shape[1])]
        q = AdmixtureMatrix(cols)
        before = {j for j, i in enumerate(anchor_Q_columns(q)) if i is not None}
        pair = rotate_R_Q(f, q, k0=k0)
        after = {
            j
            for j, i in enumerate(anchor_Q_columns(pair.alternative.Q))
            if i is not None
        }
        good_q += before == set(range(k)) and after == before - {k0}
    good_f = 0
    for _ in range(cases):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 9))
        k0 = int(rng.integers(0, k))
        extra = int(rng.integers(1, 4))
        anchors = np.eye(k) * rng.uniform(0.2, 1.0, size=k)[:, None]
        interior_rows = rng.uniform(0.05, 0.95, size=(extra, k))
        rows = np.vstack([anchors, interior_rows])
        f = FrequencyMatrix(rows[rng.permutation(rows.shape[0])])
        q = AdmixtureMatrix(interior_q_values(rng, k, n))
        before = {j for j, i in enumerate(anchor_F_rows(f)) if i is not None}
        pair = rotate_R_F(f, q, k0=k0)
        after = {
            j
            for j, i in enumerate(anchor_F_rows(pair.alternative.F))
            if i is not None
        }
        good_f += before == set(range(k)) and after == before - {k0}
    ok = good_q == cases and good_f == cases
    report(9, "rotations remove exactly the targeted anchor", ok,
           f"Q-side {good_q}/{cases}, F-side {good_f}/{cases}")


def test_simulation_fidelity():
    rng = np.random.default_rng(111)
    m = n = 100
    replicates = 200
    base_seed = 4242
    p = rng.uniform(size=(m, n))
    p[0, 0] = 0.0
    p[0, 1] = 1.0
    pi = ExpectedFreqMatrix(p)
    counts = np.zeros((m, n), dtype=np.int64)
    for r in range(replicates):
        counts += simulate_genotypes(pi, seed=base_seed + r).values
    emp = counts / (2.0 * replicates)
    se = np.sqrt(p * (1.0 - p) / (2.0 * replicates))
    within = np.abs(emp - p) <= 4.0 * se
    frac = within.mean()
    rerun = simulate_genotypes(pi, seed=base_seed).values
    first = simulate_genotypes(pi, seed=base_seed).values
    deterministic = np.array_equal(rerun, first)
    ok = frac >= 0.99 and deterministic
    report(10, "simulated frequencies track the expectations", ok,
           f"{frac:.2%} of cells within 4 SE, rerun identical: {deterministic}")
