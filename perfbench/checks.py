"""Output checks for the admixid commands, written with numpy alone.

Each check recomputes what the command's answer must satisfy from the
definitions in the package README (tolerances, class conditions, the
genotype model) and raises CheckFailed when it does not. Nothing here calls
admixid, and nothing compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools

import numpy as np

EQ_TOL = 1e-8
RANK_TOL = 1e-9


class CheckFailed(Exception):
    """A command's output does not satisfy its specification."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_csv(path, values) -> None:
    np.savetxt(path, np.asarray(values, dtype=float), fmt="%.17g", delimiter=",")


def max_abs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def rank(a: np.ndarray) -> int:
    """Singular values above RANK_TOL * max(shape) * max|entry| (README definition)."""
    if a.size == 0:
        return 0
    cutoff = RANK_TOL * max(a.shape) * max_abs(a)
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > cutoff))


def basis_distances(Q: np.ndarray) -> np.ndarray:
    """d[k, i] = max_j |Q[j, i] - e_k[j]|, the distance of column i from e_k."""
    k_pops = Q.shape[0]
    return np.abs(Q[None, :, :] - np.eye(k_pops)[:, :, None]).max(axis=1)


def anchor_row_mask(F: np.ndarray) -> np.ndarray:
    """a[s, k]: row s is positive in population k and zero elsewhere."""
    k_pops = F.shape[1]
    pos = F > EQ_TOL
    zero = F <= EQ_TOL
    mask = np.empty_like(pos)
    for k in range(k_pops):
        mask[:, k] = pos[:, k] & np.delete(zero, k, axis=1).all(axis=1)
    return mask


def conditions(F: np.ndarray, Q: np.ndarray) -> dict:
    """Every condition flag and class membership of a pair, from the definitions."""
    m, k_pops = F.shape
    n = Q.shape[1]
    d = basis_distances(Q)
    is_basis = d <= EQ_TOL
    anchor_q = bool(is_basis.any(axis=1).all())
    anchor_f = bool(anchor_row_mask(F).any(axis=0).all())
    indep_f = k_pops == 1 or rank(F[:, :-1] - F[:, -1:]) == k_pops - 1
    indep_q = rank(Q) == k_pops
    gaps = [max_abs(F[:, a] - F[:, b])
            for a, b in itertools.combinations(range(k_pops), 2)]
    distinct = all(g > EQ_TOL for g in gaps)
    unadmixed = bool(is_basis.any(axis=0).all()) and anchor_q
    return {
        "anchor_F": anchor_f,
        "anchor_Q": anchor_q,
        "indep_F": indep_f,
        "indep_Q": indep_q,
        "distinct_cols_F": distinct,
        "unadmixed_Q": unadmixed,
        "member_anchor_q_model": indep_f and anchor_q and k_pops <= min(m + 1, n),
        "member_anchor_f_model": anchor_f and indep_q and k_pops <= min(m, n),
        "member_unadmixed_model": distinct and unadmixed and k_pops <= n,
    }


MEMBER_FLAG = {
    "anchorQ": "member_anchor_q_model",
    "anchorF": "member_anchor_f_model",
    "unadmixed": "member_unadmixed_model",
}


def check_valid_pair(F: np.ndarray, Q: np.ndarray) -> None:
    """F in [0, 1]; Q in [0, 1] with unit column sums; shapes agree."""
    require(F.ndim == 2 and Q.ndim == 2 and F.shape[1] == Q.shape[0],
            f"pair shapes do not agree: F {F.shape}, Q {Q.shape}")
    require(F.min() >= -EQ_TOL and F.max() <= 1 + EQ_TOL, "F leaves [0, 1]")
    require(Q.min() >= -EQ_TOL and Q.max() <= 1 + EQ_TOL, "Q leaves [0, 1]")
    require(max_abs(Q.sum(axis=0) - 1.0) <= EQ_TOL, "Q columns do not sum to 1")


def matching_permutations(F1, Q1, F2, Q2, tol: float = EQ_TOL) -> list[list[int]]:
    """Every perm with F2[:, k] ~ F1[:, perm[k]] and Q2[k] ~ Q1[perm[k]] for all k."""
    k_pops = F1.shape[1]
    if F2.shape != F1.shape or Q2.shape != Q1.shape:
        return []
    out = []
    for perm in itertools.permutations(range(k_pops)):
        p = list(perm)
        if max_abs(F2 - F1[:, p]) <= tol and max_abs(Q2 - Q1[p]) <= tol:
            out.append(p)
    return out


def check_gen(F: np.ndarray, Q: np.ndarray, model_class: str, k: int, m: int, n: int) -> None:
    """gen: an M x K, K x N pair that is a member of the requested class."""
    require(F.shape == (m, k) and Q.shape == (k, n),
            f"gen wrote F {F.shape} and Q {Q.shape}, expected ({m}, {k}) and ({k}, {n})")
    check_valid_pair(F, Q)
    require(conditions(F, Q)[MEMBER_FLAG[model_class]],
            f"gen output is not a member of {model_class}")


def check_recover(P, F, Q, F_hat, Q_hat) -> list[int]:
    """recover: the planted pair up to one relabelling, and F_hat Q_hat ~ P.

    Returns perm with F_hat[:, k] ~ F[:, perm[k]], the permutation that equiv
    must report for pair1 = planted, pair2 = recovered.
    """
    require(F_hat.ndim == 2 and Q_hat.ndim == 2 and F_hat.shape[1] == Q_hat.shape[0],
            f"recovered shapes do not agree: F {F_hat.shape}, Q {Q_hat.shape}")
    require(F_hat.shape == F.shape and Q_hat.shape == Q.shape,
            f"recovered K={F_hat.shape[1]}, planted K={F.shape[1]}")
    check_valid_pair(F_hat, Q_hat)
    resid = max_abs(F_hat @ Q_hat - P)
    require(resid <= 10 * EQ_TOL, f"reconstruction residual {resid:.3g} exceeds 10x eq_tol")
    perms = matching_permutations(F, Q, F_hat, Q_hat)
    require(len(perms) == 1, f"{len(perms)} relabellings map the recovered pair onto the planted one")
    return perms[0]


def check_equiv(report: dict, code: int, equivalent: bool, perm: list[int] | None) -> None:
    """equiv: exit 0 with the known permutation, or exit 1 with none."""
    require(code == (0 if equivalent else 1), f"equiv exited {code}")
    require(report.get("equivalent") is equivalent,
            f"equiv reported equivalent={report.get('equivalent')}")
    if equivalent:
        require(report.get("permutation") == perm,
                f"equiv permutation {report.get('permutation')}, expected {perm}")


def check_classify(report: dict, F: np.ndarray, Q: np.ndarray,
                   model_class: str | None = None) -> None:
    """check: flags agree with the definitions, every witness holds."""
    m, k_pops = F.shape
    n = Q.shape[1]
    require([report.get("K"), report.get("M"), report.get("N")] == [k_pops, m, n],
            "check reported wrong dimensions")
    expected = conditions(F, Q)
    for flag, value in expected.items():
        require(report.get(flag) is value, f"check reported {flag}={report.get(flag)}, expected {value}")
    if model_class is not None:
        require(report[MEMBER_FLAG[model_class]], f"planted {model_class} pair is not reported a member")
    d = basis_distances(Q)
    cols = report.get("anchor_Q_cols")
    require(isinstance(cols, list) and len(cols) == k_pops, "anchor_Q_cols has the wrong length")
    for k, i in enumerate(cols):
        if i is None:
            require(not (d[k] <= EQ_TOL).any(), f"population {k} has an anchor column but none was reported")
        else:
            require(0 <= i < n and d[k, i] <= EQ_TOL, f"column {i} is not an anchor of population {k}")
    mask = anchor_row_mask(F)
    rows = report.get("anchor_F_rows")
    require(isinstance(rows, list) and len(rows) == k_pops, "anchor_F_rows has the wrong length")
    for k, s in enumerate(rows):
        if s is None:
            require(not mask[:, k].any(), f"population {k} has an anchor row but none was reported")
        else:
            require(0 <= s < m and mask[s, k], f"row {s} is not an anchor of population {k}")


def check_counterexample(F, Q, F2, Q2) -> None:
    """counterexample: the same product within eq_tol and no relabelling between pairs."""
    check_valid_pair(F2, Q2)
    require(F2.shape[0] == F.shape[0] and Q2.shape[1] == Q.shape[1],
            "alternative pair has a different product shape")
    gap = max_abs(F2 @ Q2 - F @ Q)
    require(gap <= EQ_TOL, f"product gap {gap:.3g} exceeds eq_tol")
    require(not matching_permutations(F, Q, F2, Q2),
            "the alternative is a relabelling of the original")


def parse_genotypes(data: bytes, m: int, n: int) -> np.ndarray:
    """M lines of N single-character cells separated by commas, LF ends."""
    require(len(data) == 2 * m * n, f"genotype text has {len(data)} bytes, expected {2 * m * n} for {m}x{n}")
    b = np.frombuffer(data, dtype=np.uint8).reshape(m, n, 2)
    seps = np.full((m, n), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    require(np.array_equal(b[:, :, 1], seps), "genotype text is not an M x N comma-separated grid")
    return b[:, :, 0].astype(np.int64) - ord("0")


def check_genotypes(data: bytes, P: np.ndarray) -> None:
    """simulate: M x N entries in {0, 1, 2} whose mean tracks 2P within 6 SE."""
    m, n = P.shape
    G = parse_genotypes(data, m, n)
    require(bool(((G >= 0) & (G <= 2)).all()), "a genotype lies outside {0, 1, 2}")
    # G ~ Binomial(2, P) cellwise, so Var(G/2 - P) = P(1 - P)/2
    se = float(np.sqrt(np.sum(P * (1 - P) / 2))) / (m * n)
    bias = float(np.mean(G / 2 - P))
    require(abs(bias) <= 6 * se, f"mean(G/2 - P) = {bias:.3g} is beyond 6 standard errors ({se:.3g})")
