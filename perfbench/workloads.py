"""The benchmark's workloads: seeded inputs, the command chain, its checks.

A workload is a list of planted instances, plus for `toolkit` a set of
inputs that violate one condition each. Setup samples them from the
workload seed with numpy (never through admixid) and writes them as CSV.
One round runs every step once, in order; every round runs the same steps.

Per planted instance the chain is: gen, recover --regime auto on P = F Q,
equiv of the planted pair against the recovered one, check on the recovered
pair, simulate on the planted pair, and one counterexample that applies.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import read_csv, require, write_csv

# (class, K, M, N) of the planted instances of each workload
RECOVER_ANCHOR_Q = [
    ("anchorQ", 3, 150, 120),
    ("anchorQ", 4, 250, 200),
    ("anchorQ", 5, 300, 250),
    ("anchorQ", 5, 400, 300),
]
RECOVER_ANCHOR_F = [
    ("anchorF", 3, 100, 80),
    ("anchorF", 4, 130, 100),
    ("anchorF", 5, 160, 120),
    ("anchorF", 5, 190, 140),
]
TOOLKIT = [
    ("anchorQ", 3, 40, 30),
    ("anchorQ", 4, 60, 50),
    ("anchorF", 3, 40, 30),
    ("anchorF", 4, 60, 50),
    ("unadmixed", 3, 40, 30),
    ("unadmixed", 4, 60, 50),
]
# a simulate large enough that genotype text and the per-row draws show
TOOLKIT_BIG_SIMULATE = ("anchorQ", 4, 2000, 400)

# the construction that applies to a member of each class
APPLICABLE = {"anchorQ": "rotate_R_Q", "anchorF": "rotate_R_F", "unadmixed": "rotate_R_Q"}

WORKLOADS = ("recover-anchorQ", "recover-anchorF", "toolkit")
BUCKETS = ("recover", "verdict", "generate")


@dataclass
class Step:
    """One timed command call and the check of its output."""

    bucket: str
    argv: list[str]
    expect: int
    check: Callable[[], None]
    outputs: list[Path] = field(default_factory=list)


# ---- seeded inputs ---------------------------------------------------------

def sample_member(model_class: str, k: int, m: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random member of a class, anchors planted at random positions."""
    for _ in range(100):
        F = rng.uniform(0.05, 0.95, size=(m, k))
        if model_class == "anchorQ":
            Q = rng.uniform(size=(k, n))
            Q /= Q.sum(axis=0)
            Q[:, rng.choice(n, size=k, replace=False)] = np.eye(k)
        elif model_class == "anchorF":
            F[rng.choice(m, size=k, replace=False)] = np.diag(rng.uniform(0.2, 1.0, size=k))
            Q = rng.uniform(0.05, 1.0, size=(k, n))
            Q /= Q.sum(axis=0)
        else:
            assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            rng.shuffle(assignment)
            Q = np.eye(k)[:, assignment]
        flags = checks.conditions(F, Q)
        # indep_F too, so that a member of any class also has a rotate_R_Q
        if flags[checks.MEMBER_FLAG[model_class]] and (model_class == "anchorF" or flags["indep_F"]):
            return F, Q
    raise RuntimeError(f"no {model_class} member sampled for K={k}, M={m}, N={n}")


def dependent_F(rng, m: int, k: int) -> np.ndarray:
    """Distinct columns, the last the midpoint of the first two (not indep_F)."""
    F = rng.uniform(0.1, 0.9, size=(m, k))
    F[:, -1] = 0.5 * (F[:, 0] + F[:, 1])
    return F


def dependent_Q(rng, k: int, n: int) -> np.ndarray:
    """Column-stochastic with its last two rows equal (not indep_Q)."""
    Q = rng.uniform(0.1, 1.0, size=(k, n))
    Q[-1] = Q[-2]
    return Q / Q.sum(axis=0)


def violating_inputs(rng) -> dict:
    """Inputs of the six constructions that need a violated condition.

    name -> (construction, F or None, Q or None, extra argv).
    """
    k = 4
    anchored_q = rng.uniform(0.1, 1.0, size=(k, 20))
    anchored_q /= anchored_q.sum(axis=0)
    anchored_q[:, :k] = np.eye(k)
    anchored_f = rng.uniform(0.1, 0.9, size=(12, 3))
    anchored_f[:3] = np.diag(rng.uniform(0.3, 0.9, size=3))
    dup_f = rng.uniform(0.1, 0.9, size=(12, 3))
    dup_f[:, 2] = dup_f[:, 1]
    assignment = np.concatenate([[0, 1], rng.integers(0, 2, size=18)])
    return {
        "interior-q": ("perturb_interior_Q_column", dependent_F(rng, 12, k), anchored_q, []),
        "f-row": ("perturb_F_row", anchored_f, dependent_Q(rng, 3, 20), []),
        "pq": ("necessity_pq", dependent_F(rng, 12, k), None, ["--n", "20"]),
        "f-rows": ("necessity_F_rows", None, dependent_Q(rng, 3, 20), ["--m", "12"]),
        "dup-column": ("unadmixed_dup_column", dup_f, None, ["--n", "20"]),
        "missing-anchor": ("unadmixed_missing_anchor", rng.uniform(0.1, 0.9, size=(12, 3)),
                           np.eye(3)[:, assignment], []),
    }


def write_pair(d: Path, F, Q) -> None:
    d.mkdir(parents=True, exist_ok=True)
    write_csv(d / "F.csv", F)
    write_csv(d / "Q.csv", Q)


def read_pair(d: Path, f_name: str = "F.csv", q_name: str = "Q.csv"):
    return read_csv(d / f_name), read_csv(d / q_name)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---- the chain ---------------------------------------------------------------

class Workload:
    """Inputs written under a work directory and the steps of one round."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.dir = workdir
        self.steps: list[Step] = []
        self._digests: dict[str, str] = {}

    def setup(self) -> None:
        """Sample and write every input, then lay out the round's steps."""
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.name)])
        plan = {"recover-anchorQ": RECOVER_ANCHOR_Q,
                "recover-anchorF": RECOVER_ANCHOR_F,
                "toolkit": TOOLKIT}[self.name]
        for i, spec in enumerate(plan):
            self._chain(i, spec, rng, extended=self.name == "toolkit")
        if self.name == "toolkit":
            for name, (construction, F, Q, extra) in violating_inputs(rng).items():
                self._construction(name, construction, F, Q, extra)
            self._big_simulate(len(plan), rng)

    # each command's step -------------------------------------------------

    def _same_bytes(self, key: str, path: Path) -> None:
        """Identical arguments must give identical bytes in every round."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self._digests.setdefault(key, digest)
        require(digest == first, f"{key}: output bytes differ from the first round's")

    def _gen(self, name: str, spec, seed: int) -> None:
        model_class, k, m, n = spec
        out = self.dir / name / "gen"

        def check():
            F, Q = read_pair(out)
            checks.check_gen(F, Q, model_class, k, m, n)
            self._same_bytes(f"{name}/gen/F", out / "F.csv")
            self._same_bytes(f"{name}/gen/Q", out / "Q.csv")

        self.steps.append(Step(
            "generate",
            ["gen", "--class", model_class, "--k", str(k), "--m", str(m), "--n", str(n),
             "--seed", str(seed), "--out-dir", str(out), "--output", str(out / "report.json")],
            0, check, [out / "F.csv", out / "Q.csv", out / "report.json"]))

    def _recover(self, name: str, regime: str, pair, P, out: Path, state: dict) -> None:
        planted = self.dir / name / "planted"

        def check():
            F_hat, Q_hat = read_pair(out)
            report = read_json(out / "report.json")
            state["perm"] = checks.check_recover(P, pair[0], pair[1], F_hat, Q_hat)
            require(report.get("K") == pair[0].shape[1], f"recover reported K={report.get('K')}")

        self.steps.append(Step(
            "recover",
            ["recover", "--pi", str(planted / "P.csv"), "--regime", regime,
             "--out-dir", str(out), "--output", str(out / "report.json")],
            0, check, [out / "F.csv", out / "Q.csv", out / "report.json"]))

    def _equiv(self, pair1: Path, pair2: Path, report: Path, equivalent: bool,
               perm: Callable[[], list[int] | None]) -> None:
        code = 0 if equivalent else 1

        def check():
            checks.check_equiv(read_json(report), code, equivalent, perm())

        self.steps.append(Step(
            "verdict",
            ["equiv", "--pair1", str(pair1), "--pair2", str(pair2), "--output", str(report)],
            code, check, [report]))

    def _check(self, pair_dir: Path, report: Path, model_class: str | None) -> None:
        def check():
            F, Q = read_pair(pair_dir)
            checks.check_classify(read_json(report), F, Q, model_class)

        self.steps.append(Step(
            "verdict",
            ["check", "--f", str(pair_dir / "F.csv"), "--q", str(pair_dir / "Q.csv"),
             "--output", str(report)],
            0, check, [report]))

    def _simulate(self, name: str, P, seed: int) -> None:
        planted = self.dir / name / "planted"
        out = self.dir / name / "genotypes.csv"

        def check():
            checks.check_genotypes(out.read_bytes(), P)
            self._same_bytes(f"{name}/simulate", out)

        self.steps.append(Step(
            "generate",
            ["simulate", "--f", str(planted / "F.csv"), "--q", str(planted / "Q.csv"),
             "--seed", str(seed), "--output", str(out)],
            0, check, [out]))

    def _counterexample(self, name: str, construction: str, argv: list[str],
                        original: Path | None) -> Path:
        """The construction's step; its check also lays out both pairs for equiv.

        original is the directory of the input pair, or None when the original
        pair exists only in the report (constructions from one factor).
        """
        base = self.dir / name / "cx"
        out, orig_dir, alt_dir = base / "out", base / "original", base / "alternative"
        report = base / "report.json"

        def check():
            F2, Q2 = read_pair(out, "F2.csv", "Q2.csv")
            if original is None:
                data = read_json(report)["original"]
                F, Q = np.array(data["F"], dtype=float), np.array(data["Q"], dtype=float)
                write_pair(orig_dir, F, Q)
            else:
                F, Q = read_pair(original)
            checks.check_counterexample(F, Q, F2, Q2)
            alt_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / "F2.csv", alt_dir / "F.csv")
            shutil.copyfile(out / "Q2.csv", alt_dir / "Q.csv")

        outputs = [out / "F2.csv", out / "Q2.csv", report, alt_dir / "F.csv", alt_dir / "Q.csv"]
        if original is None:
            outputs += [orig_dir / "F.csv", orig_dir / "Q.csv"]
        self.steps.append(Step(
            "generate",
            ["counterexample", "--construction", construction, *argv,
             "--out-dir", str(out), "--output", str(report)],
            0, check, outputs))
        return orig_dir if original is None else original

    # the chains ---------------------------------------------------------------

    def _chain(self, i: int, spec, rng, extended: bool) -> None:
        model_class, k, m, n = spec
        name = f"{i}-{model_class}-K{k}-M{m}-N{n}"
        F, Q = sample_member(model_class, k, m, n, rng)
        P = F @ Q
        planted = self.dir / name / "planted"
        write_pair(planted, F, Q)
        write_csv(planted / "P.csv", P)
        state: dict = {}
        seed = 1000 * self.seed + i

        self._gen(name, spec, seed)
        rec = self.dir / name / "recovered"
        self._recover(name, "auto", (F, Q), P, rec, state)
        self._equiv(planted, rec, self.dir / name / "equiv.json", True, lambda: state["perm"])
        self._check(rec, self.dir / name / "check.json", model_class)
        self._simulate(name, P, seed)
        argv = ["--f", str(planted / "F.csv"), "--q", str(planted / "Q.csv")]
        original = self._counterexample(name, APPLICABLE[model_class], argv, planted)
        if not extended:
            return
        self._equiv(original, self.dir / name / "cx" / "alternative",
                    self.dir / name / "cx" / "equiv.json", False, lambda: None)
        perm = [int(j) for j in rng.permutation(k)]
        if perm == list(range(k)):
            perm = perm[1:] + perm[:1]
        relabelled = self.dir / name / "relabelled"
        write_pair(relabelled, F[:, perm], Q[perm])
        self._equiv(planted, relabelled, self.dir / name / "equiv-relabelled.json", True,
                    lambda: perm)
        if model_class == "unadmixed":
            self._recover(name, "unadmixed", (F, Q), P, self.dir / name / "recovered-unadmixed", {})

    def _construction(self, name: str, construction: str, F, Q, extra: list[str]) -> None:
        inputs = self.dir / name / "input"
        inputs.mkdir(parents=True, exist_ok=True)
        argv = list(extra)
        if F is not None:
            write_csv(inputs / "F.csv", F)
            argv += ["--f", str(inputs / "F.csv")]
        if Q is not None:
            write_csv(inputs / "Q.csv", Q)
            argv += ["--q", str(inputs / "Q.csv")]
        if F is not None and Q is not None:
            self._check(inputs, self.dir / name / "check.json", None)
        original = self._counterexample(
            name, construction, argv, inputs if F is not None and Q is not None else None)
        self._equiv(original, self.dir / name / "cx" / "alternative",
                    self.dir / name / "cx" / "equiv.json", False, lambda: None)

    def _big_simulate(self, i: int, rng) -> None:
        model_class, k, m, n = TOOLKIT_BIG_SIMULATE
        name = f"{i}-{model_class}-K{k}-M{m}-N{n}"
        F, Q = sample_member(model_class, k, m, n, rng)
        write_pair(self.dir / name / "planted", F, Q)
        seed = 1000 * self.seed + i
        self._gen(name, TOOLKIT_BIG_SIMULATE, seed)
        self._simulate(name, F @ Q, seed)


def warmup_argvs(workdir: Path) -> list[list[str]]:
    """One call of every command on a tiny anchorF pair; auto tries two regimes on it."""
    F, Q = sample_member("anchorF", 3, 8, 8, np.random.default_rng(12345))
    d = workdir / "warmup"
    write_pair(d, F, Q)
    write_csv(d / "P.csv", F @ Q)
    f, q = str(d / "F.csv"), str(d / "Q.csv")
    return [
        ["gen", "--class", "anchorQ", "--k", "2", "--m", "4", "--n", "4", "--seed", "0",
         "--out-dir", str(d / "gen"), "--output", str(d / "gen.json")],
        ["recover", "--pi", str(d / "P.csv"), "--out-dir", str(d / "rec"),
         "--output", str(d / "rec.json")],
        ["equiv", "--pair1", str(d), "--pair2", str(d), "--output", str(d / "equiv.json")],
        ["check", "--f", f, "--q", q, "--output", str(d / "check.json")],
        ["simulate", "--f", f, "--q", q, "--seed", "0", "--output", str(d / "G.csv")],
        ["counterexample", "--construction", "rotate_R_F", "--f", f, "--q", q,
         "--out-dir", str(d / "cx"), "--output", str(d / "cx.json")],
    ]
