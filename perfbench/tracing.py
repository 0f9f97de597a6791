"""Spans around the public functions of every admixid module, kept in memory.

Tracer.install() replaces each public function of each admixid module with
a wrapper at every place the package binds it: the defining module, every
module that imported it by name (admixid.recovery.classify, say), the
package namespace, and tables of functions such as the CLI's construction
map. scipy's nnls, lsq_linear and linprog are wrapped where admixid modules
bind them, so only the solves admixid makes are counted. max_abs is called
too often for a span; it is counted only.

A span is (name, parent index, start, end, ok, work): ok is False when the
call raised, work is a size the call handled (cells read or written, rows
drawn). layer_metrics() turns one round's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SOLVERS = ("nnls", "lsq_linear", "linprog")
COUNT_ONLY = {"matrices.max_abs"}
CONSTRUCTIONS = {
    "counterexamples." + name for name in (
        "perturb_interior_Q_column", "rotate_R_Q", "perturb_F_row", "rotate_R_F",
        "necessity_pq", "necessity_F_rows", "unadmixed_dup_column",
        "unadmixed_missing_anchor",
    )
}
RECOVER = {
    "recovery.recover_anchor_Q": "anchorQ",
    "recovery.recover_anchor_F": "anchorF",
    "recovery.recover_unadmixed": "unadmixed",
}


def _cells_read(args, kwargs, result):
    return int(result.size)


def _cells_written(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["values"]))


def _rows_drawn(args, kwargs, result):
    return int(result.values.shape[0])


WORK = {
    "matrixio.read_matrix": _cells_read,
    "matrixio.write_matrix": _cells_written,
    "simulate.simulate_genotypes": _rows_drawn,
}


def _admixid_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "admixid" or name.startswith("admixid."))]


class Tracer:
    """Installs wrappers into the loaded admixid modules and collects spans."""

    def __init__(self):
        self.spans: list = []
        self.max_abs_calls = 0
        self._stack: list[int] = []
        self._restore: list = []

    def take(self) -> tuple[list, int]:
        """The spans and max_abs count since the last take, then reset both."""
        spans, count = self.spans, self.max_abs_calls
        self.spans, self.max_abs_calls = [], 0
        return spans, count

    def _span(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            stack.append(idx)
            ok, result = False, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                amount = work(args, kwargs, result) if (work and ok) else 0
                self.spans[idx] = (name, parent, t0, t1, ok, amount)

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.max_abs_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrappers(self, modules) -> dict:
        """id(original) -> wrapper, for every function worth a span or a count."""
        out = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                elif attr in SOLVERS and value.__module__.startswith("scipy."):
                    name = f"scipy.{attr}"
                else:
                    continue
                if id(value) not in out:
                    out[id(value)] = (self._counter(value) if name in COUNT_ONLY
                                      else self._span(name, value))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _admixid_modules()
        wrappers = self._wrappers(modules)
        for mod in modules:
            space = vars(mod)
            for attr, value in list(space.items()):
                if callable(value) and id(value) in wrappers:
                    self._restore.append((space, attr, value))
                    space[attr] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(id(e) in wrappers for e in entry):
                            self._restore.append((value, key, entry))
                            value[key] = tuple(wrappers.get(id(e), e) for e in entry)

    def uninstall(self) -> None:
        for space, key, value in reversed(self._restore):
            space[key] = value
        self._restore = []


def layer_metrics(spans: list, max_abs_calls: int) -> dict:
    """Per-layer counts and times (s, inclusive of children) of one round.

    cli.self_s is the exception: cli.main time not covered by any child span.
    """
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    child = [0.0] * len(spans)
    failed_recover = 0
    validate = 0.0
    attempts_classify = 0
    for name, parent, t0, t1, ok, amount in spans:
        dur = t1 - t0
        calls[name] += 1
        secs[name] += dur
        work[name] += amount
        if parent >= 0:
            child[parent] += dur
            pname = spans[parent][0]
            if name == "conditions.classify":
                if pname in RECOVER:
                    validate += dur
                elif pname == "simulate.generate_instance":
                    attempts_classify += 1
        if name in RECOVER and not ok:
            failed_recover += 1
    cli_self = sum(t1 - t0 - child[i] for i, (name, _, t0, t1, _, _) in enumerate(spans)
                   if name == "cli.main")
    attempts = sum(calls[name] for name in RECOVER)
    return {
        "recovery.anchorQ_s": secs["recovery.recover_anchor_Q"],
        "recovery.anchorF_s": secs["recovery.recover_anchor_F"],
        "recovery.unadmixed_s": secs["recovery.recover_unadmixed"],
        "recovery.attempts": attempts,
        "recovery.failed_attempts": failed_recover,
        "recovery.useful_ratio": (attempts - failed_recover) / attempts if attempts else 0.0,
        "recovery.validate_s": validate,
        "convex.sweep_s": secs["convex.minimal_generating_columns"],
        "convex.unique_check_s": secs["convex.has_unique_decompositions"],
        "convex.decompose_calls": calls["convex.convex_decompose"],
        "convex.decompose_s": secs["convex.convex_decompose"],
        "convex.nnls_calls": calls["scipy.nnls"],
        "convex.nnls_s": secs["scipy.nnls"],
        "convex.bvls_fallbacks": calls["scipy.lsq_linear"],
        "convex.bvls_s": secs["scipy.lsq_linear"],
        "cones.sweep_s": secs["cones.minimal_conic_generating_rows"],
        "cones.rays_compare_calls": calls["cones.rays_equal_up_to_scaling"],
        "cones.rays_compare_s": secs["cones.rays_equal_up_to_scaling"],
        "cones.lp_calls": calls["scipy.linprog"],
        "cones.lp_s": secs["scipy.linprog"],
        "cones.decompose_calls": calls["cones.conic_decompose"],
        "cones.decompose_s": secs["cones.conic_decompose"],
        "matrices.max_abs_calls": max_abs_calls,
        "matrices.rank_calls": calls["matrices.numeric_rank"],
        "matrices.rank_s": secs["matrices.numeric_rank"],
        "conditions.classify_calls": calls["conditions.classify"],
        "conditions.classify_s": secs["conditions.classify"],
        "matrixio.read_s": secs["matrixio.read_matrix"],
        "matrixio.cells_read": work["matrixio.read_matrix"],
        "matrixio.write_s": secs["matrixio.write_matrix"],
        "matrixio.cells_written": work["matrixio.write_matrix"],
        "simulate.genotypes_s": secs["simulate.simulate_genotypes"],
        "simulate.rows_drawn": work["simulate.simulate_genotypes"],
        "simulate.instance_s": secs["simulate.generate_instance"],
        "simulate.instance_attempts": attempts_classify,
        "counterexamples.calls": sum(calls[name] for name in CONSTRUCTIONS),
        "counterexamples.construct_s": sum(secs[name] for name in CONSTRUCTIONS),
        "equivalence.calls": calls["equivalence.are_equivalent"],
        "equivalence.match_s": secs["equivalence.are_equivalent"],
        "cli.self_s": cli_self,
    }


def write_spans(path, spans: list) -> None:
    """One line per span: index, parent, name, start and duration in us, ok, work."""
    base = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,name,start_us,dur_us,ok,work\n")
        for i, (name, parent, t0, t1, ok, amount) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{(t0 - base) * 1e6:.1f},"
                     f"{(t1 - t0) * 1e6:.1f},{int(ok)},{amount}\n")


def recovery_attempts(spans: list) -> list[dict]:
    """Per recover_* call: regime, seconds, success, and the solves it made."""
    owner = [-1] * len(spans)
    out: dict[int, dict] = {}
    for i, (name, parent, t0, t1, ok, _) in enumerate(spans):
        if name in RECOVER:
            owner[i] = i
            out[i] = {"regime": RECOVER[name], "seconds": t1 - t0, "ok": ok, "nnls": 0,
                      "bvls": 0, "lp": 0, "rays_compare": 0}
        elif parent >= 0:
            owner[i] = owner[parent]
        key = {"scipy.nnls": "nnls", "scipy.lsq_linear": "bvls", "scipy.linprog": "lp",
               "cones.rays_equal_up_to_scaling": "rays_compare"}.get(name)
        if key and owner[i] >= 0:
            out[owner[i]][key] += 1
    return list(out.values())
