"""Command-line front door: every capability as a scriptable subcommand.

Exit codes are a stable contract: 0 success or equivalent, 1 not
equivalent, 2 parse failure, 3 dimension mismatch, 4 recovery failed,
5 precondition violated. Reports are JSON; matrices are CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import counterexamples as cx
from .conditions import classify
from .equivalence import are_equivalent
from .matrices import (
    AdmixtureMatrix,
    DimensionMismatch,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    _product_blocks,
)
from .matrixio import ParseError, ShapeError, read_matrix, write_matrix
from .recovery import (
    RecoveryError,
    recover_anchor_F,
    recover_anchor_Q,
    recover_unadmixed,
)
from .simulate import DimensionBound, GenerationFailed, _genotype_blocks, generate_instance

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_RECOVERY = 4
EXIT_PRECONDITION = 5

_PARSE_ERRORS = (ParseError, ShapeError, FileNotFoundError, IsADirectoryError)
_DIMENSION_ERRORS = (DimensionMismatch, DimensionBound)
_PRECONDITION_ERRORS = (cx.PreconditionViolated, GenerationFailed)

# entries of P per block of simulate's stream (1 MiB of doubles): its memory
# stays a few blocks, whatever the number of loci
_SIMULATE_BLOCK_CELLS = 2**17

# each regime's recover function, in the order --regime auto tries them; tuples,
# as in _CONSTRUCTIONS, are where perfbench's tracer finds functions to wrap
_REGIMES = {
    "anchorQ": (recover_anchor_Q,),
    "anchorF": (recover_anchor_F,),
    "unadmixed": (recover_unadmixed,),
}

# each construction's two inputs, by flag name, in call order
_CONSTRUCTIONS = {
    "perturb_interior_Q_column": (("f", "q"), cx.perturb_interior_Q_column),
    "rotate_R_Q": (("f", "q"), cx.rotate_R_Q),
    "perturb_F_row": (("f", "q"), cx.perturb_F_row),
    "rotate_R_F": (("f", "q"), cx.rotate_R_F),
    "necessity_pq": (("f", "n"), cx.necessity_pq),
    "necessity_F_rows": (("q", "m"), cx.necessity_F_rows),
    "unadmixed_dup_column": (("f", "n"), cx.unadmixed_dup_column),
    "unadmixed_missing_anchor": (("f", "q"), cx.unadmixed_missing_anchor),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admixid",
        description="Identifiability tooling for admixture factorizations P = F Q",
    )
    parser.add_argument("--tol", type=float, default=1e-8, metavar="X",
                        help="entrywise equality tolerance (default 1e-8)")
    parser.add_argument("--rank-tol", type=float, default=1e-9, metavar="X",
                        help="relative rank tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify an (F, Q) pair against all conditions")
    p.add_argument("--f", required=True, metavar="PATH", help="frequency matrix CSV")
    p.add_argument("--q", required=True, metavar="PATH", help="admixture matrix CSV")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")

    p = sub.add_parser("recover", help="recover (F, Q) from an expected frequency matrix")
    p.add_argument("--pi", required=True, metavar="PATH", help="expected frequency CSV")
    p.add_argument("--regime", choices=[*_REGIMES, "auto"],
                   default="auto", help="recovery regime (default auto)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for F.csv and Q.csv (default .)")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")

    p = sub.add_parser("counterexample",
                       help="emit a second factor pair with identical product")
    p.add_argument("--construction", required=True, choices=sorted(_CONSTRUCTIONS),
                   metavar="NAME",
                   help="one of: " + ", ".join(sorted(_CONSTRUCTIONS)))
    p.add_argument("--f", metavar="PATH", help="frequency matrix CSV")
    p.add_argument("--q", metavar="PATH", help="admixture matrix CSV")
    p.add_argument("--n", type=int, metavar="INT",
                   help="individual count (necessity_pq, unadmixed_dup_column)")
    p.add_argument("--m", type=int, metavar="INT",
                   help="locus count (necessity_F_rows)")
    p.add_argument("--delta", type=float, metavar="X",
                   help="rotation size in (0, 0.5); auto-detected when omitted")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for F2.csv and Q2.csv (default .)")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")

    p = sub.add_parser("simulate", help="draw genotypes from the product of F and Q")
    p.add_argument("--f", required=True, metavar="PATH", help="frequency matrix CSV")
    p.add_argument("--q", required=True, metavar="PATH", help="admixture matrix CSV")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--output", metavar="PATH", help="genotype CSV destination (default stdout)")

    p = sub.add_parser("equiv", help="test two factor pairs for equality up to relabelling")
    p.add_argument("--pair1", required=True, metavar="DIR",
                   help="directory holding F.csv and Q.csv")
    p.add_argument("--pair2", required=True, metavar="DIR",
                   help="directory holding F.csv and Q.csv")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")

    p = sub.add_parser("gen", help="sample a random member of a model class")
    p.add_argument("--class", dest="model_class", required=True, metavar="C",
                   help="anchorQ, anchorF, unadmixed (aliases M', M'', M''')")
    p.add_argument("--k", type=int, required=True, metavar="K")
    p.add_argument("--m", type=int, required=True, metavar="M")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for F.csv and Q.csv (default .)")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")

    return parser


_PARSER = _build_parser()


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)  # and the newline apart, not a copy of text with it
            fh.write("\n")
    else:
        print(text)


def _load_pair(f_path: str, q_path: str, tol: Tolerance) -> FactorPair:
    F = FrequencyMatrix(read_matrix(f_path), tol)
    Q = AdmixtureMatrix(read_matrix(q_path), tol)
    return FactorPair(F, Q)


def _write_pair(pair, out_dir: str, suffix: str = "") -> dict:
    """Write pair.F and pair.Q as F{suffix}.csv and Q{suffix}.csv; their report keys."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"F_path": str(out / f"F{suffix}.csv"), "Q_path": str(out / f"Q{suffix}.csv")}
    write_matrix(paths["F_path"], pair.F.values)
    write_matrix(paths["Q_path"], pair.Q.values)
    return paths


def _cmd_check(args, tol: Tolerance) -> int:
    pair = _load_pair(args.f, args.q, tol)
    report = classify(pair.F, pair.Q, tol)
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_recover(args, tol: Tolerance) -> int:
    pi = ExpectedFreqMatrix(read_matrix(args.pi), tol)
    order = list(_REGIMES) if args.regime == "auto" else [args.regime]
    result = None
    failures = []
    for regime in order:
        (runner,) = _REGIMES[regime]
        try:
            result = runner(pi, tol)
            break
        except RecoveryError as exc:
            failures.append(f"{regime}: {exc}")
    if result is None:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_RECOVERY
    report = {**result.to_dict(), **_write_pair(result, args.out_dir)}
    _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


def _cmd_counterexample(args, tol: Tolerance) -> int:
    flags, runner = _CONSTRUCTIONS[args.construction]
    kwargs = {"tol": tol}
    if args.construction in ("rotate_R_Q", "rotate_R_F"):
        kwargs["delta"] = args.delta
    elif args.delta is not None:
        print("error: --delta only applies to the rotation constructions",
              file=sys.stderr)
        return EXIT_PRECONDITION
    values = [getattr(args, flag) for flag in flags]
    if any(value in (None, "") for value in values):
        print(f"error: {args.construction} needs --{flags[0]} and --{flags[1]}",
              file=sys.stderr)
        return EXIT_PARSE
    matrix = {"f": FrequencyMatrix, "q": AdmixtureMatrix}
    inputs = [
        matrix[flag](read_matrix(value), tol) if flag in matrix else value
        for flag, value in zip(flags, values)
    ]
    result = runner(*inputs, **kwargs)
    _write_pair(result.alternative, args.out_dir, "2")
    _emit(result.to_json(), args.output)
    return EXIT_OK


def _genotype_text(g: np.ndarray) -> np.ndarray:
    """CSV bytes of one-digit genotypes, each row ending in a newline."""
    text = np.full((g.shape[0], 2 * g.shape[1]), ord(","), dtype=np.uint8)
    np.add(g, ord("0"), out=text[:, 0::2], casting="unsafe")
    text[:, -1] = ord("\n")
    return text


def _cmd_simulate(args, tol: Tolerance) -> int:
    pair = _load_pair(args.f, args.q, tol)
    # every check (F, Q, the product's range, the seed) runs before output opens
    blocks = _product_blocks(pair, _SIMULATE_BLOCK_CELLS, tol)
    genotypes = _genotype_blocks(blocks, args.seed, pair.n_individuals)
    sys.stdout.flush()  # text already printed goes before these bytes
    with open(args.output, "wb") if args.output else nullcontext(sys.stdout.buffer) as fh:
        for g in genotypes:
            fh.write(_genotype_text(g))
        fh.flush()
    return EXIT_OK


def _cmd_equiv(args, tol: Tolerance) -> int:
    def load_dir(d: str) -> FactorPair:
        return _load_pair(str(Path(d) / "F.csv"), str(Path(d) / "Q.csv"), tol)

    verdict = are_equivalent(load_dir(args.pair1), load_dir(args.pair2), tol)
    _emit(verdict.to_json(), args.output)
    return EXIT_OK if verdict.equivalent else EXIT_NOT_EQUIVALENT


def _cmd_gen(args, tol: Tolerance) -> int:
    pair = generate_instance(args.model_class, args.k, args.m, args.n, args.seed, tol)
    report = {
        "model_class": args.model_class,
        "K": args.k,
        "M": args.m,
        "N": args.n,
        "seed": args.seed,
        **_write_pair(pair, args.out_dir),
    }
    _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        tol = Tolerance(eq_tol=args.tol, rank_tol=args.rank_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    handlers = {
        "check": _cmd_check,
        "recover": _cmd_recover,
        "counterexample": _cmd_counterexample,
        "simulate": _cmd_simulate,
        "equiv": _cmd_equiv,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args, tol)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DIMENSION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        # domain validation failures on otherwise well-formed input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
