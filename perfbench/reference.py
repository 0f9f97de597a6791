"""One traced `recover --regime auto` per class, at a size too slow for every run.

    python3 perfbench/reference.py --k 5 --m 1000 --n 800 --seed 1

Each instance comes from the `gen` command (generate_instance), its product
is written as P.csv, and one traced recover call runs on it. Prints the
wall time of the call, each recovery attempt with its solver counts, and
the per-layer metrics of the call. Work files go under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

import run  # pins BLAS threads before numpy loads
import checks
import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--m", type=int, default=1000)
    parser.add_argument("--n", type=int, default=800)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--classes", default="anchorQ,anchorF,unadmixed")
    args = parser.parse_args(argv)
    cli = run.load_cli()
    run.RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.RUNS)
    try:
        for model_class in args.classes.split(","):
            d = f"{workdir}/{model_class}"
            code = cli.main(["gen", "--class", model_class, "--k", str(args.k), "--m", str(args.m),
                             "--n", str(args.n), "--seed", str(args.seed), "--out-dir", d,
                             "--output", f"{d}/gen.json"])
            if code != 0:
                raise SystemExit(f"gen exited {code}")
            F, Q = checks.read_csv(f"{d}/F.csv"), checks.read_csv(f"{d}/Q.csv")
            checks.write_csv(f"{d}/P.csv", F @ Q)
            tracer = tracing.Tracer()
            tracer.install()
            t0 = time.perf_counter()
            try:
                code = cli.main(["recover", "--pi", f"{d}/P.csv", "--out-dir", f"{d}/rec",
                                 "--output", f"{d}/rec.json"])
            finally:
                wall = time.perf_counter() - t0
                tracer.uninstall()
            spans, max_abs_calls = tracer.take()
            print(json.dumps({
                "class": model_class, "K": args.k, "M": args.m, "N": args.n, "seed": args.seed,
                "exit": code, "wall_s": round(wall, 3),
                "attempts": [{k: round(v, 3) if isinstance(v, float) else v for k, v in a.items()}
                             for a in tracing.recovery_attempts(spans)],
                "layers": {k: round(v, 4) if isinstance(v, float) else v
                           for k, v in tracing.layer_metrics(spans, max_abs_calls).items()},
            }))
            sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
