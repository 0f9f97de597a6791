"""Run every workload, one process each, and print its metrics with units.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Prints one table per workload with attempted and failed calls, and writes
all results to .perfbench_runs/summary-seed<N>-trace<T>.json. Exits 1 when
any workload failed a call or an output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = result
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
    out = ROOT / ".perfbench_runs" / f"summary-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
