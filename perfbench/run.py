"""Benchmark of the admixid commands, run in-process through cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload per process, on one thread, with the BLAS thread count pinned
to one. Setup samples the workload's inputs from --seed, writes them under
.perfbench_runs/ and makes one untimed warm-up call of every command. Then
whole rounds run until --seconds have passed (at least two rounds); a round
calls every command of the workload's chain once per instance, and checks
each output with perfbench/checks.py. A run of the calibration kernel
(calibrate.py) follows the set-up and every round, and every time is
reported in reference seconds: wall seconds scaled by the kernel runs
around it.

--trace 0 prints the end-to-end metrics: the time of a round's recover,
verdict (check, equiv) and generate (gen, simulate, counterexample) calls,
each the median over rounds; the median set-up time of this process and two
set-up-only child processes; and the peak resident memory. --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones (see tracing.py). The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import BUCKETS, Workload, warmup_argvs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
MIN_ROUNDS = 2
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "recover_s": "s",
    "verdict_s": "s",
    "generate_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["recover-anchorQ", "recover-anchorF", "toolkit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit (used for the set-up median)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    return args


def load_cli():
    """admixid.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "admixid" / "__init__.py").is_file():
        sys.exit(f"error: no admixid sources under {src}")
    sys.path.insert(0, str(src))
    from admixid import cli

    if Path(cli.__file__).resolve().parent != src / "admixid":
        sys.exit(f"error: admixid was imported from {cli.__file__}, not {src}")
    return cli


class Runner:
    """Times command calls and counts attempted and failed ones."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # an escaped exception is a failed call, not a crash
            return f"{type(exc).__name__}: {exc}"

    def run_round(self, steps) -> dict[str, float]:
        """Every step once; the wall seconds each bucket's calls took.

        Garbage left by earlier calls is collected before each call, untimed,
        so that a call pays for the collections its own allocations start
        and not for those its predecessors left pending.
        """
        times = dict.fromkeys(BUCKETS, 0.0)
        for step in steps:
            for path in step.outputs:
                path.unlink(missing_ok=True)
            gc.collect()
            t0 = time.perf_counter()
            code = self.call(step.argv)
            times[step.bucket] += time.perf_counter() - t0
            self.attempted += 1
            try:
                if code != step.expect:
                    raise RuntimeError(f"exit {code!r}, expected {step.expect}")
                step.check()
            except Exception as exc:  # any failed check fails this call only
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {' '.join(step.argv[:3])}: {exc}", file=sys.stderr)
        return times


def machine_seconds() -> float:
    """The median of three kernel runs: how long the kernel takes right now."""
    return statistics.median(calibrate.kernel_seconds() for _ in range(3))


def probe_setup(args) -> float:
    """Set-up time, in reference seconds, of a fresh process that stops after setting up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_rounds(runner, steps, seconds: float, kernel_s: float, tracer=None) -> list:
    """Whole rounds until `seconds` have passed, and at least MIN_ROUNDS.

    With a tracer, each round is an untraced pass and a traced pass. Returns
    one (bucket times, scale, spans) per pass: scale turns the pass's wall
    seconds into reference seconds, from the mean of the kernel runs just
    before and after it; spans is (spans, max_abs calls) of a traced pass.
    """
    passes, before = [], kernel_s
    modes = (False, True) if tracer else (False,)
    t0 = time.perf_counter()
    while len(passes) < MIN_ROUNDS * len(modes) or time.perf_counter() - t0 < seconds:
        for traced in modes:
            if traced:
                tracer.install()
            try:
                times = runner.run_round(steps)
            finally:
                if traced:
                    tracer.uninstall()
            after = calibrate.kernel_seconds()
            scale = 2 * calibrate.REFERENCE_S / (before + after)
            before = after
            passes.append((times, scale, tracer.take() if traced else None))
    return passes


def end_to_end(passes) -> dict:
    """Each bucket's median round, in reference seconds."""
    return {f"{bucket}_s": statistics.median(times[bucket] * scale for times, scale, _ in passes)
            for bucket in BUCKETS}


def per_layer(passes, spans_file: Path) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes, and whether every count repeated.

    Times are medians in reference seconds, counts those of the first traced
    pass; the spans of the first traced pass are written to spans_file.
    """
    plain = [sum(times.values()) * scale for times, scale, spans in passes if spans is None]
    traced = [sum(times.values()) * scale for times, scale, spans in passes if spans is not None]
    layers = [(tracing.layer_metrics(*spans), scale) for _, scale, spans in passes if spans]
    tracing.write_spans(spans_file, next(spans for _, _, spans in passes if spans)[0])
    metrics, repeat = {}, True
    for name in layers[0][0]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(layer[name] * scale for layer, scale in layers)
        else:
            metrics[name] = layers[0][0][name]
            repeat = repeat and all(layer[name] == metrics[name] for layer, _ in layers)
    if not repeat:
        print("FAILED: per-layer counts differ between traced rounds", file=sys.stderr)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, repeat


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS))
    try:
        workload = Workload(args.workload, args.seed, workdir)
        workload.setup()
        runner = Runner(cli)
        for argv in warmup_argvs(workdir):
            code = runner.call(argv)
            if code != 0:
                print(f"warm-up {argv[0]} exited {code!r}", file=sys.stderr)
        setup_wall = time.perf_counter() - _START
        gc.freeze()  # the set-up's objects: kept out of every later collection
        kernel_s = machine_seconds()
        setup_s = setup_wall * calibrate.REFERENCE_S / kernel_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        tracer = tracing.Tracer() if args.trace else None
        passes = run_rounds(runner, workload.steps, args.seconds, kernel_s, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = True
    if args.trace:
        metrics, correct = per_layer(passes, RUNS / f"trace-{label}.csv")
    else:
        metrics = end_to_end(passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = statistics.median(probes)
        metrics = {name: metrics[name] for name in END_TO_END}
    result = {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    # the result file adds this process's wall-clock figures, for reference
    wall = {"setup_s": setup_wall, "kernel_s": kernel_s,
            "round_s": statistics.median(sum(times.values()) for times, _, _ in passes)}
    (RUNS / f"result-{label}.json").write_text(
        json.dumps({**result, "wall_seconds": wall}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
