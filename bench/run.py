#!/usr/bin/env python3
"""Benchmark for warplm: one workload, one seed, one measurement window.

    python3 bench/run.py --workload pretrain-v30k --seed 0 --seconds 60 --trace 0

Run from the repository root (the package is imported from ./src). An
untraced run first launches SETUP_SAMPLES fresh interpreters in turn, each
importing the package and building the inputs; the median of those times is
`setup_s`. It then repeats the workload's job in a closed loop until
`--seconds` have passed since the run began: the first job is a warm-up
whose time is discarded (the first job in a process is slower), every job's
outputs are checked, and each metric is the median over the timed jobs.
With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates traced and untraced jobs and reports
the per-layer metrics of the traced ones (spans are written to .bench_out/).
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS thread: the VM has 2 cores shared with other tenants, and the
# desk-size matmuls run faster single-threaded.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter set-ups timed at the start of an untraced run. One set-up
# lasts 0.3-0.6 s and single samples jitter by +-30% on a shared host, so a
# run reports their median. They are timed in one block, not between jobs, so
# that the jobs get most of the window.
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MiB",
    "final_val_ppl": "ppl",
}
# Printed by name but not part of the JSON result: error_rate is 0 on a
# correct program (the JSON carries it as failed / attempted), and
# the accuracies exist only for experiment-mini.
PRINTED_ONLY = {"error_rate": "ratio", "joint_accuracy_mean": "ratio",
                "intent_accuracy_mean": "ratio"}


def configure() -> dict:
    """Pin BLAS threads, put ./src first on sys.path and import the package
    from there. Must run before numpy is imported. Returns the environment."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    package = SRC / "warplm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found: {package}")
    sys.path.insert(0, str(SRC))
    import numpy
    import warplm

    if Path(warplm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: warplm imported from {warplm.__file__}, not {package}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(spec, seed: int) -> float:
    """Seconds for a fresh interpreter to import the package and build the
    workload's inputs from the seed: what a user pays before the first
    training step.

    The child reports the time itself, against the launch instant read from
    the shared monotonic clock, because `subprocess.run` with a timeout
    polls for the child's exit in steps of up to 50 ms."""
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; import workloads; "
        f"workloads.make(workloads.{spec!r}).setup({seed}); import time; "
        f"print(time.perf_counter() - {time.perf_counter()!r})"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout)


@dataclass
class Job:
    index: int
    traced: bool
    wall_s: float
    outcome: object  # workloads.Outcome, or None when the job raised

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def ok(self) -> bool:
        return self.done and not self.outcome.failures


def run_benchmark(name: str, spec, seed: int, seconds: float, trace: bool):
    """Run one measurement window. Returns (result dict, printed-only metrics,
    tracer or None). Raises RuntimeError when every job raised."""
    import ledger
    import spans
    import workloads

    wl = workloads.make(spec)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        # Set-up spans carry job id 0; job 0 is the untraced warm-up.
        with tracer.active(), tracer.span("bench.setup"):
            inputs = wl.setup(seed)
    else:
        inputs = wl.setup(seed)

    run_dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    jobs: list[Job] = []
    reference = None  # digest of the first job's outputs
    start = time.perf_counter()
    setups = [] if trace else [measure_setup(spec, seed) for _ in range(SETUP_SAMPLES)]
    try:
        while True:
            k = len(jobs)
            traced = tracer is not None and k % 2 == 1
            job_dir = run_dir / f"job{k}"
            wall, outcome = 0.0, None
            try:
                if traced:
                    tracer.job = k
                    with tracer.active(), tracer.span("bench.job"):
                        t = time.perf_counter()
                        result = wl.job(inputs, seed, job_dir)
                        wall = time.perf_counter() - t
                else:
                    t = time.perf_counter()
                    result = wl.job(inputs, seed, job_dir)
                    wall = time.perf_counter() - t
                outcome = wl.outcome(inputs, result, seed, job_dir)
                if reference is None:
                    reference = outcome.digest
                elif outcome.digest != reference:
                    outcome.failures.append(
                        "outputs differ from the first (untraced) job of this run"
                        + (" with tracing on" if traced else "")
                    )
            except Exception:
                traceback.print_exc()
            finally:
                shutil.rmtree(job_dir, ignore_errors=True)
            jobs.append(Job(k, traced, wall, outcome))
            status = "ok" if jobs[-1].ok else "FAILED"
            kind = "traced" if traced else "untraced"
            print(f"job {k} {kind} {wall:.3f} s {status}")
            if outcome is not None:
                for f in outcome.failures:
                    print(f"check failed: job {k}: {f}", file=sys.stderr)
            timed = [j for j in jobs[1:] if j.done and not j.traced]
            enough = timed and (tracer is None or any(j.traced for j in jobs))
            if enough and time.perf_counter() - start + wall > seconds:
                break
            if len(jobs) >= 3 and not any(j.done for j in jobs):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Jobs whose checks failed still ran to the end, so they are timed; the
    # result then says correct: false.
    timed = [j for j in jobs[1:] if j.done and not j.traced]
    if not timed:
        raise RuntimeError("no timed job ran to completion")
    failed = sum(not j.ok for j in jobs)
    wall_s = statistics.median(j.wall_s for j in timed)
    first = timed[0].outcome
    printed = {"error_rate": failed / len(jobs)}
    if first.joint_accuracy_mean is not None:
        printed["joint_accuracy_mean"] = first.joint_accuracy_mean
        printed["intent_accuracy_mean"] = first.intent_accuracy_mean

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "tokens_per_s": first.tokens / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_val_ppl": first.final_val_ppl,
        }
        units = END_TO_END
    else:
        traced = [j for j in jobs if j.traced and j.done]
        if not traced:
            raise RuntimeError("no traced job ran to completion")
        per_job = [ledger.layer_metrics(tracer.spans, {0, j.index}, j.wall_s) for j in traced]
        steps = ledger.train_step_ms(tracer.spans, {j.index for j in traced})
        overhead = statistics.median(j.wall_s for j in traced) / wall_s
        values = ledger.combine(per_job, steps, overhead)
        units = ledger.PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    return result, printed, tracer


def main(argv=None) -> int:
    env = configure()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        result, printed, tracer = run_benchmark(
            args.workload, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for k, m in result["metrics"].items():
        print(f"metric {k} {m['value']:.6g} {m['unit']}")
    for k, v in printed.items():
        print(f"metric {k} {v:.6g} {PRINTED_ONLY[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
