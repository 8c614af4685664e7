#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a BENCH_<label>.json.

    python3 bench/collect.py --label 0 --seeds 1-10 [--workloads a,b] [--trace 0]

Runs `bench/run.py` once per (workload, seed), one at a time, and records
every run's result line plus, per metric, the median, the quartiles
(`statistics.quantiles(n=4)`) and their distance as a share of the median.
The file goes to bench/baselines/ unless --out is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    out = args.out or BENCH_DIR / "baselines" / f"BENCH_{args.label}.json"
    report = {"label": args.label, "run_seconds": config["run_seconds"], "trace": args.trace,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": None, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            env = next(l for l in lines if l.startswith("environment "))
            report["environment"] = dict(kv.split("=", 1) for kv in env.split()[1:])
            result = json.loads(lines[-1])
            printed = {l.split()[1]: float(l.split()[2]) for l in lines
                       if l.startswith("metric ") and l.split()[1] not in result["metrics"]}
            runs.append({"seed": seed, "elapsed_s": elapsed, "printed": printed, **result})
            values = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
                              if args.trace == 0)
            print(f"{name} seed {seed} {elapsed:.1f}s correct={result['correct']} {values}",
                  flush=True)
        metrics = runs[0]["metrics"]
        report["workloads"][name] = {
            "runs": runs,
            "summary": {k: {"unit": metrics[k]["unit"],
                            **summarize([r["metrics"][k]["value"] for r in runs])}
                        for k in metrics},
        }
        for k, s in report["workloads"][name]["summary"].items():
            if args.trace == 0:
                print(f"  {k}: median {s['median']:.5g} iqr/median {s['iqr_share']:.4f}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
