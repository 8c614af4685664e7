#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

For every workload it runs one untraced and one traced measurement window
and checks that: every metric BENCHMARK.json names is emitted with its unit
and nothing else; the printed-only metrics are there; no job failed; the
per-layer names in BENCHMARK.json are the ones the ledger computes; and the
traced spans nest (each child's interval lies inside its parent's, in the
same job). Exits 1 with one line per problem, 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run


def check_nesting(spans) -> list[str]:
    problems = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end and p.job == s.job and s.parent < i):
            problems.append(f"span {i} {s.name} is not inside its parent {s.parent} {p.name}")
    return problems


def main() -> int:
    run.configure()
    import ledger
    import workloads

    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    problems = []
    if declared[0] != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared[0]} != run.END_TO_END")
    if declared[1] != ledger.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from ledger.PER_LAYER")
    if sorted(w["name"] for w in config["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name, spec in workloads.TINY.items():
        for trace in (0, 1):
            result, printed, tracer = run.run_benchmark(name, spec, 1, 0.1, bool(trace))
            where = f"{name} trace={trace}"
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{where}: emitted {emitted}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
            want = {"error_rate"}
            if name == "experiment-mini":
                want |= {"joint_accuracy_mean", "intent_accuracy_mean"}
            if set(printed) != want:
                problems.append(f"{where}: printed-only metrics {sorted(printed)}")
            if tracer is not None:
                problems += [f"{where}: {p}" for p in check_nesting(tracer.spans)]
                names = {s.name for s in tracer.spans}
                for layer in ("nnet.forward", "nnet.step", "textcore.corpus_from_text"):
                    if layer not in names:
                        problems.append(f"{where}: no {layer} span")
            print(f"{where}: {result['attempted']} jobs, {len(emitted)} metrics")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
