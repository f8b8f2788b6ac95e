"""Record the benchmark's baseline: every workload, two seeds, one trace.

Usage (from the repository root):

    python3 bench/baseline.py [--out bench/baseline.json]

Runs each workload untraced on the baseline seed and on every held-out
seed, and traced on the baseline seed; prints every figure of every run
with its unit, and writes them with the machine description, the
workloads' commands and the layer-to-end-to-end map to ``--out``.  The
held-out seeds confirm that every oracle passes on a seed not tuned for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import run
from workloads import LAYER_MOVES, WORKLOADS

BASELINE_SEED = 0
HELD_OUT_SEEDS = (1,)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(run.BENCH / "baseline.json"))
    args = parser.parse_args(argv)

    spec = run.declared_metrics()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "baseline_seed": BASELINE_SEED,
        "held_out_seeds": list(HELD_OUT_SEEDS),
        "workloads": {
            w["name"]: {"why": w["why"],
                        "commands": [" ".join(c.args) for c in
                                     WORKLOADS[w["name"]]]}
            for w in spec["workloads"]},
        "layer_moves": LAYER_MOVES,
        "runs": [],
    }
    failed = 0
    for workload in WORKLOADS:
        plan = [(seed, False) for seed in (BASELINE_SEED,) + HELD_OUT_SEEDS]
        plan.append((BASELINE_SEED, True))
        for seed, trace in plan:
            print(f"== {workload} seed={seed} trace={int(trace)}", flush=True)
            result = run.measure(workload, seed, spec["run_seconds"], trace)
            run.show(result, units)
            for line in result["problems"]:
                print(f"FAILED {line}")
            failed += result["failed"]
            record["runs"].append({
                "workload": workload, "seed": seed, "trace": int(trace),
                "attempted": result["attempted"], "failed": result["failed"],
                "figures": {k: {"value": v, "unit": units.get(k, ""),
                                "samples": result["samples"][k]}
                            for k, v in sorted(result["values"].items())}})
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {args.out}; {failed} failed commands")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
