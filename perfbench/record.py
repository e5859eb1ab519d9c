"""Run the benchmark over several seeds and record one BENCH point.

    python3 perfbench/record.py --seeds 0-9 --out perfbench/BENCH_1.json

For every workload in BENCHMARK.json this runs `run.py` once per seed
(end-to-end), then once traced with the first seed, one process at a
time.  It reports each end-to-end metric's median, quartiles and spread
(interquartile distance over the median, as statistics.quantiles gives
the quartiles) next to the metric's bound, and stores every run together
with the machine facts.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=None, help="write the JSON here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": machine(), "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [run_once(bench, name, seed, 0) for seed in seeds]
        entry = {"runs": runs, "end_to_end": {}}
        print(f"{name}: {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)}")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            flag = "ok" if stats["spread"] <= bound / 3 else (
                "WIDE" if stats["spread"] <= bound else "OVER BOUND")
            print(f"  {metric:14s} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bound} {flag}")
        entry["traced"] = run_once(bench, name, seeds[0], 1)
        out["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
