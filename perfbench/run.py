"""htlc-arena benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload exact-verify --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
Every unit runs single-threaded and closed-loop (one caller, one unit at
a time) and is checked against the references under `perfbench/refs/`.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
units once untraced and once traced and prints the per-layer metrics.
The last line of stdout is one JSON object; human-readable lines come
before it.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh processes timed from start to ready inputs; setup_s is their median.
SETUP_SAMPLES = 5
#: p99.9 is left out: on a shared host it measured preemption, not the
#: engine (its spread across seeds reached 30-40 %).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: Re-anchor figures from the ROADMAP, shown next to the traced values.
REANCHOR = {"ledger.apply_block.us": 16.0,
            "ledger.apply_block.share_of_play": 0.35}


def import_engine() -> None:
    """Import htlc_arena from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "htlc_arena").is_dir():
        raise SystemExit(f"error: no engine sources under {src}")
    sys.path.insert(0, str(src))
    import htlc_arena
    if src.resolve() not in Path(htlc_arena.__file__).resolve().parents:
        raise SystemExit(f"error: htlc_arena imported from {htlc_arena.__file__}")


def settle_gc() -> None:
    """Collect, then exempt everything alive (the benchmark's inputs) from
    later collections, so those scan only what the units allocate."""
    gc.collect()
    gc.freeze()


def execute(units, refs, tracer=None, keep=False) -> tuple:
    """Run every unit once.

    Returns (speed-scaled latencies in s, raw latencies in s, failed
    indices, outputs).  Raw latencies leave out the speed probes' own time.
    """
    raw, bounds, failed, kept = [], [], set(), []
    with speed.SpeedProbe(tracer.exclude if tracer else None) as probe:
        for i, unit in enumerate(units):
            if tracer is not None:
                tracer.begin_unit(i)
            out, error = None, None
            spent = probe.spent
            t0 = time.perf_counter()
            try:
                out = unit.call()
            except Exception:
                error = traceback.format_exc()
            t1 = time.perf_counter()
            raw.append(t1 - t0 - (probe.spent - spent))
            bounds.append((t0, t1))
            if tracer is not None:
                tracer.end_unit()
            if error is None:
                try:
                    if not unit.check(out, refs):
                        error = "output differs from the reference\n"
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                if not failed:
                    print(f"unit {i} ({unit.key}) failed: {error}", end="",
                          file=sys.stderr)
                failed.add(i)
            kept.append(out if keep else None)
    scaled = [t * probe.scale(*b) for t, b in zip(raw, bounds)]
    return scaled, raw, failed, kept


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest ladder percentile with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def time_setup(args) -> float:
    """Wall time of a fresh process that imports and builds the inputs,
    scaled by probes taken just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    before = speed.scale_now()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return elapsed * (before + speed.scale_now()) / 2


def mark_nondeterministic(first: list, second: list, failed: set) -> None:
    for i, (a, b) in enumerate(zip(first, second)):
        if a is None or b is None or a[1] != b[1]:
            failed.add(i)


def end_to_end(args, workloads, workdir: Path) -> dict:
    setups = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    make = workloads.WORKLOADS[args.workload]
    mc = args.workload in workloads.MC_WORKLOADS
    units = make(args.seed, args.seconds, workdir)
    refs = workloads.load_refs(args.workload, args.seed)
    settle_gc()
    latencies, raw, failed, outputs = execute(units, refs, keep=mc)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mc:
        # Each job again with its seed: reports must be byte-identical.
        again = execute(units, refs, keep=True)[3]
        mark_nondeterministic(outputs, again, failed)
    n = len(units)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (n / sum(latencies), "1/s"),
        "unit_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "unit_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"# {args.workload} seed={args.seed}: {n} units, {len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(f"fail_frac\t{len(failed) / n:.6g}\tratio\t# {len(failed)} of {n}")
    beyond = n - math.ceil(pct / 100 * n)
    print(f"# unit_tail_ms is p{pct:g} of {n} samples ({beyond} beyond it); "
          f"setup_s is the median of {SETUP_SAMPLES}: "
          + " ".join(f"{s:.3f}" for s in setups))
    print(f"# times are scaled to the speed probe (speed.py); unscaled: "
          f"units_per_s {n / sum(raw):.6g}, "
          f"unit_p50_ms {statistics.median(raw) * 1e3:.6g}")
    return {"correct": not failed, "attempted": n, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(args, workloads, workdir: Path) -> dict:
    import spans
    make = workloads.WORKLOADS[args.workload]
    mc = args.workload in workloads.MC_WORKLOADS
    refs = workloads.load_refs(args.workload, args.seed)
    plain_dir, traced_dir = workdir / "plain", workdir / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    units = make(args.seed, args.seconds, plain_dir)
    settle_gc()
    plain, _, failed, first = execute(units, refs, keep=mc)
    # Fresh inputs, so nothing the untraced pass cached on them is reused.
    units = make(args.seed, args.seconds, traced_dir)
    tracer = spans.Tracer()
    settle_gc()
    tracer.install()
    try:
        spanned, spanned_raw, failed_traced, second = execute(
            units, refs, tracer, keep=mc)
    finally:
        tracer.uninstall()
    failed |= failed_traced
    if mc:
        # Same jobs, same seeds, tracing on: reports must be byte-identical.
        mark_nondeterministic(first, second, failed)
    # Span times get the traced pass's overall speed scale.
    scale = sum(spanned) / sum(spanned_raw)
    metrics = {name: value * scale if spans.metric_unit(name) in ("us", "ms", "s")
               else value for name, value in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = sum(spanned) / sum(plain) - 1
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    print(f"# {args.workload} seed={args.seed} traced: {len(units)} units, "
          f"{len(failed)} failed, {len(tracer.start)} spans in {spans_path}")
    for name, value in metrics.items():
        note = (f"\t# re-anchor {REANCHOR[name]:g}" if name in REANCHOR else "")
        print(f"{name}\t{value:.6g}\t{spans.metric_unit(name)}{note}")
    return {"correct": not failed, "attempted": len(units),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": spans.metric_unit(k)}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-verify", "mc-repeat", "mc-distinct",
                                 "play-fuzz"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)
    import_engine()
    import workloads
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
            return 0
        run = traced if args.trace else end_to_end
        result = run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
