"""gossipsim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repeat runs in a fresh process
(bench/repeat.py) with BLAS threads pinned to one, until ``--seconds``
have passed and enough per-round samples are in.  With ``--trace 0`` it
reports the end-to-end metrics of untraced repeats; with ``--trace 1``
it alternates untraced and traced repeats and reports per-layer metrics
from the traced spans.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A repeat whose output
check fails, or whose output differs from the other repeats of the same
seed, counts as failed.  ``--smoke`` runs tiny sizes for the self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("node_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MIN_UNTRACED_REPEATS = 3
MIN_ROUND_SAMPLES = 100  # p90 then has at least 10 samples beyond it
# Start no repeat after LAST_START_S and end every one by DEADLINE_S, so
# a run ends within 180 s even if a repeat hangs.
LAST_START_S = 120
DEADLINE_S = 170
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GOSSIPSIM_JOBS"}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(workloads.SRC)
    return env


def run_repeat(name, size, seed, mode, out: Path, timeout: float = DEADLINE_S) -> dict:
    """One repeat in a fresh process; a crash or timeout is a failed repeat."""
    cmd = [sys.executable, str(workloads.BENCH_DIR / "repeat.py"), "--workload", name,
           "--seed", str(seed), "--size", size, "--mode", mode, "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=workloads.ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repeat {out.name} timed out", file=sys.stderr)
        return {"ok": False, "mode": mode, "out": out}
    if proc.returncode != 0:
        print(f"repeat {out.name} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return {"ok": False, "mode": mode, "out": out}
    record = json.loads((out / "result.json").read_text())
    record.update(mode=mode, out=out)
    return record


def guard_determinism(records) -> None:
    """Every repeat of one seed, traced or not, must write identical
    output; a repeat that differs from the first good one fails."""
    good = [r for r in records if r["ok"]]
    if not good:
        return
    first = good[0]["digest"]
    for r in good[1:]:
        if r["digest"] != first:
            print(f"repeat {r['out'].name}: output differs from the first repeat",
                  file=sys.stderr)
            r["ok"] = False


def end_to_end(untraced) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    setups = [s for r in untraced for s in r["setup_s"]]
    rounds = [ms for r in untraced for ms in r["round_ms"]]
    deciles = statistics.quantiles(rounds, n=10)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": deciles[8],
        "node_rounds_per_s": statistics.median(r["node_rounds_per_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    samples = {name: len(untraced) for name, _ in END_TO_END}
    samples.update(setup_s=len(setups), round_ms_p50=len(rounds), round_ms_p90=len(rounds))
    return values, samples


def per_layer(by_mode) -> dict:
    """Median over traced repeats of each per-layer metric, plus the
    metrics that compare repeat modes."""
    layers = []
    for r in by_mode["traced"]:
        spans = sorted((r["out"] / "spans").glob("*.spans.json"))
        layers.append(tracing.layer_metrics(tracing.summarize(tracing.load_parts(spans))))
    values = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
    untraced_s = statistics.median(r["run_s"] for r in by_mode["untraced"])
    traced_s = statistics.median(r["run_s"] for r in by_mode["traced"])
    values["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    serial = by_mode.get("serial")
    values["cli.serial_s"] = statistics.median(r["run_s"] for r in serial) if serial else 0.0
    values["cli.pool_speedup"] = values["cli.serial_s"] / untraced_s if serial else 0.0
    return {m: values[m] for m, _, _ in tracing.PER_LAYER}


def env_record(records) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}
    env.update(next((r["env"] for r in records if "env" in r), {}))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (workloads.SRC / "gossipsim" / "__init__.py").is_file():
        print(f"gossipsim sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    name, size = args.workload, "smoke" if args.smoke else "full"
    modes = ["untraced"]
    if args.trace:
        modes.append("traced")
        if workloads.KIND[name] == "sweep":
            modes.append("serial")
    per_repeat = workloads.intervals_per_repeat(name, size)
    min_cycles = 2 if args.smoke or args.trace else max(
        MIN_UNTRACED_REPEATS, math.ceil(MIN_ROUND_SAMPLES / per_repeat))

    work = workloads.ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    records = []
    start = time.monotonic()
    try:
        cycle = 0
        while cycle < min_cycles or time.monotonic() - start < args.seconds:
            if time.monotonic() - start > LAST_START_S:
                break
            for mode in modes:
                out = work / f"{cycle:03d}-{mode}"
                left = DEADLINE_S - (time.monotonic() - start)
                records.append(run_repeat(name, size, args.seed, mode, out, left))
            cycle += 1
        guard_determinism(records)
        by_mode = {m: [r for r in records if r["ok"] and r["mode"] == m] for m in modes}
        if not all(by_mode.values()):
            print("no successful repeat of some mode; no result", file=sys.stderr)
            return 1
        if args.trace:
            values = per_layer(by_mode)
            units = tracing.UNITS
            samples = {m: len(by_mode["traced"]) for m in values}
        else:
            values, samples = end_to_end(by_mode["untraced"])
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    print("env " + json.dumps(env_record(records), sort_keys=True))
    print(f"workload {name} ({size}) seed {args.seed} -> simulator seed "
          f"{workloads.sim_seed(args.seed)}: {len(records)} repeats, {failed} failed, "
          f"failed_frac {failed / len(records):.4g}")
    for metric in values:
        print(f"  {metric:30s} {values[metric]:14.6g} {units[metric]:9s} n={samples[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
