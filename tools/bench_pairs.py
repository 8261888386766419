"""Compare a parent and a change checkout with alternating benchmark pairs.

    python tools/bench_pairs.py --parent DIR [--change DIR] --workload NAME
        [--pairs N] [--seed S]

Runs ``bench/run.py --trace 0`` of both checkouts N times (default 10)
on one workload, alternating which side runs first in each pair, the way
``tools/bench_record.py`` runs one side: no process writes bytecode, and
neither checkout may hold a ``__pycache__`` under ``src`` or ``bench``.
``--change`` defaults to this repository; every run lasts the change's
``BENCHMARK.json`` ``run_seconds``.  Each pair is printed as one JSON
line as it ends.  Then, per end-to-end metric of the change's
``BENCHMARK.json``, one line gives the pairs the change won, both
medians, the parent's quartiles (``statistics.quantiles``' default
method) and whether the claim rule holds: the change better in at least
nine pairs of ten, and its median better than the parent's by more than
the parent's interquartile range.  A failed repeat on either side is
printed too.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from bench_record import ROOT, cached_bytecode, run_workload


def claim_rule(parent: list, change: list, better: str) -> dict:
    """Wins, medians, the parent's quartiles and the rule's verdict for
    one metric's per-pair values."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    low, _, high = statistics.quantiles(parent, n=4)
    p50, c50 = statistics.median(parent), statistics.median(change)
    holds = wins >= math.ceil(0.9 * len(parent)) and sign * (p50 - c50) > high - low
    return {"wins": wins, "pairs": len(parent), "parent": p50, "change": c50,
            "parent_q1": low, "parent_q3": high, "claim_holds": holds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if caches := cached_bytecode(checkout):
            parser.error(f"remove the bytecode caches {caches}")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values = {side: [] for side in sides}
    failed = {side: 0 for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        line = {"pair": pair, "first": order[0]}
        for side in order:
            result = run_workload(sides[side], args.workload, seconds, args.seed)["result"]
            failed[side] += result["failed"]
            line[side] = {m: v["value"] for m, v in result["metrics"].items()}
            values[side].append(line[side])
        print(json.dumps(line), flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s; failed "
          f"repeats: parent {failed['parent']}, change {failed['change']}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = claim_rule([v[name] for v in values["parent"]],
                         [v[name] for v in values["change"]], metric["better"])
        print(f"  {name:18s} {row['parent']:.4g} -> {row['change']:.4g} {metric['unit']}"
              f" [parent quartiles {row['parent_q1']:.4g}-{row['parent_q3']:.4g}],"
              f" change better in {row['wins']}/{row['pairs']},"
              f" claim rule {'holds' if row['claim_holds'] else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
