"""Regenerate reference.json: the final-row values each workload's output
must reproduce, for every simulator seed and both sizes.

    python3 bench/make_reference.py

Run it only when a change to gossipsim is meant to change its numbers,
and say why in the change that commits the new file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import repeat
import run
import workloads


def main() -> int:
    work = workloads.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for size in ("full", "smoke"):
            for name in workloads.NAMES:
                pinned = reference.setdefault(size, {}).setdefault(name, {})
                for seed in range(workloads.REFERENCE_SEEDS):
                    out = work / f"{size}-{name}-{seed}"
                    record = run.run_repeat(name, size, seed, "untraced", out)
                    failing = [c for c, ok in record.get("checks", {}).items()
                               if not ok and c != "reference"]
                    if "checks" not in record or failing:
                        print(f"{size} {name} seed {seed}: checks failed {failing}",
                              file=sys.stderr)
                        return 1
                    if workloads.KIND[name] == "net":
                        pinned[str(seed)] = record["finals"]
                    else:
                        root = out / "sweep" if workloads.KIND[name] == "sweep" else out
                        pinned[str(seed)] = repeat.final_values(
                            root, sorted(root.rglob("trace.csv")))
                    print(f"{size} {name} seed {seed} pinned", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
