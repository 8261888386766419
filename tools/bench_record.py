"""Record one checkout's benchmark as ``BENCH_<short-sha>.json``.

    python tools/bench_record.py [--checkout DIR]

Runs ``bench/run.py --trace 0`` of the checkout at DIR (default: this
repository) on each workload its ``BENCHMARK.json`` declares, one after
another, with seed 0 and that file's ``run_seconds``, and writes
``BENCH_<short-sha>.json`` at the root of this repository.  The file
holds, per workload, the run's final JSON line and its ``env`` record,
plus the commit and the git tree of the checkout's ``src``, which names
the measured code even after a history rewrite.
The checkout must have no uncommitted change under ``src/`` or
``bench/``, so that the commit in the name is the code that ran, and no
``__pycache__`` there, so that every run compiles the same sources.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def cached_bytecode(checkout: Path) -> list:
    """The checkout's ``__pycache__`` directories under ``src`` and
    ``bench``: a run would load them, and read less ``peak_rss_mb`` than a
    run that compiles the package."""
    return sorted(str(p) for top in ("src", "bench") for p in (checkout / top).rglob("__pycache__"))


def run_workload(checkout: Path, name: str, seconds: float, seed: int) -> dict:
    """One untraced ``bench/run.py`` run: its env record and final line.
    No process writes bytecode, so with no :func:`cached_bytecode` in the
    checkout every run compiles the package."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: bench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[len("env "):] for line in lines if line.startswith("env ")))
    # the imported package's path, relative to the checkout it came from
    module = Path(env.get("gossipsim", ""))
    if module.is_relative_to(checkout):
        env["gossipsim"] = str(module.relative_to(checkout))
    return {"env": env, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    if _git(checkout, "status", "--porcelain", "--", "src", "bench"):
        print(f"{checkout}: uncommitted changes under src/ or bench/", file=sys.stderr)
        return 2
    if caches := cached_bytecode(checkout):
        print(f"{checkout}: remove the bytecode caches {caches}", file=sys.stderr)
        return 2
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sha = _git(checkout, "rev-parse", "--short", "HEAD")
    record = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "src_tree": _git(checkout, "rev-parse", "HEAD:src"),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        record["workloads"][name] = run_workload(checkout, name, seconds, SEED)
        print(f"{name}: done", file=sys.stderr)
    out = ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
