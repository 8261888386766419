"""Workload definitions for the gossipsim benchmark.

Each workload is a config recipe at two sizes: ``full`` (what the
benchmark measures) and ``smoke`` (a tiny version the self-test runs).
The simulator seed is ``bench_seed % REFERENCE_SEEDS`` so that every
benchmark seed has pinned reference values in ``reference.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

REFERENCE_SEEDS = 16
# Final-row trace values must match the pinned reference to this relative
# tolerance; it admits a reordered floating-point sum, not a changed model.
REFERENCE_RTOL = 1e-6

NAMES = ("ridge-n100", "softmax-sgd", "net-n2000", "sweep-jobs2")

# How a workload is driven: "trace" runs engine.run_simulation and writes
# trace.csv, "net" loops engine.advance_round on a hand-assembled suite,
# "sweep" runs `gossipsim sweep` through cli.main.
KIND = {
    "ridge-n100": "trace",
    "softmax-sgd": "trace",
    "net-n2000": "net",
    "sweep-jobs2": "sweep",
}

_CONFIGS = {
    "ridge-n100": {
        "full": {"n": 100, "rounds": 50, "churn": {"dropout_p": 0.1},
                 "suite": {"kind": "ridge", "total": 2000}},
        "smoke": {"n": 10, "rounds": 12, "churn": {"dropout_p": 0.1},
                  "suite": {"kind": "ridge", "total": 200}},
    },
    "softmax-sgd": {
        "full": {"n": 14, "rounds": 50, "batch_size": 8, "local_epochs": 5,
                 "suite": {"kind": "softmax", "total": 1400}},
        "smoke": {"n": 6, "rounds": 12, "batch_size": 8, "local_epochs": 2,
                  "suite": {"kind": "softmax", "total": 300}},
    },
    "net-n2000": {
        "full": {"n": 2000, "rounds": 20, "local_epochs": 1, "deemphasis": 0.5,
                 "mobility": {"area_width": 5000, "area_height": 5000, "radius": 250},
                 "churn": {"dropout_p": 0.1, "lambda": 0.5}},
        "smoke": {"n": 200, "rounds": 12, "local_epochs": 1, "deemphasis": 0.5,
                  "mobility": {"area_width": 1600, "area_height": 1600, "radius": 250},
                  "churn": {"dropout_p": 0.1, "lambda": 0.5}},
    },
    # the default ridge config: every field left at its default
    "sweep-jobs2": {
        "full": {},
        "smoke": {"n": 6, "rounds": 12, "suite": {"total": 120}},
    },
}

# net-n2000: samples per node shard and feature dimension of the ridge data
NET_SHARD = 4
NET_DIM = 10

SWEEP_AXIS = "dropout_p"
SWEEP_VALUES = {"full": "0,0.1,0.2", "smoke": "0,0.2"}
SWEEP_SEEDS = {"full": 4, "smoke": 2}
SWEEP_JOBS = 2

# Warm set-ups timed in each untraced repeat process, so setup_s is a
# median of many samples.
SETUP_REPS = {"trace": 3, "net": 5, "sweep": 5}


def sim_seed(bench_seed: int) -> int:
    return bench_seed % REFERENCE_SEEDS


def raw_config(name: str, size: str, seed: int) -> dict:
    """The JSON config object of one workload run (seed already mapped)."""
    return dict(_CONFIGS[name][size], seed=seed)


def rounds(name: str, size: str) -> int:
    return _CONFIGS[name][size].get("rounds", 50)


def sweep_seeds(size: str, seed: int) -> list:
    """Seeds of the sweep's runs: ``seed`` plus multiples of REFERENCE_SEEDS,
    so each bench seed owns a disjoint set of simulator seeds."""
    return [seed + k * REFERENCE_SEEDS for k in range(SWEEP_SEEDS[size])]


def sweep_runs(size: str) -> int:
    return len(SWEEP_VALUES[size].split(",")) * SWEEP_SEEDS[size]


def intervals_per_repeat(name: str, size: str) -> int:
    """Per-round latency samples one repeat yields.  run_simulation's
    observer gives rounds - 1 intervals per run (round 0 has no start
    mark); the advance_round loop times every round."""
    r = rounds(name, size)
    if KIND[name] == "net":
        return r
    if KIND[name] == "sweep":
        return sweep_runs(size) * (r - 1)
    return r - 1


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
