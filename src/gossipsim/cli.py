"""Command-line front end.

Subcommands:
  run    --config PATH --out DIR [--seed N]
  sweep  --config PATH --axis NAME --values CSV --seeds CSV --out DIR [--jobs K]
  check  --out DIR

Exit codes are a stable contract: 0 success, 1 runtime or invariant
failure, 2 usage or config error.  No environment variable changes a
run.  Everything runs offline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    build_problem_suite,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
    spawn_seeded,
)
from .diagnostics import TRACE_COLUMNS, read_trace_csv, write_trace_csv
from .engine import run_simulation
from .objective import suite_digest

# Each sweep axis and where its value sits in a config file: (section, key),
# the section None for a top-level key.
SWEEP_AXES = {
    "dropout_p": ("churn", "dropout_p"),
    "lambda": ("churn", "lambda"),
    "alpha": ("partition", "alpha"),
    "deemphasis": (None, "deemphasis"),
    "eta": ("eta", "eta0"),
}
SUMMARY_COLUMNS = (
    "axis", "value", "runs", "final_dist_wtilde_sq_mean", "final_dist_wtilde_sq_std",
    "final_mean_loss_mean", "final_mean_loss_std",
)

_NONNEGATIVE_COLUMNS = ("dist_wbar_sq", "dist_wtilde_sq", "div_lhs", "div_rhs_main",
                        "div_rhs_appendix", "beta_t", "gap_term", "gamma")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _atomic_write(path: Path, writer) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    def do(p: Path) -> None:
        with open(p, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_write(path, do)


def _first_nonfinite(trace: Path, rows, config: RunConfig):
    """``"<trace> t=<t> column <c>"`` for the first non-finite cell of the
    rows, or None.  Ridge has no accuracy: its mean_acc is NaN by design."""
    ridge = config.suite.kind == "ridge"
    columns = [c for c in TRACE_COLUMNS if not (c == "mean_acc" and ridge)]
    return next((f"{trace} t={row.t} column {c}" for row in rows for c in columns
                 if not math.isfinite(getattr(row, c))), None)


def _run_one(config: RunConfig, out_dir: Path) -> dict:
    """Build the suite, simulate, write trace.csv and manifest.json.  The
    output directory is made only once the suite is built.  A non-finite
    trace is written too, for ``check``, and then raises FloatingPointError."""
    with np.errstate(all="ignore"):  # an overflow ends in one error, not in warnings
        suite = build_problem_suite(config)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = run_simulation(config.sim, suite)
    _atomic_write(out_dir / "trace.csv", lambda p: write_trace_csv(p, rows))
    manifest = {
        "config": run_config_to_dict(config),
        "seeds": [config.sim.seed],
        "outputs": ["trace.csv"],
        "suite_sha256": suite_digest(suite),
        "version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)
    bad = _first_nonfinite(out_dir / "trace.csv", rows, config)
    if bad is not None:
        raise FloatingPointError(f"non-finite value in {bad}")
    return manifest


def _check_samples(config: RunConfig) -> None:
    """Raise ConfigError unless ``suite.total`` gives every node at least
    one sample.  Not part of parsing: a config that never builds a suite
    may have fewer."""
    n, total = config.sim.n, config.suite.total
    if total < n:
        raise ConfigError(f"suite.total {total} is too small: {n} nodes need at least {n} samples")


def cmd_run(config_path: str, out_dir: str, seed=None) -> int:
    try:
        config = load_run_config(config_path)
        if seed is not None:
            config = spawn_seeded(config, seed)
        _check_samples(config)
    except ValueError as exc:  # ConfigError, or a --seed out of range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _run_one(config, Path(out_dir))
    except Exception as exc:  # CLI boundary: report and set the exit code
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _apply_axis(config: RunConfig, axis: str, value: float) -> RunConfig:
    """The config with ``value`` written at the axis's config-file path,
    parsed and validated like a config file."""
    raw = run_config_to_dict(config)
    section, key = SWEEP_AXES[axis]
    (raw[section] if section else raw)[key] = value
    return run_config_from_dict(raw)


def _sweep_task(args) -> tuple[str, int, float, float]:
    """One sweep run in a worker process.  Returns (value_label, seed,
    final dist_wtilde_sq, final mean_loss)."""
    config, value_label, run_dir = args
    _run_one(config, Path(run_dir))
    last = read_trace_csv(Path(run_dir) / "trace.csv")[-1]
    return value_label, config.sim.seed, last.dist_wtilde_sq, last.mean_loss


def _final_stats(dists, losses) -> list:
    """The statistic columns of a summary row: the mean and the sample
    standard deviation (0 for one run) of the final distances, then of the
    final losses."""
    stats = []
    for values in (np.asarray(dists, dtype=float), np.asarray(losses, dtype=float)):
        stats += [values.mean(), values.std(ddof=1) if values.size > 1 else 0.0]
    return stats


def pool_size(jobs: int, tasks: int, cpus) -> int:
    """Worker processes for a sweep: the requested ``jobs``, but no more
    than there are tasks or CPUs (``cpus`` None counts as one)."""
    return max(1, min(jobs, tasks, cpus or 1))


def cmd_sweep(config_path, axis, values, seeds, out_dir, jobs=1) -> int:
    try:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; choose from {tuple(SWEEP_AXES)}")
        if not values:
            raise ConfigError("sweep needs a nonempty values list")
        if not seeds:
            raise ConfigError("sweep needs a nonempty seeds list")
        labels = [format(v, ".6g") for v in values]
        if len(set(labels)) < len(labels) or len(set(seeds)) < len(seeds):
            raise ConfigError("sweep values (to 6 significant digits) and seeds must be "
                              f"distinct, got values {labels} and seeds {seeds}")
        base = load_run_config(config_path)
        out = Path(out_dir)
        tasks = []
        for value, label in zip(values, labels):
            for seed in seeds:
                config = _apply_axis(spawn_seeded(base, seed), axis, value)
                _check_samples(config)
                run_dir = out / "runs" / f"{axis}={label}" / f"seed={seed}"
                tasks.append((config, label, str(run_dir)))
        if jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {jobs}")
        workers = pool_size(jobs, len(tasks), os.cpu_count())
    except ValueError as exc:  # ConfigError, or a seed out of range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_task, tasks))
        else:
            results = [_sweep_task(t) for t in tasks]
    except Exception as exc:  # CLI boundary: report and set the exit code
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    by_value: dict[str, list] = {}
    for label, seed, dist, loss in results:
        by_value.setdefault(label, []).append((dist, loss))
    lines = [",".join(SUMMARY_COLUMNS)]
    for label in labels:
        finals = by_value[label]
        stats = _final_stats([d for d, _ in finals], [l for _, l in finals])
        lines.append(",".join([axis, label, str(len(finals))] + [format(x, ".12g") for x in stats]))

    def write_summary(p: Path) -> None:
        with open(p, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "summary.csv", write_summary)
    _write_json(
        out / "manifest.json",
        {
            "config": run_config_to_dict(base),
            "axis": axis,
            "values": labels,
            "seeds": list(seeds),
            "outputs": ["summary.csv"]
            + [str(Path(t[2]).relative_to(out) / "trace.csv") for t in tasks],
            "version": __version__,
        },
    )
    return EXIT_OK


def _check_traces(out: Path):
    """(trace path, rows, run config) for every run under out, the config
    parsed from its manifest's echo, which must be canonical.  A file that
    cannot be read raises ValueError naming it."""
    found = []
    for mpath in sorted(out.rglob("manifest.json")):
        path = mpath
        try:
            with open(mpath) as fh:
                echo = json.load(fh)["config"]
            config = run_config_from_dict(echo)
            if run_config_to_dict(config) != echo:
                raise ValueError("config is not a canonical echo (a field is missing or altered)")
            path = mpath.parent / "trace.csv"
            if path.exists():
                found.append((path, read_trace_csv(path), config))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValueError(f"{path}: {reason}") from None
    return found


def cmd_check(out_dir) -> int:
    out = Path(out_dir)
    if not out.exists():
        print(f"check error: output directory {out} not found", file=sys.stderr)
        return EXIT_USAGE
    summary = out / "summary.csv"
    try:
        found = _check_traces(out)
        summary_rows = _read_summary(summary) if summary.exists() else None
    except ValueError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if not found:
        print("check error: no completed runs (manifest.json + trace.csv) found", file=sys.stderr)
        return EXIT_USAGE

    bound_hold = 0
    bound_total = 0
    failures = []

    def check(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures.append(name)

    # each row check's first failure, in trace order
    first_bad = {}
    for trace, rows, config in found:
        if len(rows) != config.sim.rounds:
            first_bad.setdefault("row count",
                                 f"{trace} ({len(rows)} rows, {config.sim.rounds} rounds)")
        stray = next((k for k, row in enumerate(rows) if row.t != k), None)
        if stray is not None:
            first_bad.setdefault("row count", f"{trace} row {stray} (t={rows[stray].t})")
        bad = _first_nonfinite(trace, rows, config)
        if bad is not None:
            first_bad.setdefault("finite values", bad)
        for row in rows:
            where = f"{trace} t={row.t}"
            negative = next((c for c in _NONNEGATIVE_COLUMNS if getattr(row, c) < 0), None)
            if negative is not None:
                first_bad.setdefault("nonnegative distances", f"{where} column {negative}")
            if row.n1 < 0 or row.n2 < 0 or row.n1 + row.n2 != config.sim.n:
                first_bad.setdefault("node counts", where)
            if row.div_rhs_appendix < row.div_rhs_main:
                first_bad.setdefault("bound constant ordering", where)
            if row.n2 == 0 and row.div_lhs > 1e-12:
                first_bad.setdefault("zero gap at full participation", where)
            bound_total += 1
            bound_hold += row.div_lhs <= row.div_rhs_appendix

    for name, passed, failed in (
        ("row count", "one row per round, in round order", "wrong rows in"),
        ("finite values", "every column finite", "non-finite value in"),
        ("nonnegative distances", "all distance and bound columns nonnegative",
         "negative value in"),
        ("node counts", "n1+n2=n on every row", "bad split in"),
        ("bound constant ordering", "appendix constant dominates main constant", "violated in"),
        ("zero gap at full participation", "div_lhs <= 1e-12 whenever n2=0", "violated in"),
    ):
        bad = first_bad.get(name)
        check(name, bad is None, passed if bad is None else f"{failed} {bad}")
    rate = bound_hold / bound_total if bound_total else 0.0
    check(
        "divergence bound rate",
        bound_total > 0 and rate >= 0.99,
        f"div_lhs <= div_rhs_appendix on {bound_hold}/{bound_total} rounds ({rate:.2%})",
    )

    if summary_rows is not None:
        ok, detail = _verify_summary(out, summary_rows)
        check("summary consistency", ok, detail)

    return EXIT_OK if not failures else EXIT_RUNTIME


def _read_summary(path: Path) -> list:
    """The rows of a sweep's summary.csv as dicts, ``runs`` as an int and
    the statistics as floats.  A missing column, a row whose cell count
    differs from the header's, or a cell that is not a number raises
    ValueError naming the file."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            lines = [line.strip().split(",") for line in fh if line.strip()]
        missing = [c for c in SUMMARY_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"missing column {missing[0]!r}")
        rows = []
        for lineno, cells in enumerate(lines, start=2):
            if len(cells) != len(header):
                raise ValueError(f"line {lineno} has {len(cells)} cells, the header {len(header)}")
            row = dict(zip(header, cells))
            for name in SUMMARY_COLUMNS[2:]:
                try:
                    row[name] = int(row[name]) if name == "runs" else float(row[name])
                except ValueError:
                    raise ValueError(f"line {lineno}: {name} is not a number: {row[name]!r}") from None
            rows.append(row)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return rows


def _verify_summary(out: Path, rows: list):
    """Recompute summary statistics from the per-run traces."""
    for row in rows:
        axis, label = row["axis"], row["value"]
        traces = sorted((out / "runs" / f"{axis}={label}").glob("seed=*/trace.csv"))
        if len(traces) != row["runs"]:
            return False, f"run count mismatch for {axis}={label}"
        finals = [read_trace_csv(t)[-1] for t in traces]
        stats = _final_stats([r.dist_wtilde_sq for r in finals], [r.mean_loss for r in finals])
        for name, value in zip(SUMMARY_COLUMNS[3:], stats):
            # written so that a NaN on either side is a mismatch
            if not abs(row[name] - value) <= 1e-9 * max(1.0, abs(value)):
                return False, f"{name} mismatch for {axis}={label}"
    return True, "summary matches recomputation from traces"


def _parse_floats(text: str):
    return [float(s) for s in text.split(",") if s.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gossipsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gossipsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_check = sub.add_parser("check", help="verify invariants of completed outputs")
    p_check.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed)
    if args.command == "sweep":
        try:
            values = _parse_floats(args.values)
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return cmd_sweep(args.config, args.axis, values, seeds, args.out, args.jobs)
    return cmd_check(args.out)


def entrypoint() -> None:
    raise SystemExit(main())
