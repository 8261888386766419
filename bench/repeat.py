"""One repeat of one benchmark workload, run in a fresh process.

    python3 bench/repeat.py --workload NAME --seed N --size full|smoke \
        --mode untraced|traced|serial --out DIR

Times set-up, the simulation and writing its output, then checks the
output outside the timed interval, and writes ``DIR/result.json``.  In
``traced`` mode it also writes the recorded spans to ``DIR/spans/``.
``serial`` runs the sweep at ``--jobs 1`` (sweep workload only).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import workloads
from tracing import ROUND_SPAN, Tracer, install

sys.path.insert(0, str(workloads.SRC))
import gossipsim  # noqa: E402
from gossipsim import cli, config, diagnostics, engine, gossip, objective  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_setups(setup, reps: int) -> list:
    """Seconds each of ``reps`` further set-ups take.  Callers have
    already set up once in this process: the first set-up also pays
    one-off lazy imports and first-call costs, which would make the
    samples bimodal."""
    out = []
    for _ in range(reps):
        s0 = perf_counter_ns()
        setup()
        out.append((perf_counter_ns() - s0) / 1e9)
    return out


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class RoundClock:
    """``run_simulation`` observer: stamps the end of every round.  When
    traced, it also brackets each round with a ROUND_SPAN and counts
    participation, between the spans."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.stamps: list = []
        self._open = None

    def __call__(self, result) -> None:
        self.stamps.append(perf_counter_ns())
        tracer = self.tracer
        if tracer is None:
            return
        if self._open is not None:
            tracer.finish(self._open)
        count_round(tracer, result)
        self._open = tracer.begin(ROUND_SPAN)

    def close(self) -> None:
        """Drop the round opened after the last one; it never ran."""
        if self._open is not None:
            self.tracer.discard(self._open)
            self._open = None

    def intervals_ms(self) -> list:
        return [(b - a) / 1e6 for a, b in zip(self.stamps, self.stamps[1:])]


def count_round(tracer, result) -> None:
    part = result.participating
    tracer.add("rounds", 1)
    tracer.add("node_rounds", int(part.size))
    tracer.add("active", int(part.sum()))
    tracer.add("rejoined", int(result.rejoined.sum()))


# --- checks -------------------------------------------------------------


def check_traces(out_dir: Path, traces: list, rounds: int) -> dict:
    """Output checks shared by the trace and sweep workloads: the CLI's
    own ``check`` exits 0; every trace has one row per round, in order,
    and every column is finite except ``mean_acc`` of ridge runs."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            cli_ok = cli.main(["check", "--out", str(out_dir)]) == 0
    except Exception:  # a crash of `gossipsim check` fails the check
        cli_ok = False
    rows_ok, finite_ok = True, True
    for trace in traces:
        try:
            rows = diagnostics.read_trace_csv(trace)
        except (OSError, ValueError):
            rows_ok = finite_ok = False
            continue
        rows_ok &= [r.t for r in rows] == list(range(rounds))
        ridge = json.loads((trace.parent / "manifest.json").read_text())["config"]["suite"][
            "kind"] == "ridge"
        for row in rows:
            values = [getattr(row, c) for c in diagnostics.TRACE_COLUMNS
                      if not (ridge and c == "mean_acc")]
            finite_ok &= all(math.isfinite(v) for v in values)
    return {"cli_check": cli_ok, "one_row_per_round": rows_ok, "finite": finite_ok}


def final_values(out_dir: Path, traces: list) -> dict:
    """Final-row values the reference pins, keyed by trace path."""
    out = {}
    for trace in traces:
        try:
            last = diagnostics.read_trace_csv(trace)[-1]
        except (OSError, ValueError, IndexError):
            continue
        out[trace.relative_to(out_dir).as_posix()] = {
            "dist_wtilde_sq": last.dist_wtilde_sq, "mean_loss": last.mean_loss,
        }
    return out


def matches_reference(finals: dict, expected) -> bool:
    """True iff every pinned value is present and within REFERENCE_RTOL.
    Integers must match exactly."""
    if not expected or set(finals) != set(expected):
        return False
    for key, want in expected.items():
        got = finals[key]
        if isinstance(want, dict):
            if not matches_reference(got, want):
                return False
        elif isinstance(want, int):
            if got != want:
                return False
        elif not (math.isfinite(got) and math.isclose(got, want, rel_tol=workloads.REFERENCE_RTOL)):
            return False
    return True


def reference_for(size: str, name: str, seed: int):
    try:
        return workloads.load_reference()[size][name][str(seed)]
    except (OSError, KeyError):
        return None


# --- workloads ----------------------------------------------------------


def run_trace(name: str, size: str, seed: int, out: Path, tracer) -> dict:
    """Set up from the JSON config, run_simulation, write trace.csv."""
    text = json.dumps(workloads.raw_config(name, size, seed))

    def setup():
        with _span(tracer, "config.load"):
            cfg = config.run_config_from_dict(json.loads(text))
        return cfg, config.build_problem_suite(cfg)

    clock = RoundClock(tracer)
    trace = out / "trace.csv"
    t0 = perf_counter_ns()
    cfg, suite = setup()
    t1 = perf_counter_ns()
    rows = engine.run_simulation(cfg.sim, suite, observer=clock)
    t2 = perf_counter_ns()
    clock.close()
    with _span(tracer, "diagnostics.write_trace"):
        diagnostics.write_trace_csv(trace, rows)
    t3 = perf_counter_ns()
    rss = _peak_rss_mb()

    setups = []
    if tracer is None:
        setups = warm_setups(setup, workloads.SETUP_REPS["trace"])
    else:
        tracer.add("runs", 1)
        tracer.add("trace_bytes", trace.stat().st_size)

    manifest = {"config": config.run_config_to_dict(cfg), "seeds": [seed],
                "outputs": ["trace.csv"]}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with _span(tracer, "cli.check"):
        checks = check_traces(out, [trace], cfg.sim.rounds)
    checks["reference"] = matches_reference(
        final_values(out, [trace]), reference_for(size, name, seed))
    return {
        "setup_s": setups,
        "run_s": (t3 - t0) / 1e9,
        "round_ms": clock.intervals_ms(),
        "node_rounds_per_s": cfg.sim.n * cfg.sim.rounds / ((t2 - t1) / 1e9),
        "peak_rss_mb": rss,
        "checks": checks,
        "digest": _sha256([trace]),
    }


def net_suite(sim, rng) -> objective.ProblemSuite:
    """Ridge shards of NET_SHARD samples per node, assembled directly:
    build_problem_suite would solve for optima and constants the
    advance_round loop never reads (those fields are NaN here)."""
    m = workloads.NET_SHARD
    x = rng.standard_normal((sim.n * m, workloads.NET_DIM))
    y = x @ rng.standard_normal(workloads.NET_DIM) + 0.1 * rng.standard_normal(sim.n * m)
    problems = [objective.NodeProblem(x[i * m:(i + 1) * m], y[i * m:(i + 1) * m], reg=0.1)
                for i in range(sim.n)]
    nan = math.nan
    return objective.ProblemSuite(
        problems=problems, dimension=workloads.NET_DIM, L=nan, mu=nan,
        w_star=np.full(workloads.NET_DIM, nan), f_star=nan, local_optima=[],
        gamma=nan, grad_bound_sq=nan,
    )


def run_net(name: str, size: str, seed: int, out: Path, tracer) -> dict:
    """advance_round loop on a large network; each round's matrix and
    mixing step are checked between rounds, outside the timing."""
    text = json.dumps(workloads.raw_config(name, size, seed))

    def setup():
        with _span(tracer, "config.load"):
            sim = config.run_config_from_dict(json.loads(text)).sim
        streams = engine.derive_streams(sim.seed)
        suite = net_suite(sim, streams["data"])
        return sim, suite, streams, engine.init_state(sim, suite, streams)

    t0 = perf_counter_ns()
    sim, suite, streams, state = setup()
    setup_ns = perf_counter_ns() - t0

    round_ns, active = [], []
    stochastic_ok = mean_ok = True
    for _ in range(sim.rounds):
        rid = tracer.begin(ROUND_SPAN) if tracer else None
        r0 = perf_counter_ns()
        result = engine.advance_round(state, suite, sim, streams)
        r1 = perf_counter_ns()
        if tracer:
            tracer.finish(rid)
            count_round(tracer, result)
        round_ns.append(r1 - r0)
        stochastic_ok &= gossip.verify_doubly_stochastic(result.matrix)
        mean_ok &= bool(np.allclose(result.models_half.mean(axis=0),
                                    result.models_before.mean(axis=0), rtol=1e-9, atol=1e-12))
        active.append(int(result.participating.sum()))
        state = result.state
    rss = _peak_rss_mb()

    setups = []
    if tracer is None:
        setups = warm_setups(setup, workloads.SETUP_REPS["net"])
    else:
        tracer.add("runs", 1)

    wbar = state.models.mean(axis=0)
    finals = {"active_total": sum(active), "mean_model_sq": float(wbar @ wbar)}
    digest = hashlib.sha256(state.models.tobytes() + json.dumps(active).encode()).hexdigest()
    sim_s = sum(round_ns) / 1e9
    return {
        "setup_s": setups,
        "run_s": setup_ns / 1e9 + sim_s,
        "round_ms": [ns / 1e6 for ns in round_ns],
        "node_rounds_per_s": sim.n * sim.rounds / sim_s,
        "peak_rss_mb": rss,
        "checks": {
            "doubly_stochastic": stochastic_ok,
            "mean_preserved": mean_ok,
            "reference": matches_reference(finals, reference_for(size, name, seed)),
        },
        "digest": digest,
        "finals": finals,
    }


class SweepRecorder:
    """Round stamps (and spans, when traced) from inside the sweep's runs.

    ``cli.run_simulation`` gets a RoundClock observer, and every
    ``cli._run_one`` call writes what its process recorded to
    ``spans/<pid>-<k>.json``.  Pool workers are forked from this process,
    so they inherit the replaced attributes."""

    def __init__(self, parts: Path, tracer) -> None:
        self.parts, self.tracer, self.seq = parts, tracer, 0
        self.clock = RoundClock(tracer)
        os.register_at_fork(after_in_child=self._forget)
        run_simulation, run_one = cli.run_simulation, cli._run_one

        def observed_run_simulation(cfg, suite):
            try:
                return run_simulation(cfg, suite, observer=self.clock)
            finally:
                self.clock.close()

        def recorded_run_one(cfg, out_dir):
            manifest = run_one(cfg, out_dir)
            self._flush()
            return manifest

        cli.run_simulation = observed_run_simulation
        cli._run_one = recorded_run_one

    def _forget(self) -> None:
        self.clock = RoundClock(self.tracer)

    def _flush(self) -> None:
        self.seq += 1
        stem = self.parts / f"{os.getpid()}-{self.seq}"
        stem.with_suffix(".json").write_text(json.dumps({"round_ms": self.clock.intervals_ms()}))
        self.clock.stamps.clear()
        if self.tracer:
            self.tracer.add("runs", 1)
            self.tracer.dump(stem.with_suffix(".spans.json"))


def run_sweep(name: str, size: str, seed: int, out: Path, tracer, serial: bool) -> dict:
    """``gossipsim sweep`` through cli.main, then ``gossipsim check``."""
    if not serial and multiprocessing.get_start_method() != "fork":
        raise RuntimeError("sweep round timing needs forked pool workers")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(workloads.raw_config(name, size, seed)))
    sweep_out, parts = out / "sweep", out / "spans"

    def setup():
        config.build_problem_suite(cli.load_run_config(cfg_path))

    setup()
    setups = [] if tracer else warm_setups(setup, workloads.SETUP_REPS["sweep"])

    SweepRecorder(parts, tracer)
    jobs = 1 if serial else min(workloads.SWEEP_JOBS, os.cpu_count() or 1)
    seeds = workloads.sweep_seeds(size, seed)
    argv = ["sweep", "--config", str(cfg_path), "--axis", workloads.SWEEP_AXIS,
            "--values", workloads.SWEEP_VALUES[size], "--seeds", ",".join(map(str, seeds)),
            "--out", str(sweep_out), "--jobs", str(jobs)]
    buf = io.StringIO()
    t0 = perf_counter_ns()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    run_s = (perf_counter_ns() - t0) / 1e9
    rss = _peak_rss_mb()
    if code != 0:
        raise RuntimeError(f"gossipsim sweep exited {code}: {buf.getvalue()}")

    round_ms = []
    for part in sorted(parts.glob("*-*.json")):
        if not part.name.endswith(".spans.json"):
            round_ms += json.loads(part.read_text())["round_ms"]
    traces = sorted(sweep_out.rglob("trace.csv"))
    if tracer:
        tracer.add("trace_bytes", sum(t.stat().st_size for t in traces))
    with _span(tracer, "cli.check"):
        checks = check_traces(sweep_out, traces, workloads.rounds(name, size))
    checks["all_runs"] = len(traces) == workloads.sweep_runs(size)
    checks["reference"] = matches_reference(
        final_values(sweep_out, traces), reference_for(size, name, seed))
    cfg = config.load_run_config(cfg_path).sim
    return {
        "setup_s": setups,
        "run_s": run_s,
        "round_ms": round_ms,
        "node_rounds_per_s": len(traces) * cfg.n * cfg.rounds / run_s,
        "peak_rss_mb": rss,
        "checks": checks,
        "digest": _sha256(traces + [sweep_out / "summary.csv"]),
    }


def env_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "gossipsim": gossipsim.__file__,
    }


def run(name: str, size: str, bench_seed: int, mode: str, out: Path) -> dict:
    """One repeat; returns the result record (also used by make_reference)."""
    seed = workloads.sim_seed(bench_seed)
    kind = workloads.KIND[name]
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer, gossipsim)
    (out / "spans").mkdir(parents=True)
    if kind == "sweep":
        record = run_sweep(name, size, seed, out, tracer, serial=mode == "serial")
    elif mode == "serial":
        raise ValueError("serial mode is for the sweep workload only")
    elif kind == "net":
        record = run_net(name, size, seed, out, tracer)
    else:
        record = run_trace(name, size, seed, out, tracer)
    if tracer:
        tracer.dump(out / "spans" / "main.spans.json")
    record["ok"] = all(record["checks"].values())
    record["env"] = env_record()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("untraced", "traced", "serial"), default="untraced")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    record = run(args.workload, args.size, args.seed, args.mode, out)
    (out / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
