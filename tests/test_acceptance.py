"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
come; without ``-s`` pytest shows them only for failures.  The heavier
experiment configurations (ordering reproductions) freeze inaccessible
nodes and run on an always-connected graph so the churn effect is the only
difference between compared runs; margins were calibrated before the
thresholds were frozen here.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from gossipsim.accessibility import ChurnConfig, absence_duration
from gossipsim.cli import main as cli_main
from gossipsim.config import RunConfig, SuiteSpec, build_problem_suite
from gossipsim.dataparts import PartitionConfig, partition, synthetic_blobs
from gossipsim.diagnostics import convergence_envelope, gradient_gap
from gossipsim.engine import EtaSchedule, SimConfig, run_simulation
from gossipsim.gossip import build_gossip_matrix, verify_doubly_stochastic
from gossipsim.mobility import Adjacency, MobilityConfig
from gossipsim.objective import NodeProblem, build_suite, local_gradient
from oracles import (
    gap_monotonicity_check,
    numerical_gradient,
    pooled_sgd_ridge,
    ridge_loss_direct,
    softmax_loss_direct,
)

FULL_GRAPH = MobilityConfig(radius=1500.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module", autouse=True)
def _total_runtime():
    start = time.time()
    yield
    print(f"acceptance suite wall time: {time.time() - start:.1f}s", flush=True)


def _ridge_run_config(seed: int, **kw) -> RunConfig:
    sim = dict(
        n=14, rounds=50, seed=seed,
        churn=ChurnConfig(dropout_p=0.1, rate=1.0),
    )
    part = kw.pop("partition", PartitionConfig(alpha=1.0))
    suite = kw.pop("suite", SuiteSpec())
    sim.update(kw)
    return RunConfig(sim=SimConfig(**sim), partition=part, suite=suite)


def _gap_config(seed: int, dropout_p: float, rate: float) -> RunConfig:
    """Ordering-reproduction setup: always-connected graph, frozen
    inaccessible nodes, full-batch steps, decaying rate."""
    return _ridge_run_config(
        seed,
        rounds=200,
        eta=EtaSchedule("decay", 0.1),
        batch_size=512,
        mobility=FULL_GRAPH,
        churn=ChurnConfig(dropout_p=dropout_p, rate=rate),
        offline_training=False,
        partition=PartitionConfig(alpha=10.0),
        suite=SuiteSpec(reg=0.5),
    )


def test_criterion_1_gossip_matrix_correctness():
    rng = np.random.default_rng(2024)
    start = time.time()
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 15))
        edges = rng.random((n, n)) < rng.uniform(0.05, 0.95)
        edges = edges | edges.T
        np.fill_diagonal(edges, True)
        accessible = rng.random(n) < rng.uniform(0.2, 1.0)

        adj = Adjacency(n, np.argwhere(np.triu(edges, 1)))
        G = build_gossip_matrix(adj, accessible)
        assert verify_doubly_stochastic(G, 1e-9)
        weights = G.weights.toarray()
        off = ~np.eye(n, dtype=bool)
        allowed = edges & np.outer(accessible, accessible) & off
        assert not np.any((weights > 0) & off & ~allowed)
        for i in np.flatnonzero(~accessible):
            expected = np.zeros(n)
            expected[i] = 1.0
            assert np.array_equal(weights[i], expected)
        checked += 1
    elapsed = time.time() - start
    _report(
        1, "gossip matrix correctness",
        checked == 10_000 and elapsed < 10.0,
        f"{checked} random configurations verified at tol 1e-9 in {elapsed:.1f}s",
    )


def test_criterion_2_average_preservation():
    worst = 0.0
    for seed in range(10):
        cfg = _ridge_run_config(seed, mobility=FULL_GRAPH, churn=ChurnConfig(dropout_p=0.0))
        suite = build_problem_suite(cfg)
        drifts = []

        def observer(result):
            drift = np.max(np.abs(result.models_half.mean(axis=0) - result.models_before.mean(axis=0)))
            drifts.append(drift)

        rows = run_simulation(cfg.sim, suite, observer=observer)
        assert all(r.n2 == 0 for r in rows)
        worst = max(worst, max(drifts))
    _report(
        2, "average preservation",
        worst < 1e-9,
        f"max per-round average drift {worst:.2e} over 10 runs with n2=0",
    )


def test_criterion_3_duration_statistics():
    rng = np.random.default_rng(7)
    draws = np.array([absence_duration(0.5, rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    mean_ok = abs(draws.mean() - 2.0) < 3 * se
    ks = stats.kstest(draws, "expon", args=(0.0, 2.0))
    _report(
        3, "duration statistics",
        mean_ok and ks.pvalue > 0.01,
        f"mean {draws.mean():.4f} (target 2 within {3 * se:.4f}), KS p-value {ks.pvalue:.3f}",
    )


def test_criterion_4_dropout_count_calibration():
    counts = []
    for seed in range(20):
        cfg = _ridge_run_config(seed, partition=PartitionConfig(alpha=10.0))
        suite = build_problem_suite(cfg)
        rows = run_simulation(cfg.sim, suite)
        counts.extend(r.n2 for r in rows)
    mean_out = float(np.mean(counts))
    _report(
        4, "dropout count calibration",
        2.5 <= mean_out <= 4.5,
        f"mean inaccessible nodes per round {mean_out:.2f} (window [2.5, 4.5])",
    )


def test_criterion_5_heterogeneity_gap_behavior():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 10))
    y = rng.normal(size=20)
    same_gap = build_suite(x, y, [np.arange(20)] * 14, reg=0.1).gamma

    alphas = [0.5, 1.0, 10.0, math.inf]
    means = []
    for alpha in alphas:
        vals = []
        for seed in range(20):
            srng = np.random.default_rng(seed + 1000)
            data = synthetic_blobs(5, 10, 280, 6.0, srng)
            shards = partition(data, 14, PartitionConfig(alpha=alpha), srng)
            suite = build_suite(data.features, data.targets.astype(float), shards,
                                kind="ridge", reg=0.1, target_curvature=0.9)
            vals.append(suite.gamma)
        means.append(float(np.mean(vals)))
    ordered = all(a >= b for a, b in zip(means, means[1:]))
    positive = all(m > 0 for m in means)
    _report(
        5, "heterogeneity gap behavior",
        same_gap < 1e-8 and positive and ordered,
        f"identical-data gap {same_gap:.1e}; means per alpha {[f'{m:.4f}' for m in means]}",
    )


def test_criterion_6_divergence_bound_check():
    start = time.time()
    held = total = zero_rounds = 0
    worst_zero_gap = 0.0
    for seed in range(10):
        cfg = _ridge_run_config(seed)
        suite = build_problem_suite(cfg)
        rows = run_simulation(cfg.sim, suite)
        for r in rows:
            total += 1
            held += r.div_lhs <= r.div_rhs_appendix
            if r.n2 == 0:
                zero_rounds += 1
                worst_zero_gap = max(worst_zero_gap, r.div_lhs)
    # direct full-participation probe in case no simulated round had n2=0
    cfg = _ridge_run_config(0)
    suite = build_problem_suite(cfg)
    rng = np.random.default_rng(1)
    probe = gradient_gap(rng.normal(size=(14, suite.dimension)), np.ones(14, dtype=bool), suite)
    worst_zero_gap = max(worst_zero_gap, probe)
    elapsed = time.time() - start
    rate = held / total
    _report(
        6, "divergence bound check",
        rate >= 0.99 and worst_zero_gap <= 1e-12 and elapsed < 60.0,
        f"bound held on {held}/{total} rounds ({rate:.2%}), "
        f"full-participation gap <= {worst_zero_gap:.1e} over {zero_rounds} rounds + probe, {elapsed:.1f}s",
    )


def test_criterion_7_gap_reproduction_in_dropout_rate():
    finals = {}
    oracle_ratios = []
    for p in (0.0, 0.1, 0.2):
        vals = []
        for seed in range(10):
            cfg = _gap_config(seed, p, rate=1.0)
            suite = build_problem_suite(cfg)
            rows = run_simulation(cfg.sim, suite)
            vals.append(rows[-1].dist_wbar_sq)
            if p == 0.0:
                pooled_x = np.vstack([q.features for q in suite.problems])
                pooled_y = np.concatenate([q.targets for q in suite.problems])
                w_oracle = pooled_sgd_ridge(
                    pooled_x, pooled_y, reg=0.5, eta_at=cfg.sim.eta,
                    rounds=cfg.sim.rounds, epochs=cfg.sim.local_epochs,
                    batch_size=cfg.sim.batch_size, seed=1000 + seed,
                )
                oracle_dist = float(np.sum((w_oracle - suite.w_star) ** 2))
                oracle_ratios.append(rows[-1].dist_wbar_sq / oracle_dist)
        finals[p] = float(np.mean(vals))
    ordered = finals[0.0] < finals[0.1] < finals[0.2]
    near_oracle = max(oracle_ratios) < 10.0
    _report(
        7, "gap reproduction in dropout rate",
        ordered and near_oracle,
        f"mean final distances {finals[0.0]:.4f} < {finals[0.1]:.4f} < {finals[0.2]:.4f}; "
        f"worst oracle ratio {max(oracle_ratios):.2f} (< 10)",
    )


def test_criterion_8_duration_parameter_ordering():
    means = {}
    for rate in (0.2, 0.5):
        vals = []
        for seed in range(10):
            cfg = _gap_config(seed, dropout_p=0.1, rate=rate)
            suite = build_problem_suite(cfg)
            rows = run_simulation(cfg.sim, suite)
            vals.append(rows[-1].dist_wbar_sq)
        means[rate] = float(np.mean(vals))
    analytic = gap_monotonicity_check(0.1, 0.1, 5.0, 14, [0.2, 0.3, 0.5, 1.0])
    _report(
        8, "duration parameter ordering",
        means[0.2] >= means[0.5] and analytic,
        f"mean final distance at rate 0.2 {means[0.2]:.4f} >= rate 0.5 {means[0.5]:.4f}; "
        f"analytic monotonicity check {analytic}",
    )


def test_criterion_9_noniid_ordering():
    means = {}
    for alpha in (math.inf, 10.0, 1.0):
        pcfg = PartitionConfig(alpha=alpha)
        vals = []
        for seed in range(10):
            cfg = _ridge_run_config(
                seed,
                churn=ChurnConfig(dropout_p=0.05, rate=1.0),
                partition=pcfg,
                suite=SuiteSpec(reg=0.1),
            )
            suite = build_problem_suite(cfg)
            rows = run_simulation(cfg.sim, suite)
            vals.append(rows[-1].mean_loss)
        means[alpha] = float(np.mean(vals))
    ordered = means[math.inf] < means[10.0] < means[1.0]
    _report(
        9, "non-iid ordering",
        ordered,
        f"mean final loss iid {means[math.inf]:.4f} < alpha=10 {means[10.0]:.4f} "
        f"< alpha=1 {means[1.0]:.4f}",
    )


def test_criterion_10_envelope_identities():
    geo = convergence_envelope([(0.5, 0.0)] * 12, 1.0)
    geo_ok = all(v == 0.5 ** (k + 1) for k, v in enumerate(geo))
    arith = convergence_envelope([(1.0, 0.125)] * 12, 1.0)
    arith_ok = all(v == 1.0 + (k + 1) * 0.125 for k, v in enumerate(arith))
    rate = convergence_envelope([(2 * (1 - 0.6), 0.0)] * 30, 1.0)
    rate_ok = all(abs(v - 0.8 ** (k + 1)) <= 1e-12 for k, v in enumerate(rate))
    decreasing = all(b < a for a, b in zip(rate, rate[1:]))
    _report(
        10, "envelope evaluator",
        geo_ok and arith_ok and rate_ok and decreasing,
        "geometric, arithmetic and rate-0.8 envelopes exact within 1e-12",
    )


def test_criterion_11_determinism(tmp_path):
    config = {
        "seed": 5,
        "churn": {"dropout_p": 0.1, "lambda": 1.0},
        "partition": {"alpha": 1.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest())
    _report(
        11, "determinism",
        digests[0] == digests[1],
        f"identical SHA-256 {digests[0][:16]}... for repeated runs",
    )


def test_criterion_12_gradient_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for kind in ("ridge", "softmax"):
        for _ in range(100):
            m, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            x = rng.normal(size=(m, d))
            if kind == "ridge":
                y = rng.normal(size=m)
                p = NodeProblem(x, y, reg=0.25)
                loss = lambda w: ridge_loss_direct(x, y, 0.25, w)
            else:
                y = rng.integers(0, 3, size=m)
                p = NodeProblem(x, y, reg=0.25, kind="softmax", n_classes=3)
                loss = lambda w: softmax_loss_direct(x, y, 0.25, w, 3)
            w = rng.normal(size=p.dim)
            num = numerical_gradient(loss, w)
            got = local_gradient(p, w)
            err = np.linalg.norm(got - num) / max(1.0, np.linalg.norm(num))
            worst = max(worst, err)
    _report(
        12, "gradient correctness",
        worst < 1e-5,
        f"worst relative error vs central differences {worst:.2e} over 200 probes",
    )
