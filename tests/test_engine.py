from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.accessibility import ChurnConfig, absence_duration
from gossipsim.config import RunConfig, SuiteSpec, build_problem_suite
from gossipsim.dataparts import PartitionConfig, synthetic_blobs
from gossipsim.diagnostics import write_trace_csv
from gossipsim.engine import (
    EtaSchedule,
    SimConfig,
    advance_round,
    derive_streams,
    init_state,
    run_simulation,
)
from gossipsim.mobility import MobilityConfig, connectivity, init_mobility
from gossipsim.objective import NodeProblem, ProblemSuite, local_gradient
from oracles import local_sgd_loop, pooled_sgd_ridge

FULL_RADIUS = MobilityConfig(radius=5000.0)


def _config(**kw) -> RunConfig:
    sim = dict(
        n=6, rounds=8, seed=0,
        mobility=MobilityConfig(),
        churn=ChurnConfig(dropout_p=0.1, rate=1.0),
    )
    part = kw.pop("partition", PartitionConfig(alpha=1.0))
    suite = kw.pop("suite", SuiteSpec(classes=3, dim=4, total=60))
    sim.update(kw)
    return RunConfig(sim=SimConfig(**sim), partition=part, suite=suite)


def test_eta_schedule_values():
    const = EtaSchedule("constant", 0.1)
    decay = EtaSchedule("decay", 0.1)
    assert const(0) == const(99) == 0.1
    assert decay(0) == 0.1
    assert decay(9) == pytest.approx(0.01)


@pytest.mark.parametrize("bad", [
    dict(rounds=0),
    dict(n=0),
    dict(local_epochs=0),
    dict(batch_size=0),
    dict(deemphasis=1.5),
    dict(deemphasis=-0.1),
    dict(seed=-1),
    dict(init_scale=-1.0),
])
def test_sim_config_validation(bad):
    with pytest.raises(ValueError):
        SimConfig(**bad)


def test_eta_schedule_validation():
    with pytest.raises(ValueError, match="eta must be positive"):
        EtaSchedule("constant", 0.0)
    with pytest.raises(ValueError, match="eta must be at most 1"):
        EtaSchedule(eta0=1.5)
    assert EtaSchedule(eta0=1.0)(0) == 1.0
    with pytest.raises(ValueError):
        EtaSchedule("linear", 0.1)


NAN = math.nan


@pytest.mark.parametrize("build, message", [
    (lambda: EtaSchedule(eta0=NAN), "eta must be positive"),
    (lambda: ChurnConfig(rate=NAN), "rate must be positive"),
    (lambda: SimConfig(init_scale=NAN), "init_scale must be nonnegative"),
    (lambda: MobilityConfig(area_width=NAN), "area_width and area_height must be positive"),
    (lambda: MobilityConfig(area_height=NAN), "area_width and area_height must be positive"),
    (lambda: MobilityConfig(pause=NAN), "pause must be nonnegative"),
    (lambda: MobilityConfig(radius=NAN), "radius must be positive"),
    (lambda: SuiteSpec(reg=NAN), "reg must be positive"),
    (lambda: SuiteSpec(separation=NAN), "separation must be positive"),
    (lambda: SuiteSpec(target_curvature=NAN), "target_curvature must be positive"),
    (lambda: PartitionConfig(alpha=NAN), "alpha must be positive"),
    (lambda: NodeProblem(np.ones((1, 1)), np.ones(1), reg=NAN), "reg must be positive"),
    (lambda: absence_duration(NAN, np.random.default_rng(0)), "rate must be positive"),
    (lambda: synthetic_blobs(2, 1, 4, NAN, np.random.default_rng(0)),
     "separation must be positive"),
    (lambda: connectivity(init_mobility(3, MobilityConfig(), np.random.default_rng(0)), NAN),
     "radius must be positive"),
], ids=["eta0", "churn.rate", "init_scale", "area_width", "area_height", "pause", "radius",
        "suite.reg", "separation", "target_curvature", "alpha", "problem.reg",
        "absence_duration", "blobs.separation", "connectivity.radius"])
def test_nan_fails_the_range_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_run_round_increments_round_counter():
    cfg = _config()
    suite = build_problem_suite(cfg)
    streams = derive_streams(cfg.sim.seed)
    state = init_state(cfg.sim, suite, streams)
    new_state = advance_round(state, suite, cfg.sim, streams).state
    assert new_state.round == 1
    assert new_state.models.shape == state.models.shape


def test_identical_models_stay_identical_after_gossip_when_connected():
    cfg = _config(mobility=FULL_RADIUS, churn=ChurnConfig(dropout_p=0.0), init_scale=0.0)
    suite = build_problem_suite(cfg)
    streams = derive_streams(cfg.sim.seed)
    state = init_state(cfg.sim, suite, streams)
    seen = []
    for _ in range(4):
        result = advance_round(state, suite, cfg.sim, streams)
        seen.append(result)
        state = result.state
    for result in seen:
        # all nodes agree after mixing, and the consensus point is the mean
        assert np.allclose(result.models_half, result.models_half[0], atol=1e-12)
        assert np.allclose(result.models_half[0], result.models_before.mean(axis=0), atol=1e-12)


def test_disconnected_nodes_run_independent_sgd():
    cfg = _config(n=2, mobility=MobilityConfig(radius=1.0),
                  churn=ChurnConfig(dropout_p=0.0), offline_training=True,
                  suite=SuiteSpec(classes=2, dim=3, total=20))
    suite = build_problem_suite(cfg)
    streams = derive_streams(cfg.sim.seed)
    state = init_state(cfg.sim, suite, streams)
    result = advance_round(state, suite, cfg.sim, streams)
    # the area is 1000x1000 and the radius 1 m, so the two nodes are apart
    assert np.array_equal(result.matrix.weights.toarray(), np.eye(2))
    assert np.array_equal(result.models_half, result.models_before)
    assert not np.allclose(result.state.models, result.models_before)


def test_offline_training_false_freezes_dropped_nodes():
    cfg = _config(n=8, rounds=20, churn=ChurnConfig(dropout_p=0.3, rate=0.5),
                  offline_training=False)
    suite = build_problem_suite(cfg)
    frozen_checks = 0

    def observer(result):
        nonlocal frozen_checks
        for i in np.flatnonzero(~result.participating):
            assert np.array_equal(result.state.models[i], result.models_before[i])
            frozen_checks += 1

    run_simulation(cfg.sim, suite, observer=observer)
    assert frozen_checks > 0


def test_deemphasis_one_is_bitwise_neutral():
    base = _config(churn=ChurnConfig(dropout_p=0.3, rate=0.5), rounds=10)
    neutral = _config(churn=ChurnConfig(dropout_p=0.3, rate=0.5), rounds=10, deemphasis=1.0)
    suite = build_problem_suite(base)
    rows_a = run_simulation(base.sim, suite)
    rows_b = run_simulation(neutral.sim, suite)
    assert rows_a == rows_b


def test_deemphasis_changes_dynamics_when_below_one():
    base = _config(churn=ChurnConfig(dropout_p=0.3, rate=0.5), rounds=12)
    damped = _config(churn=ChurnConfig(dropout_p=0.3, rate=0.5), rounds=12, deemphasis=0.2)
    suite = build_problem_suite(base)
    rows_a = run_simulation(base.sim, suite)
    rows_b = run_simulation(damped.sim, suite)
    assert rows_a != rows_b


def test_same_seed_gives_identical_trace_bytes(tmp_path):
    cfg = _config(rounds=6)
    suite = build_problem_suite(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(p1, run_simulation(cfg.sim, suite))
    write_trace_csv(p2, run_simulation(cfg.sim, suite))
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    cfg_a = _config(rounds=4, seed=1)
    cfg_b = _config(rounds=4, seed=2)
    rows_a = run_simulation(cfg_a.sim, build_problem_suite(cfg_a))
    rows_b = run_simulation(cfg_b.sim, build_problem_suite(cfg_b))
    assert rows_a != rows_b


def test_average_preserved_every_round_without_dropouts():
    cfg = _config(mobility=FULL_RADIUS, churn=ChurnConfig(dropout_p=0.0), rounds=10)
    suite = build_problem_suite(cfg)

    def observer(result):
        before = result.models_before.mean(axis=0)
        half = result.models_half.mean(axis=0)
        assert np.max(np.abs(half - before)) < 1e-9

    rows = run_simulation(cfg.sim, suite, observer=observer)
    assert all(r.n2 == 0 for r in rows)


def test_descent_beats_pooled_sgd_oracle_within_factor():
    cfg = _config(
        n=6, rounds=40, seed=3,
        mobility=FULL_RADIUS,
        churn=ChurnConfig(dropout_p=0.0),
        eta=EtaSchedule("constant", 0.05),
        suite=SuiteSpec(classes=3, dim=4, total=60, reg=0.2, target_curvature=0.8),
        partition=PartitionConfig(alpha=math.inf),
    )
    suite = build_problem_suite(cfg)
    rows = run_simulation(cfg.sim, suite)
    dists = [r.dist_wbar_sq for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(dists[5:], dists[6:]))

    pooled_x = np.vstack([p.features for p in suite.problems])
    pooled_y = np.concatenate([p.targets for p in suite.problems])
    w_oracle = pooled_sgd_ridge(
        pooled_x, pooled_y, reg=0.2, eta_at=cfg.sim.eta, rounds=cfg.sim.rounds,
        epochs=cfg.sim.local_epochs, batch_size=cfg.sim.batch_size, seed=99,
    )
    oracle_dist = float(np.sum((w_oracle - suite.w_star) ** 2))
    assert dists[-1] <= 10 * oracle_dist + 1e-6


def test_single_sgd_step_movement_matches_full_batch_path():
    # with batch >= shard size each epoch is one exact full-batch step
    cfg = _config(mobility=FULL_RADIUS, churn=ChurnConfig(dropout_p=0.0),
                  local_epochs=2, batch_size=1000, rounds=1)
    suite = build_problem_suite(cfg)
    streams = derive_streams(cfg.sim.seed)
    state = init_state(cfg.sim, suite, streams)
    result = advance_round(state, suite, cfg.sim, streams)
    eta = result.eta
    for i, problem in enumerate(suite.problems):
        w0 = result.models_half[i]
        g0 = local_gradient(problem, w0)
        w1 = w0 - eta * g0
        g1 = local_gradient(problem, w1)
        w2 = w1 - eta * g1
        assert np.allclose(result.state.models[i], w2, atol=1e-12)
        moved = np.linalg.norm(result.state.models[i] - w0)
        steps = cfg.sim.local_epochs * math.ceil(problem.m / cfg.sim.batch_size)
        max_grad = max(np.linalg.norm(g0), np.linalg.norm(g1))
        assert moved <= eta * steps * max_grad + 1e-12


def test_trace_row_counts_and_splits():
    cfg = _config(rounds=15, churn=ChurnConfig(dropout_p=0.2, rate=0.5))
    suite = build_problem_suite(cfg)
    rows = run_simulation(cfg.sim, suite)
    assert len(rows) == 15
    assert [r.t for r in rows] == list(range(15))
    for r in rows:
        assert r.n1 + r.n2 == cfg.sim.n
        assert r.dist_wbar_sq >= 0 and r.dist_wtilde_sq >= 0
        assert r.gamma == pytest.approx(suite.gamma)


def test_softmax_trace_reports_accuracy():
    cfg = _config(rounds=3, suite=SuiteSpec(kind="softmax", classes=3, dim=4, total=60))
    suite = build_problem_suite(cfg)
    rows = run_simulation(cfg.sim, suite)
    assert all(0.0 <= r.mean_acc <= 1.0 for r in rows)


def test_ridge_trace_has_nan_accuracy():
    cfg = _config(rounds=2)
    suite = build_problem_suite(cfg)
    rows = run_simulation(cfg.sim, suite)
    assert all(math.isnan(r.mean_acc) for r in rows)


def _ragged_suite(kind, sizes, d, classes, rng) -> ProblemSuite:
    """Shards of the given sizes; the constants no round reads are NaN."""
    problems = []
    for m in sizes:
        x = rng.normal(size=(m, d))
        y = rng.integers(0, classes, size=m) if kind == "softmax" else rng.normal(size=m)
        problems.append(NodeProblem(x, y, reg=0.1, kind=kind, n_classes=classes))
    dim = problems[0].dim
    return ProblemSuite(problems=problems, dimension=dim, L=math.nan, mu=math.nan,
                        w_star=np.full(dim, math.nan), f_star=math.nan, local_optima=[],
                        gamma=math.nan, grad_bound_sq=math.nan)


def _step_against_the_loop(state, suite, cfg, streams):
    """One round, checked against the per-node loop drawing from a copy of
    the training stream, and bit for bit against the same round from a
    fresh batch layout, run on copies of the streams; returns the round's
    result."""
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = streams["training"].bit_generator.state
    fresh_streams = deepcopy(streams)
    result = advance_round(state, suite, cfg, streams)
    fresh = advance_round(replace(state, layout=None), suite, cfg, fresh_streams)
    assert np.array_equal(result.state.models, fresh.state.models)
    assert streams["training"].bit_generator.state == fresh_streams["training"].bit_generator.state
    training = result.participating | cfg.offline_training
    want = local_sgd_loop(suite.problems, result.models_half, training, result.eta,
                          cfg.local_epochs, cfg.batch_size, ref_rng)
    got = result.state.models
    assert np.array_equal(got[~training], result.models_half[~training])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert streams["training"].bit_generator.state == ref_rng.bit_generator.state
    return result


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["ridge", "softmax"]),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=7),
    batch=st.sampled_from(["one", "between", "above"]),
    epochs=st.integers(1, 3),
    offline=st.booleans(),
    dropout_p=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_sgd_matches_the_per_node_loop(kind, sizes, batch, epochs, offline, dropout_p,
                                                seed):
    rng = np.random.default_rng(seed)
    suite = _ragged_suite(kind, sizes, d=3, classes=3, rng=rng)
    batch_size = {"one": 1, "between": (min(sizes) + max(sizes) + 1) // 2,
                  "above": max(sizes) + 1}[batch]
    cfg = SimConfig(n=len(sizes), rounds=3, seed=seed % 1000, local_epochs=epochs,
                    batch_size=batch_size, offline_training=offline,
                    mobility=MobilityConfig(radius=600.0),
                    churn=ChurnConfig(dropout_p=dropout_p, rate=0.5))
    streams = derive_streams(cfg.seed)
    state = init_state(cfg, suite, streams)
    for _ in range(cfg.rounds):
        state = _step_against_the_loop(state, suite, cfg, streams).state


@settings(max_examples=25)
@given(
    kind=st.sampled_from(["ridge", "softmax"]),
    runs=st.lists(st.tuples(st.integers(1, 6), st.one_of(st.just(1), st.integers(20, 24))),
                  min_size=1, max_size=4),
    batch=st.sampled_from(["one", "between", "above"]),
    epochs=st.integers(1, 3),
    offline=st.booleans(),
    dropout_p=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_permuted_runs_draw_what_the_per_block_shuffles_draw(kind, runs, batch, epochs, offline,
                                                             dropout_p, seed):
    """Shard sizes come in runs: single shards, runs of 20 or more equal
    shards, and shards of one sample.  ``_lockstep_sgd`` shuffles each
    run of equal-length blocks with one ``Generator.permuted`` call, so the
    models and the training stream match the per-node loop only because
    numpy's ``permuted`` shuffles the rows in order with ``shuffle``'s own
    draws; a numpy that changes this fails here."""
    sizes = [size for size, count in runs for _ in range(count)]
    test_lockstep_sgd_matches_the_per_node_loop.hypothesis.inner_test(
        kind, sizes, batch, epochs, offline, dropout_p, seed)


def test_the_batch_layout_follows_a_training_set_that_changes():
    # online training under churn: the training set is each round's
    # participating set, so the layout is rebuilt when that changes and
    # reused while it stays
    suite = _ragged_suite("softmax", [3, 7, 5, 7, 1, 4, 6, 2], d=3, classes=3,
                          rng=np.random.default_rng(5))
    cfg = SimConfig(n=8, rounds=30, seed=3, local_epochs=2, batch_size=3,
                    offline_training=False, mobility=MobilityConfig(radius=1500.0),
                    churn=ChurnConfig(dropout_p=0.05, rate=1.0))
    streams = derive_streams(cfg.seed)
    state = init_state(cfg, suite, streams)
    reused = rebuilt = 0
    for _ in range(cfg.rounds):
        result = _step_against_the_loop(state, suite, cfg, streams)
        layout = result.state.layout
        if result.participating.any():
            assert np.array_equal(layout.nodes, np.flatnonzero(result.participating))
            reused += layout is state.layout
            rebuilt += layout is not state.layout
        state = result.state
    assert reused > 1 and rebuilt > 1


def test_two_suites_never_share_a_batch_layout():
    # the same training ids over shards of other sizes: a state carried
    # from one suite to the other must not lend it its layout, and
    # neither may a state carried to other epochs or another batch size
    cfg = SimConfig(n=4, rounds=1, seed=1, local_epochs=2, batch_size=2,
                    mobility=MobilityConfig(radius=600.0))
    rng = np.random.default_rng(9)
    suites = [_ragged_suite("ridge", sizes, d=3, classes=1, rng=rng)
              for sizes in ([2, 5, 3, 4], [4, 1, 6, 2])]
    streams = derive_streams(cfg.seed)
    state = init_state(cfg, suites[0], streams)
    layouts = []
    for suite, step_cfg in [(suites[0], cfg), (suites[1], cfg), (suites[0], cfg),
                            (suites[1], cfg), (suites[1], replace(cfg, local_epochs=3)),
                            (suites[1], replace(cfg, local_epochs=3, batch_size=3))]:
        state = _step_against_the_loop(state, suite, step_cfg, streams).state
        assert np.array_equal(state.layout.sizes, suite.pooled.sizes)
        layouts.append(state.layout)
    assert len({id(layout) for layout in layouts}) == len(layouts)


def test_one_batch_layout_serves_two_states_in_turn():
    # two runs share one layout and take rounds in turn, so each round
    # finds the layout's scratch as the other run left it; each round
    # must still give a fresh layout's models and training stream
    suite = _ragged_suite("softmax", [3, 7, 5, 7, 1, 4], d=3, classes=3,
                          rng=np.random.default_rng(2))
    cfg = SimConfig(n=6, rounds=6, seed=4, local_epochs=2, batch_size=3,
                    mobility=MobilityConfig(radius=600.0),
                    churn=ChurnConfig(dropout_p=0.3, rate=1.0))
    states, streams = [], []
    for seed in (4, 5):
        streams.append(derive_streams(seed))
        states.append(init_state(cfg, suite, streams[-1]))
    states[0] = _step_against_the_loop(states[0], suite, cfg, streams[0]).state
    states[1] = replace(states[1], layout=states[0].layout)
    for _ in range(cfg.rounds):
        for i in (0, 1):
            states[i] = _step_against_the_loop(states[i], suite, cfg, streams[i]).state
    assert states[0].layout is states[1].layout
