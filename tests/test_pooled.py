"""The pooled diagnostics against the per-node reference.

``global_loss``, ``global_accuracy``, ``grad_bound_estimate`` and
``gradient_gap`` score models over one stacked sample matrix, and
``lockstep_gradient`` takes local SGD's mini-batch gradients of many
nodes at once from it.  Here they must agree with the per-node library
functions ``local_loss`` and ``local_gradient``, and with the per-node
references ``local_accuracy`` and ``per_sample_grad_sq_norms`` of
``tests/oracles.py``, on random
shards of unequal sizes, including one-sample shards, for single models
and model stacks.  Only rounding differs, so the tolerance is 1e-12
relative.  Ridge scores from each node's cached Gram statistics rather
than from the samples, so its losses are also held to ``local_loss`` on
a suite of the default config, over stacks of every size a run scores.

The sample-by-sample ``node_mean_gradient`` of ``tests/oracles.py``,
which the softmax gap tests compare against, is held to
``local_gradient`` too.

Both sides run the same per-sample kernel, so the losses of both are
also held to the first-principles formulas of ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipsim import objective
from gossipsim.config import build_problem_suite, run_config_from_dict
from gossipsim.diagnostics import gradient_gap
from gossipsim.engine import advance_round, derive_streams, init_state, run_simulation
from gossipsim.objective import (
    NodeProblem,
    ProblemSuite,
    global_accuracy,
    global_loss,
    grad_bound_estimate,
    local_gradient,
    local_loss,
    lockstep_gradient,
    pool_shards,
)
from oracles import (
    local_accuracy,
    node_mean_gradient,
    per_sample_grad_sq_norms,
    ridge_loss_direct,
    softmax_loss_direct,
)

REL = 1e-12
SETTINGS = settings(max_examples=60)


@st.composite
def shards(draw, kinds=("ridge", "softmax")):
    """(problems, rng): 1-6 nodes with 1-7 samples each."""
    kind = draw(st.sampled_from(kinds))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    d = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 4)) if kind == "softmax" else 0
    reg = draw(st.floats(0.01, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = []
    for m in sizes:
        x = rng.normal(size=(m, d))
        y = rng.integers(0, classes, size=m) if kind == "softmax" else rng.normal(size=m)
        problems.append(NodeProblem(x, y, reg=reg, kind=kind, n_classes=classes))
    return problems, rng


def _suite(problems) -> ProblemSuite:
    nan = math.nan
    dim = problems[0].dim
    return ProblemSuite(problems=problems, dimension=dim, L=nan, mu=nan,
                        w_star=np.full(dim, nan), f_star=nan, local_optima=[],
                        gamma=nan, grad_bound_sq=nan)


@SETTINGS
@given(shards(), st.integers(1, 4))
def test_global_loss_is_mean_of_local_losses(case, k):
    problems, rng = case
    stack = rng.normal(size=(k, problems[0].dim))
    want = [np.mean([local_loss(p, w) for p in problems]) for w in stack]
    pool = pool_shards(problems)
    got = global_loss(pool, stack)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
    assert global_loss(_suite(problems), stack).tolist() == got.tolist()
    single = global_loss(pool, stack[0])
    assert isinstance(single, float) and single == got[0]


@SETTINGS
@given(shards(), st.integers(1, 4))
def test_losses_match_the_direct_oracles(case, k):
    problems, rng = case

    def direct(p, w):
        if p.kind == "ridge":
            return ridge_loss_direct(p.features, p.targets, p.reg, w)
        return softmax_loss_direct(p.features, p.targets, p.reg, w, p.n_classes)

    for w in rng.normal(size=(k, problems[0].dim)):
        want = [direct(p, w) for p in problems]
        np.testing.assert_allclose([local_loss(p, w) for p in problems], want, rtol=REL, atol=0)
        assert global_loss(pool_shards(problems), w) == pytest.approx(np.mean(want), rel=REL, abs=0)


@SETTINGS
@given(shards(kinds=("softmax",)), st.integers(1, 4))
def test_global_accuracy_is_data_weighted_local_accuracy(case, k):
    problems, rng = case
    stack = rng.normal(size=(k, problems[0].dim))
    total = sum(p.m for p in problems)
    want = [sum(local_accuracy(p, w) * p.m for p in problems) / total for w in stack]
    pool = pool_shards(problems)
    got = global_accuracy(pool, stack)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
    assert global_accuracy(pool, stack[0]) == got[0]


@pytest.mark.parametrize("kind", ["ridge", "softmax"])
def test_stacked_scores_do_not_depend_on_the_block(kind):
    rng = np.random.default_rng(5)
    classes = 3 if kind == "softmax" else 0
    # about three models' outputs fill a block, so seven models span two
    # full blocks and a partial one
    total = objective._BLOCK_BYTES // (8 * max(classes, 1) * 3)
    problems = []
    for m in (1, total // 3, total - 1 - total // 3):
        x = rng.normal(size=(m, 4))
        y = rng.integers(0, classes, size=m) if classes else rng.normal(size=m)
        problems.append(NodeProblem(x, y, reg=0.3, kind=kind, n_classes=classes))
    pool = pool_shards(problems)
    stack = rng.normal(size=(7, pool.whole.dim))
    widths = [z.shape[0] for _, z in objective._output_blocks(pool, stack)]
    assert len(widths) >= 3 and widths[-1] < widths[0]

    perm = rng.permutation(len(stack))
    scorers = [(global_loss, lambda w: np.mean([local_loss(p, w) for p in problems]))]
    if classes:
        scorers.append((global_accuracy, lambda w: sum(local_accuracy(p, w) * p.m
                                                       for p in problems) / total))
    for score, reference in scorers:
        got = score(pool, stack)
        assert got.tolist() == [score(pool, w) for w in stack]
        unpermuted = np.empty_like(got)
        unpermuted[perm] = score(pool, stack[perm])
        assert unpermuted.tolist() == got.tolist()
        np.testing.assert_allclose(got, [reference(w) for w in stack], rtol=REL, atol=0)


@cache
def _default_ridge_suite():
    return build_problem_suite(run_config_from_dict({}))


@settings(max_examples=40)
@given(st.integers(1, 250), st.sampled_from([1e-3, 1.0, 1e3]), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(1, 1.0, True, 0)
def test_ridge_gram_loss_is_the_mean_of_local_losses(k, scale, around_optimum, seed):
    # near w* the Gram form's terms cancel to f*, where rounding shows most
    suite = _default_ridge_suite()
    rng = np.random.default_rng(seed)
    centre = suite.w_star if around_optimum else 0.0
    stack = centre + scale * rng.normal(size=(k, suite.dimension))
    want = [np.mean([local_loss(p, w) for p in suite.problems]) for w in stack]
    got = global_loss(suite, stack)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
    # one product per model: the same bits alone, in the stack and permuted
    assert got.tolist() == [global_loss(suite, w) for w in stack]
    perm = rng.permutation(k)
    assert global_loss(suite, stack[perm]).tolist() == got[perm].tolist()


def test_the_gram_cache_is_built_only_where_ridge_scoring_reads_it():
    # softmax reads each node's H for its curvature constant, nothing more
    cfg = run_config_from_dict({"n": 4, "rounds": 2, "suite": {"kind": "softmax", "total": 40}})
    suite = build_problem_suite(cfg)
    run_simulation(cfg.sim, suite)
    assert all("gram" in vars(p) and "moments" not in vars(p) for p in suite.problems)
    assert not vars(suite.pooled).keys() & {"ridge_means", "ridge_hessians"}

    # ridge shards assembled by hand, as the bench's advance_round loop
    # does, are only stepped: no set-up or scoring reads their Grams
    sim = run_config_from_dict({"n": 30, "rounds": 3, "local_epochs": 1, "deemphasis": 0.5,
                                "churn": {"dropout_p": 0.1, "lambda": 0.5}}).sim
    streams = derive_streams(sim.seed)
    x = streams["data"].standard_normal((sim.n * 4, 3))
    y = x.sum(axis=1)
    suite = _suite([NodeProblem(x[i:i + 4], y[i:i + 4], reg=0.1) for i in range(0, sim.n * 4, 4)])
    state = init_state(sim, suite, streams)
    for _ in range(sim.rounds):
        state = advance_round(state, suite, sim, streams).state
    assert not any(vars(p).keys() & {"gram", "moments"} for p in suite.problems)
    assert not vars(suite.pooled).keys() & {"ridge_means", "ridge_hessians"}


@SETTINGS
@given(shards(), st.integers(1, 4))
def test_grad_bound_is_max_of_per_sample_norms(case, k):
    problems, rng = case
    trajectory = list(rng.normal(size=(k, problems[0].dim)))
    want = 1.1 * max(per_sample_grad_sq_norms(p, w).max() for w in trajectory for p in problems)
    got = grad_bound_estimate(pool_shards(problems), trajectory)
    assert got == pytest.approx(want, rel=REL, abs=0)


@SETTINGS
@given(shards())
def test_node_mean_gradient_matches_local_gradients(case):
    problems, rng = case
    points = rng.normal(size=(len(problems), problems[0].dim))
    grads = [local_gradient(p, w) for p, w in zip(problems, points)]
    want = np.mean(grads, axis=0)
    scale = np.mean([np.linalg.norm(g) for g in grads])
    got = node_mean_gradient(pool_shards(problems), points)
    assert np.linalg.norm(got - want) <= REL * scale


@SETTINGS
@given(shards(), st.data())
def test_gradient_gap_matches_per_node_reference(case, data):
    problems, rng = case
    n = len(problems)
    suite = _suite(problems)
    models = rng.normal(size=(n, problems[0].dim))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    wbar = models.mean(axis=0)
    split = np.where(mask[:, None], models[mask].mean(axis=0) if mask.any() else 0.0, models)
    g_split = [local_gradient(p, w) for p, w in zip(problems, split)]
    g_full = [local_gradient(p, wbar) for p in problems]
    want = float(np.linalg.norm(np.mean(g_split, axis=0) - np.mean(g_full, axis=0)))
    scale = np.mean([np.linalg.norm(g) for g in g_split + g_full])
    assert abs(gradient_gap(models, mask, suite) - want) <= REL * (want + scale)
    assert gradient_gap(models, np.ones(n, dtype=bool), suite) <= 1e-12


def test_suite_builds_its_pooled_view_once_on_first_use():
    rng = np.random.default_rng(0)
    problems = [NodeProblem(rng.normal(size=(m, 2)), rng.normal(size=m), reg=0.1)
                for m in (3, 1, 2)]
    suite = _suite(problems)
    assert "pooled" not in vars(suite)
    pool = suite.pooled
    assert suite.pooled is pool
    assert pool.sizes.tolist() == [3, 1, 2]
    assert pool.offsets.tolist() == [0, 3, 4]
    assert np.array_equal(pool.whole.features[3], problems[1].features[0])


def test_one_suite_build_pools_the_shards_once(monkeypatch):
    calls = []

    def counted(problems):
        calls.append(1)
        return pool_shards(problems)

    monkeypatch.setattr(objective, "pool_shards", counted)
    suite = build_problem_suite(run_config_from_dict({}))
    assert len(calls) == 1
    assert suite.pooled.n == suite.n
    assert len(calls) == 1


def test_one_ridge_suite_build_sums_the_node_grams_once(monkeypatch):
    # w*, f* and the per-round scorers read one set of network means
    calls = []
    ridge_means = objective._ridge_means

    def counted(problems):
        calls.append(len(problems))
        return ridge_means(problems)

    monkeypatch.setattr(objective, "_ridge_means", counted)
    suite = build_problem_suite(run_config_from_dict({}))
    assert suite.kind == "ridge" and suite.n > 1
    assert calls.count(suite.n) == 1
    global_loss(suite, suite.w_star)
    assert calls.count(suite.n) == 1


@SETTINGS
@given(shards(), st.data())
def test_lockstep_gradient_matches_local_gradient_per_node(case, data):
    problems, rng = case
    pool = pool_shards(problems)
    counts = np.array([data.draw(st.integers(1, p.m)) for p in problems])
    # padding slots point at arbitrary pooled rows; the mask must drop them
    rows = rng.integers(0, pool.whole.m, size=(len(problems), int(counts.max())))
    batches = []
    for r, p in enumerate(problems):
        batches.append(rng.choice(p.m, size=counts[r], replace=False))
        rows[r, :counts[r]] = pool.offsets[r] + batches[r]
    mats = rng.normal(size=(len(problems), p.outputs, p.features.shape[1]))
    real = np.arange(rows.shape[1]) < counts[:, None]
    got = lockstep_gradient(pool, mats, rows, counts, real[:, :, None])
    assert got.shape == mats.shape
    for r, p in enumerate(problems):
        want = local_gradient(p, mats[r].ravel(), batches[r])
        assert np.allclose(got[r].ravel(), want, rtol=REL, atol=REL * np.abs(want).max())
    # a step whose batches are all full passes no mask, and gets the bits
    # an all-true mask gives
    width = int(counts.min())
    full, sizes = rows[:, :width], np.full(len(problems), width)
    assert np.array_equal(lockstep_gradient(pool, mats, full, sizes, None),
                          lockstep_gradient(pool, mats, full, sizes, real[:, :width, None]))


def test_pooling_rejects_mixed_problems_and_wrong_model_shapes():
    x, y = np.ones((2, 2)), np.zeros(2)
    with pytest.raises(ValueError):
        pool_shards([NodeProblem(x, y, reg=0.1), NodeProblem(x, y, reg=0.2)])
    with pytest.raises(ValueError):
        global_loss(pool_shards([NodeProblem(x, y, reg=0.1)]), np.zeros((2, 3)))
    with pytest.raises(ValueError):  # the ridge gap's Gram path checks the model count too
        gradient_gap(np.ones((2, 2)), np.array([True, False]), _suite([NodeProblem(x, y, reg=0.1)]))


def test_a_list_of_node_problems_is_not_pooled_on_the_fly():
    problem = NodeProblem(np.ones((2, 2)), np.zeros(2), reg=0.1)
    with pytest.raises(TypeError, match="list"):
        global_loss([problem], np.zeros(2))
