"""The pooled diagnostics against the per-node reference.

``global_loss``, ``global_accuracy``, ``grad_bound_estimate`` and
``node_mean_gradient`` (hence ``gradient_gap``) score models over one
stacked sample matrix, and ``lockstep_gradient`` takes local SGD's
mini-batch gradients of many nodes at once from it.  Here they must
agree with the per-node functions ``local_loss``, ``local_accuracy``,
``per_sample_grad_sq_norms`` and ``local_gradient`` on random shards of
unequal sizes, including one-sample shards, for single models and model
stacks.  Only the order of the floating-point sums differs, so the
tolerance is 1e-12 relative.

Both sides run the same per-sample kernel, so the losses of both are
also held to the first-principles formulas of ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import objective
from gossipsim.config import build_problem_suite, run_config_from_dict
from gossipsim.diagnostics import gradient_gap
from gossipsim.objective import (
    NodeProblem,
    ProblemSuite,
    global_accuracy,
    global_loss,
    grad_bound_estimate,
    local_accuracy,
    local_gradient,
    local_loss,
    lockstep_gradient,
    node_mean_gradient,
    per_sample_grad_sq_norms,
    pool_shards,
)
from oracles import ridge_loss_direct, softmax_loss_direct

REL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
    got = global_loss(problems, stack)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
    assert global_loss(_suite(problems), stack).tolist() == got.tolist()
    single = global_loss(problems, stack[0])
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
        assert global_loss(problems, w) == pytest.approx(np.mean(want), rel=REL, abs=0)


@SETTINGS
@given(shards(kinds=("softmax",)), st.integers(1, 4))
def test_global_accuracy_is_data_weighted_local_accuracy(case, k):
    problems, rng = case
    stack = rng.normal(size=(k, problems[0].dim))
    total = sum(p.m for p in problems)
    want = [sum(local_accuracy(p, w) * p.m for p in problems) / total for w in stack]
    got = global_accuracy(problems, stack)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
    assert global_accuracy(problems, stack[0]) == got[0]


@SETTINGS
@given(shards(), st.integers(1, 4))
def test_grad_bound_is_max_of_per_sample_norms(case, k):
    problems, rng = case
    trajectory = list(rng.normal(size=(k, problems[0].dim)))
    want = 1.1 * max(per_sample_grad_sq_norms(p, w).max() for w in trajectory for p in problems)
    assert grad_bound_estimate(problems, trajectory) == pytest.approx(want, rel=REL, abs=0)


@SETTINGS
@given(shards())
def test_node_mean_gradient_matches_local_gradients(case):
    problems, rng = case
    points = rng.normal(size=(len(problems), problems[0].dim))
    grads = [local_gradient(p, w) for p, w in zip(problems, points)]
    want = np.mean(grads, axis=0)
    scale = np.mean([np.linalg.norm(g) for g in grads])
    got = node_mean_gradient(problems, points)
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
    got = lockstep_gradient(pool, mats, rows, counts)
    assert got.shape == mats.shape
    for r, p in enumerate(problems):
        want = local_gradient(p, mats[r].ravel(), batches[r])
        assert np.allclose(got[r].ravel(), want, rtol=REL, atol=REL * np.abs(want).max())


def test_pooling_rejects_mixed_problems_and_wrong_model_shapes():
    x, y = np.ones((2, 2)), np.zeros(2)
    with pytest.raises(ValueError):
        pool_shards([NodeProblem(x, y, reg=0.1), NodeProblem(x, y, reg=0.2)])
    with pytest.raises(ValueError):
        global_loss([NodeProblem(x, y, reg=0.1)], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        node_mean_gradient([NodeProblem(x, y, reg=0.1)], np.zeros((2, 2)))
