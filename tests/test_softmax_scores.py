"""The softmax scoring pass: loss, accuracy and the gradient gap of every
node model from one blocked pass over the pooled samples.

Accuracy is read off the loss's own terms without ``argmax``: a sample is
right iff its target's logit equals the class max and no class ahead of
the target reaches it.  That rule must give ``argmax``'s bits on any
logits, ties, signed zeros, infinities and NaNs included, whatever the
block.  A model's loss and accuracy must not depend on the block it is
scored in, and the gap, which differences the two softmax derivatives
before the one product with the features, is held to a long-double
reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import objective
from gossipsim.config import build_problem_suite, run_config_from_dict
from gossipsim.diagnostics import gradient_gap
from gossipsim.engine import run_simulation
from gossipsim.objective import (
    NodeProblem,
    global_accuracy,
    global_loss,
    pool_shards,
    softmax_scores,
)
from oracles import gradient_gap_longdouble, node_mean_gradient, softmax_dloss_by_labels

SPECIAL_LOGITS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1e308, -1e308])


def _labels_pool(y: np.ndarray, classes: int):
    """A softmax pool whose samples carry the labels ``y``; its features
    are never read by the accuracy rule."""
    x = np.ones((y.size, 1))
    return pool_shards([NodeProblem(x, y, reg=1.0, kind="softmax", n_classes=classes)])


@settings(max_examples=200, deadline=None)
@given(classes=st.integers(2, 9), samples=st.integers(1, 40), models=st.integers(1, 5),
       fill=st.sampled_from(["normal", "ties", "special"]), seed=st.integers(0, 2**32 - 1))
def test_accuracy_without_argmax_is_argmax_bit_for_bit(classes, samples, models, fill, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(models, classes, samples)) * 10.0 ** rng.integers(-3, 4)
    if fill == "ties":
        z = rng.integers(-1, 2, size=z.shape).astype(float)
    elif fill == "special":
        mask = rng.random(z.shape) < 0.4
        z[mask] = rng.choice(SPECIAL_LOGITS, size=int(mask.sum()))
    y = rng.integers(0, classes, size=samples)
    pool = _labels_pool(y, classes)
    want = z.argmax(axis=1) == y
    # blocks of one model, of two and of all of them
    for width in (1, 2, models):
        got = []
        for start in range(0, models, width):
            block = z[start:start + width]
            with np.errstate(invalid="ignore", over="ignore"):
                _, top, z_y = objective._softmax_terms(block, pool.whole.target_index)
            got.append(objective._top1(block, top, z_y, pool))
        assert np.array_equal(np.concatenate(got), want)


@settings(max_examples=100, deadline=None)
@given(classes=st.integers(2, 9), rows=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_one_hot_rows_give_the_labels_derivative_bits(classes, rows, seed):
    # _sample_dloss subtracts one-hot rows; x - 0.0 is x, so that gives
    # the bits of taking 1 off the target class by label
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, classes))
    mask = rng.random(z.shape) < 0.3
    z[mask] = rng.choice(SPECIAL_LOGITS, size=int(mask.sum()))
    y = rng.integers(0, classes, size=rows)
    with np.errstate(invalid="ignore", over="ignore"):
        want = softmax_dloss_by_labels(z, y)
        got = objective._sample_dloss("softmax", z, np.eye(classes)[y])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[~np.isnan(got)].view(np.uint64), want[~np.isnan(want)].view(np.uint64))


def _suite_of(kind_cfg: dict, seed: int):
    cfg = run_config_from_dict(dict(kind_cfg, seed=seed))
    return cfg, build_problem_suite(cfg)


@pytest.mark.parametrize("block_models", [1, 2, 3, 14])
def test_scores_do_not_depend_on_the_block(monkeypatch, block_models):
    cfg, suite = _suite_of({"n": 14, "rounds": 3, "churn": {"dropout_p": 0.3},
                            "suite": {"kind": "softmax", "total": 210}}, 3)
    models = []
    run_simulation(cfg.sim, suite,
                   observer=lambda r: models.append((r.state.models, r.participating)))
    stack, part = models[-1]
    assert 0 < part.sum() < part.size
    pool = suite.pooled
    want = softmax_scores(suite, stack, part)
    one_model = pool.whole.outputs * pool.whole.m * 8
    monkeypatch.setattr(objective, "_BLOCK_BYTES", block_models * one_model)
    widths = {z.shape[0] for _, z in objective._output_blocks(pool, stack)}
    assert max(widths) == block_models
    got = softmax_scores(suite, stack, part)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    # and each model alone, through the loss and accuracy views
    assert [global_loss(suite, w) for w in stack] == want[0].tolist()
    assert [global_accuracy(suite, w) for w in stack] == want[1].tolist()


def test_the_gap_is_zero_when_nobody_is_dropped():
    _, suite = _suite_of({"n": 6, "suite": {"kind": "softmax", "total": 60}}, 0)
    models = np.random.default_rng(0).normal(size=(6, suite.dimension))
    assert not softmax_scores(suite, models, np.ones(6, bool))[2].any()
    assert gradient_gap(models, np.ones(6, bool), suite) == 0.0


def _gap_cases(count: int):
    """Random softmax shards, models and splits: 2-6 nodes of 1-30
    samples, 2-9 classes, models at scales 1e-2 to 10."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 10))
        d = int(rng.integers(1, 6))
        reg = float(rng.uniform(0.01, 1.0))
        problems = [NodeProblem(rng.normal(size=(m, d)), rng.integers(0, classes, size=m),
                                reg=reg, kind="softmax", n_classes=classes)
                    for m in rng.integers(1, 31, size=n)]
        models = rng.normal(size=(n, problems[0].dim)) * 10.0 ** rng.uniform(-2, 1)
        mask = rng.random(n) < 0.5
        if mask.all():
            mask[0] = False
        yield problems, models, mask


def _relative_errors(gap_of):
    errors = []
    for problems, models, mask in _gap_cases(200):
        want = gradient_gap_longdouble(problems, models, mask)
        errors.append(abs(gap_of(problems, models, mask) - want) / want)
    return np.array(errors)


def _pass_gap(problems, models, mask):
    return float(np.linalg.norm(softmax_scores(pool_shards(problems), models, mask)[2]))


def _two_gradient_gap(problems, models, mask):
    """The gap as a difference of two node-mean gradients."""
    pool = pool_shards(problems)
    split = models.copy()
    split[mask] = models[mask].mean(axis=0) if mask.any() else 0.0
    full = np.broadcast_to(models.mean(axis=0), models.shape)
    return float(np.linalg.norm(node_mean_gradient(pool, split) - node_mean_gradient(pool, full)))


def test_the_gap_matches_a_long_double_reference():
    errors = _relative_errors(_pass_gap)
    # differencing the derivatives before the product is no less accurate
    # than differencing two gradients
    assert np.median(errors) <= np.median(_relative_errors(_two_gradient_gap))
    assert np.median(errors) < 1e-14 and errors.max() < 1e-12
