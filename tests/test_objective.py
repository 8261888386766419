from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import objective
from gossipsim.dataparts import PartitionConfig, partition, synthetic_blobs
from gossipsim.objective import (
    NodeProblem,
    build_suite,
    constants,
    global_gradient,
    global_loss,
    grad_bound_estimate,
    heterogeneity_gap,
    local_gradient,
    local_loss,
    local_optimum,
    pool_shards,
    suite_digest,
)
from oracles import local_accuracy, numerical_gradient, ridge_loss_direct, softmax_loss_direct


def _ridge(x, y, reg=1.0):
    return NodeProblem(np.asarray(x, dtype=float), np.asarray(y, dtype=float), reg=reg)


def _random_suite(rng, n=4, kind="ridge", reg=0.1, classes=3, d=4, total=60, alpha=1.0,
                  target_curvature=None):
    data = synthetic_blobs(classes, d, total, separation=4.0, rng=rng)
    shards = partition(data, n, PartitionConfig(alpha=alpha), rng)
    targets = data.targets if kind == "softmax" else data.targets.astype(float)
    return build_suite(data.features, targets, shards, kind=kind, reg=reg,
                       n_classes=classes if kind == "softmax" else 0,
                       target_curvature=target_curvature)


def test_ridge_loss_zero_at_perfect_fit():
    assert local_loss(_ridge([[1.0]], [0.0]), np.array([0.0])) == 0.0


def test_ridge_loss_hand_value():
    assert local_loss(_ridge([[1.0]], [2.0]), np.array([1.0])) == pytest.approx(1.0)


def test_softmax_uniform_prediction_gives_log_two():
    p = NodeProblem(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), reg=1.0,
        kind="softmax", n_classes=2,
    )
    assert local_loss(p, np.zeros(4)) == pytest.approx(np.log(2.0))


def test_loss_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        local_loss(_ridge([[1.0, 2.0]], [0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        local_gradient(_ridge([[1.0]], [0.0]), np.array([1.0, 2.0]))


def test_gradient_zero_at_local_optimum():
    rng = np.random.default_rng(0)
    p = NodeProblem(rng.normal(size=(12, 4)), rng.normal(size=12), reg=0.3)
    w_opt, _ = local_optimum(p)
    assert np.linalg.norm(local_gradient(p, w_opt)) < 1e-8


def test_gradient_hand_value_zero():
    # single ridge sample, x=1, y=2, reg=1 at w=1: residual term -1, reg term +1
    g = local_gradient(_ridge([[1.0]], [2.0]), np.array([1.0]))
    assert g == pytest.approx([0.0])


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        local_gradient(_ridge([[1.0]], [2.0]), np.array([1.0]), batch=[])


def _softmax_dloss_by_reductions(z, y, row_sum=lambda e: e.sum(axis=1)):
    """The softmax branch of ``_sample_dloss`` with the row max taken by
    ``z.max(axis=1)`` and the row sum by ``row_sum``."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    dz = e / row_sum(e)[:, None]
    dz[np.arange(y.size), y] -= 1.0
    return dz


def _same_bits(a, b) -> bool:
    """Equal bit for bit, except that a NaN may differ from a NaN in sign
    and payload: ``z.max(axis=1)`` does not pin which NaN a row with a NaN
    reduces to, and a trace prints every NaN as ``nan``."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


SPECIAL_LOGITS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1e308, -1e308])


@settings(max_examples=200, deadline=None)
@given(classes=st.integers(2, 64), rows=st.integers(1, 300),
       fill=st.sampled_from(["normal", "ties", "special"]), seed=st.integers(0, 2**32 - 1))
def test_softmax_dloss_takes_the_row_max_class_by_class_exactly(classes, rows, fill, seed):
    # _sample_dloss takes the row max with one np.maximum per class; max
    # is exact, so it must reproduce the z.max(axis=1) form bit for bit,
    # ties, signed zeros and infinities included
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, classes)) * 10.0 ** rng.integers(-3, 4)
    if fill == "ties":
        z = rng.integers(-2, 3, size=(rows, classes)).astype(float)
    elif fill == "special":
        mask = rng.random((rows, classes)) < 0.3
        z[mask] = rng.choice(SPECIAL_LOGITS, size=int(mask.sum()))
    y = rng.integers(0, classes, size=rows)
    with np.errstate(invalid="ignore", over="ignore"):
        want = _softmax_dloss_by_reductions(z, y)
        got = objective._sample_dloss("softmax", z, y)
    assert _same_bits(got, want)


def test_softmax_dloss_keeps_the_pairwise_class_sum():
    # numpy sums a row of 8 or more classes pairwise, in unrolled blocks,
    # so a class-by-class running sum differs in the last bit: the sum
    # cannot be taken the way the max is
    def running(e):
        total = e[:, 0].copy()
        for c in range(1, e.shape[1]):
            total += e[:, c]
        return total

    rng = np.random.default_rng(0)
    z = rng.normal(size=(300, 8))
    y = rng.integers(0, 8, size=300)
    got = objective._sample_dloss("softmax", z, y)
    assert np.array_equal(got, _softmax_dloss_by_reductions(z, y))
    assert not np.array_equal(got, _softmax_dloss_by_reductions(z, y, running))


@pytest.mark.parametrize("kind", ["ridge", "softmax"])
def test_gradients_match_central_differences(kind):
    rng = np.random.default_rng(42)
    classes = 3
    for _ in range(100):
        m, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        x = rng.normal(size=(m, d))
        if kind == "ridge":
            y = rng.normal(size=m)
            p = NodeProblem(x, y, reg=0.2)
            direct = lambda w: ridge_loss_direct(x, y, 0.2, w)
        else:
            y = rng.integers(0, classes, size=m)
            p = NodeProblem(x, y, reg=0.2, kind="softmax", n_classes=classes)
            direct = lambda w: softmax_loss_direct(x, y, 0.2, w, classes)
        w = rng.normal(size=p.dim)
        batch = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        xb, yb = x[batch], y[batch]
        if kind == "ridge":
            sub = lambda w: ridge_loss_direct(xb, yb, 0.2, w)
        else:
            sub = lambda w: softmax_loss_direct(xb, yb, 0.2, w, classes)
        num_full = numerical_gradient(direct, w)
        num_batch = numerical_gradient(sub, w)
        got_full = local_gradient(p, w)
        got_batch = local_gradient(p, w, batch)
        assert np.linalg.norm(got_full - num_full) / max(1.0, np.linalg.norm(num_full)) < 1e-5
        assert np.linalg.norm(got_batch - num_batch) / max(1.0, np.linalg.norm(num_batch)) < 1e-5


def test_constants_hand_value():
    smooth, strong = constants([_ridge([[1.0]], [0.0], reg=0.1)])
    assert smooth == pytest.approx(1.1)
    assert strong == pytest.approx(0.1)


def test_constants_scale_quadratically_with_features():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    l1, _ = constants([NodeProblem(x, y, reg=0.1)])
    l2, _ = constants([NodeProblem(2.0 * x, y, reg=0.1)])
    assert l2 - 0.1 == pytest.approx(4.0 * (l1 - 0.1))


def test_mu_never_exceeds_l():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = NodeProblem(rng.normal(size=(10, 3)), rng.normal(size=10), reg=float(rng.uniform(0.01, 1)))
        smooth, strong = constants([p])
        assert strong <= smooth


def test_global_optimum_identity_features():
    p = NodeProblem(np.eye(2), np.array([1.0, 1.0]), reg=1e-6)
    w_star, _ = local_optimum(p)
    assert np.allclose(w_star, [1.0, 1.0], atol=1e-4)


def test_duplicated_node_does_not_move_optimum():
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(15, 4)), rng.normal(size=15)
    w_single = build_suite(x, y, [np.arange(15)], reg=0.2).w_star
    w_double = build_suite(x, y, [np.arange(15)] * 2, reg=0.2).w_star
    assert np.allclose(w_single, w_double, atol=1e-10)


@pytest.mark.parametrize("kind", ["ridge", "softmax"])
def test_global_gradient_vanishes_at_optimum(kind):
    suite = _random_suite(np.random.default_rng(11), kind=kind)
    assert np.linalg.norm(global_gradient(suite.problems, suite.w_star)) < 1e-8


def test_gamma_zero_for_identical_shards():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    suite = build_suite(x, y, [np.arange(10)] * 5, reg=0.1)
    values = [local_optimum(p)[1] for p in suite.problems]
    assert heterogeneity_gap(suite.f_star, values) < 1e-8


def test_gamma_hand_value_for_disjoint_targets():
    # nodes fit y=0 and y=2 on x=1 with reg=0.1; closed forms give
    # local values 0 and 2/11 and a pooled value of 6/11, so the gap is 5/11
    suite = build_suite([[1.0], [1.0]], [0.0, 2.0], [[0], [1]], reg=0.1)
    a, b = suite.problems
    w_star, f_star = suite.w_star, suite.f_star
    assert w_star[0] == pytest.approx(1.0 / 1.1)
    assert f_star == pytest.approx(6.0 / 11.0)
    values = [local_optimum(p)[1] for p in (a, b)]
    assert values[0] == pytest.approx(0.0)
    assert values[1] == pytest.approx(2.0 / 11.0)
    gap = heterogeneity_gap(f_star, values)
    assert gap == pytest.approx(5.0 / 11.0)
    assert gap > 0


@settings(max_examples=24)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["ridge", "softmax"]),
       n=st.integers(2, 6), alpha=st.floats(0.3, 20.0),
       curvature=st.sampled_from([None, 1e-3, 0.9]))
def test_gamma_nonnegative_on_random_suites(seed, kind, n, alpha, curvature):
    # every node weighs 1/n, so gamma is the mean of F_i(w*) - F_i^*, a
    # mean of nonnegative terms: also on skewed splits of flat features,
    # where weighing by data share made it negative
    suite = _random_suite(np.random.default_rng(seed), n=n, kind=kind, alpha=alpha,
                          target_curvature=curvature)
    assert suite.gamma >= 0.0


def test_gamma_nonnegative_with_data_weights_at_experiment_scale():
    # Dirichlet splits at the experiments' size give nodes very unequal data
    # shares; the gap still weighs each node 1/n and stays nonnegative
    rng = np.random.default_rng(14)
    for _ in range(20):
        data = synthetic_blobs(5, 10, 280, separation=6.0, rng=rng)
        shards = partition(data, 14, PartitionConfig(alpha=float(rng.uniform(0.5, 20))), rng)
        assert len({len(s) for s in shards}) > 1
        suite = build_suite(data.features, data.targets.astype(float), shards,
                            kind="ridge", reg=0.1)
        assert suite.gamma >= 0.0


def test_grad_bound_zero_case():
    p = _ridge([[0.0]], [0.0], reg=0.5)
    assert grad_bound_estimate(pool_shards([p]), [np.zeros(1)]) == 0.0


def test_grad_bound_monotone_in_trajectory():
    rng = np.random.default_rng(14)
    p = NodeProblem(rng.normal(size=(8, 3)), rng.normal(size=8), reg=0.2)
    traj = [rng.normal(size=3) for _ in range(6)]
    prev = 0.0
    for k in range(1, 7):
        est = grad_bound_estimate(pool_shards([p]), traj[:k])
        assert est >= prev
        prev = est


def test_grad_bound_covers_recorded_per_sample_gradients():
    rng = np.random.default_rng(15)
    p = NodeProblem(rng.normal(size=(9, 3)), rng.normal(size=9), reg=0.2)
    traj = [rng.normal(size=3) for _ in range(5)]
    bound = grad_bound_estimate(pool_shards([p]), traj)
    for w in traj:
        for j in range(p.m):
            g = local_gradient(p, w, batch=[j])
            assert g @ g <= bound + 1e-12


def test_per_sample_norms_match_singleton_batches():
    rng = np.random.default_rng(16)
    for kind in ("ridge", "softmax"):
        if kind == "ridge":
            p = NodeProblem(rng.normal(size=(7, 3)), rng.normal(size=7), reg=0.3)
        else:
            p = NodeProblem(rng.normal(size=(7, 3)), rng.integers(0, 3, size=7),
                            reg=0.3, kind="softmax", n_classes=3)
        w = rng.normal(size=p.dim)
        for j in range(p.m):
            alone = NodeProblem(p.features[j : j + 1], p.targets[j : j + 1], reg=p.reg,
                                kind=p.kind, n_classes=p.n_classes)
            # the library's closed form, on a pooled view of sample j alone
            fast = grad_bound_estimate(pool_shards([alone]), [w]) / 1.1
            slow = float(np.sum(local_gradient(p, w, [j]) ** 2))
            assert np.allclose(fast, slow, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", ["ridge", "softmax"])
def test_strong_convexity_and_smoothness_inequalities(kind):
    suite = _random_suite(np.random.default_rng(17), kind=kind)
    rng = np.random.default_rng(18)
    f = lambda w: global_loss(suite, w)
    g = lambda w: global_gradient(suite.problems, w)
    for _ in range(1000):
        w = rng.normal(size=suite.dimension)
        v = rng.normal(size=suite.dimension)
        gap = f(w) - f(v)
        linear = (w - v) @ g(v)
        quad = 0.5 * np.sum((w - v) ** 2)
        assert gap >= linear + suite.mu * quad - 1e-9
        assert gap <= linear + suite.L * quad + 1e-9


def test_global_objective_is_mean_of_locals():
    suite = _random_suite(np.random.default_rng(19))
    rng = np.random.default_rng(20)
    for _ in range(20):
        w = rng.normal(size=suite.dimension)
        mean_local = np.mean([local_loss(p, w) for p in suite.problems])
        assert global_loss(suite, w) == pytest.approx(mean_local, abs=1e-12)
        mean_grad = np.mean([local_gradient(p, w) for p in suite.problems], axis=0)
        assert np.allclose(global_gradient(suite.problems, w), mean_grad, atol=1e-12)


def test_target_curvature_pins_smoothness():
    suite = _random_suite(np.random.default_rng(21))
    data_rng = np.random.default_rng(22)
    data = synthetic_blobs(3, 4, 60, 4.0, data_rng)
    shards = partition(data, 4, PartitionConfig(alpha=math.inf), data_rng)
    pinned = build_suite(data.features, data.targets.astype(float), shards,
                         kind="ridge", reg=0.1, target_curvature=0.9)
    assert pinned.L == pytest.approx(1.0, abs=1e-9)


def test_local_accuracy_perfect_for_separated_blobs():
    rng = np.random.default_rng(23)
    data = synthetic_blobs(2, 2, 40, 12.0, rng)
    p = NodeProblem(data.features, data.targets, reg=0.01, kind="softmax", n_classes=2)
    w_opt, _ = local_optimum(p)
    assert local_accuracy(p, w_opt) >= 0.99


def test_suite_digest_is_stable_and_sees_every_array():
    suite = _random_suite(np.random.default_rng(24), n=3, total=30)
    digest = suite_digest(suite)
    assert suite_digest(_random_suite(np.random.default_rng(24), n=3, total=30)) == digest
    first, second = suite.problems[:2]
    assert first.m >= 2
    nudged = first.features.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    # the last sample of shard 0 becomes the first of shard 1: the stacked
    # feature and target bytes stay the same, only the shard shapes change
    moved = [
        dataclasses.replace(first, features=first.features[:-1], targets=first.targets[:-1]),
        dataclasses.replace(second, features=np.vstack([first.features[-1:], second.features]),
                            targets=np.concatenate([first.targets[-1:], second.targets])),
    ]
    w_star = suite.w_star.copy()
    w_star[-1] = np.nextafter(w_star[-1], np.inf)
    for changed in (
        [dataclasses.replace(first, features=nudged)] + suite.problems[1:],
        moved + suite.problems[2:],
    ):
        assert suite_digest(dataclasses.replace(suite, problems=changed)) != digest
    assert suite_digest(dataclasses.replace(suite, w_star=w_star)) != digest


def test_node_problem_types_its_targets():
    soft = NodeProblem(np.ones((2, 2)), np.array([0.0, 2.0]), reg=0.1, kind="softmax", n_classes=3)
    assert soft.targets.dtype.kind == "i" and soft.targets.tolist() == [0, 2]
    assert (soft.outputs, soft.dim) == (3, 6)
    ridge = NodeProblem(np.ones((2, 2)), np.array([1, 2]), reg=0.1)
    assert ridge.targets.dtype == float and (ridge.outputs, ridge.dim) == (1, 2)


@pytest.mark.parametrize("labels", [[0, -1], [0, 1.7], [0, 3], [0, np.nan]])
def test_softmax_rejects_labels_outside_its_classes(labels):
    with pytest.raises(ValueError, match=r"labels must be integers in \[0, 3\)"):
        NodeProblem(np.ones((2, 2)), np.array(labels), reg=0.1, kind="softmax", n_classes=3)
