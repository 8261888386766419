from __future__ import annotations

import math

import numpy as np
import pytest

from gossipsim.dataparts import (
    DegeneratePartitionError,
    PartitionConfig,
    partition,
    synthetic_blobs,
)
from gossipsim.objective import build_suite


def test_blobs_balanced_counts():
    data = synthetic_blobs(2, 3, 10, 4.0, np.random.default_rng(0))
    _, counts = np.unique(data.targets, return_counts=True)
    assert list(counts) == [5, 5]


def test_blobs_uneven_total_spreads_remainder():
    data = synthetic_blobs(3, 2, 11, 4.0, np.random.default_rng(0))
    _, counts = np.unique(data.targets, return_counts=True)
    assert sorted(counts) == [3, 4, 4]


def test_blobs_nearest_centroid_accuracy_with_wide_separation():
    rng = np.random.default_rng(1)
    data = synthetic_blobs(2, 2, 400, 10.0, rng)
    centroids = np.array([data.features[data.targets == c].mean(axis=0) for c in (0, 1)])
    d0 = np.linalg.norm(data.features - centroids[0], axis=1)
    d1 = np.linalg.norm(data.features - centroids[1], axis=1)
    pred = (d1 < d0).astype(int)
    assert np.mean(pred == data.targets) >= 0.99


def test_blobs_respect_separation():
    rng = np.random.default_rng(2)
    for classes in (2, 4, 6):
        data = synthetic_blobs(classes, 3, 20 * classes, 5.0, rng)
        means = np.array([data.features[data.targets == c].mean(axis=0) for c in range(classes)])
        for a in range(classes):
            for b in range(a + 1, classes):
                # empirical means wobble around the true ones
                assert np.linalg.norm(means[a] - means[b]) > 5.0 - 1.5


def test_blobs_deterministic_for_fixed_seed():
    a = synthetic_blobs(3, 4, 30, 4.0, np.random.default_rng(42))
    b = synthetic_blobs(3, 4, 30, 4.0, np.random.default_rng(42))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)


def test_blobs_infeasible_counts_rejected():
    with pytest.raises(ValueError):
        synthetic_blobs(1, 2, 10, 4.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthetic_blobs(5, 2, 4, 4.0, np.random.default_rng(0))


def test_partition_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(alpha=-math.inf)
    with pytest.raises(ValueError):
        PartitionConfig(alpha=0.0)


def test_iid_histograms_track_global_within_one():
    rng = np.random.default_rng(3)
    data = synthetic_blobs(10, 2, 600, 5.0, rng)
    n, per_node = 6, 100
    shards = partition(data, n, PartitionConfig(alpha=math.inf), rng)
    global_counts = np.bincount(data.targets, minlength=10) / data.total
    for shard in shards:
        assert len(shard) == per_node
        hist = np.bincount(data.targets[shard], minlength=10)
        target = global_counts * per_node
        assert np.all(np.abs(hist - target) <= 1.0 + 1e-9)


def test_partition_indices_disjoint_and_within_draw():
    rng = np.random.default_rng(4)
    data = synthetic_blobs(4, 2, 120, 5.0, rng)
    for cfg in (PartitionConfig(alpha=math.inf), PartitionConfig(alpha=1.0)):
        shards = partition(data, 5, cfg, rng)
        merged = np.concatenate(shards)
        assert len(merged) == len(set(merged.tolist()))
        assert sorted(merged.tolist()) == list(range(120))


def test_dirichlet_low_alpha_has_lower_label_entropy():
    def mean_entropy(alpha, seed):
        rng = np.random.default_rng(seed)
        data = synthetic_blobs(5, 2, 250, 5.0, rng)
        shards = partition(data, 5, PartitionConfig(alpha=alpha), rng)
        ents = []
        for shard in shards:
            p = np.bincount(data.targets[shard], minlength=5) / len(shard)
            p = p[p > 0]
            ents.append(-np.sum(p * np.log(p)))
        return np.mean(ents)

    low = np.mean([mean_entropy(1.0, s) for s in range(50)])
    high = np.mean([mean_entropy(10.0, s) for s in range(50)])
    assert low < high


def test_infinite_alpha_falls_back_to_iid():
    rng = np.random.default_rng(5)
    data = synthetic_blobs(4, 2, 80, 5.0, rng)
    cfg = PartitionConfig(alpha=math.inf)
    shards = partition(data, 4, cfg, np.random.default_rng(6))
    assert all(len(s) == 20 for s in shards)
    global_counts = np.bincount(data.targets, minlength=4) / data.total
    for shard in shards:
        hist = np.bincount(data.targets[shard], minlength=4)
        assert np.all(np.abs(hist - global_counts * 20) <= 1.0 + 1e-9)


def test_every_node_gets_a_sample_or_degenerate_error():
    rng = np.random.default_rng(7)
    data = synthetic_blobs(2, 2, 12, 5.0, rng)
    shards = partition(data, 6, PartitionConfig(alpha=0.5), rng)
    assert all(len(s) >= 1 for s in shards)
    # more nodes than samples cannot be satisfied at all
    with pytest.raises(DegeneratePartitionError):
        partition(data, 13, PartitionConfig(alpha=0.05), rng)


def test_dirichlet_proportions_are_used_exactly():
    # apportionment never loses or invents samples per class
    rng = np.random.default_rng(8)
    data = synthetic_blobs(6, 2, 300, 5.0, rng)
    shards = partition(data, 7, PartitionConfig(alpha=0.7), rng)
    for c in range(6):
        total_c = int(np.sum(data.targets == c))
        assigned = sum(int(np.sum(data.targets[s] == c)) for s in shards)
        assert assigned == total_c


def test_gamma_nonincreasing_in_alpha_on_average():
    alphas = [0.5, 1.0, 10.0, math.inf]
    means = []
    for alpha in alphas:
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = synthetic_blobs(5, 6, 140, 5.0, rng)
            shards = partition(data, 14, PartitionConfig(alpha=alpha), rng)
            suite = build_suite(data.features, data.targets.astype(float), shards,
                                kind="ridge", reg=0.1)
            vals.append(suite.gamma)
        means.append(np.mean(vals))
    assert all(a >= b for a, b in zip(means, means[1:]))
