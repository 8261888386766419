"""Synthetic labeled data and its assignment to nodes.

One split, keyed by the Dirichlet concentration alpha: a finite alpha
draws a Dirichlet(alpha) split, where smaller alpha means more skewed
shards, and its limit alpha = inf is a stratified i.i.d. split where every
node's class histogram tracks the global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "PartitionConfig",
    "DegeneratePartitionError",
    "synthetic_blobs",
    "partition",
]


class DegeneratePartitionError(RuntimeError):
    """Raised when repeated draws cannot give every node at least one sample."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    targets: np.ndarray

    @property
    def total(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PartitionConfig:
    """``alpha`` is the Dirichlet concentration; an infinite alpha is the
    i.i.d. split, which deals every node ``total // n`` samples."""

    alpha: float = 10.0

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


def _largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of ``total`` units proportional to ``targets``
    (nonnegative, not all zero): floors first, then one extra unit to the
    largest remainders."""
    if targets.sum() <= 0:
        raise ValueError("apportionment targets must have positive sum")
    shares = targets * (total / targets.sum())
    counts = np.floor(shares).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(shares - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def synthetic_blobs(
    classes: int, d: int, total: int, separation: float, rng: np.random.Generator
) -> Dataset:
    """Balanced Gaussian blobs with unit covariance and class means at
    pairwise distance >= separation.  Class counts differ by at most one.
    """
    if classes < 2:
        raise ValueError("need at least two classes")
    if total < classes:
        raise ValueError("need at least one sample per class")
    if not separation > 0:
        raise ValueError("separation must be positive")

    means = _spread_means(classes, d, separation, rng)
    counts = np.full(classes, total // classes)
    counts[: total % classes] += 1

    feats = np.vstack(
        [means[c] + rng.standard_normal((counts[c], d)) for c in range(classes)]
    )
    labels = np.repeat(np.arange(classes), counts)
    order = rng.permutation(total)
    return Dataset(feats[order], labels[order])


def _spread_means(classes: int, d: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    """Sample class means with guaranteed pairwise separation: rejection
    sampling in a box, falling back to a collinear layout if unlucky.
    Means are centered on their centroid so the classes spread around the
    origin (linear models here carry no intercept)."""
    side = separation * classes
    for _ in range(200):
        means = rng.uniform(0.0, side, size=(classes, d))
        diff = means[:, None, :] - means[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= separation:
            return means - means.mean(axis=0)
    means = np.zeros((classes, d))
    means[:, 0] = separation * np.arange(classes)
    return means - means.mean(axis=0)


def partition(dataset: Dataset, n: int, cfg: PartitionConfig, rng: np.random.Generator):
    """Assign sample indices to ``n`` nodes.  Returns a list of disjoint
    integer index arrays; every node receives at least one sample."""
    if dataset.total < 1:
        raise ValueError("dataset must be nonempty")
    if n < 1:
        raise ValueError("need at least one node")
    labels = np.asarray(dataset.targets, dtype=int)
    if math.isinf(cfg.alpha):
        per_node = dataset.total // n
        if per_node < 1:
            raise ValueError(f"{n} nodes need at least {n} samples, got {dataset.total}")
        return _stratified(labels, n, per_node, rng)
    return _dirichlet(labels, n, cfg.alpha, rng)


def _stratified(labels: np.ndarray, n: int, per_node: int, rng: np.random.Generator):
    """Shards of exactly ``per_node`` samples whose class histograms match
    the global distribution within one sample per class."""
    classes, counts = np.unique(labels, return_counts=True)
    draw_total = per_node * n
    class_quota = _largest_remainder(counts.astype(float), draw_total)

    pools = {c: rng.permutation(np.flatnonzero(labels == c)) for c in classes}
    dealt = []
    base = class_quota // n
    cursor = 0
    for k, c in enumerate(classes):
        take = np.full(n, base[k])
        for r in range(class_quota[k] - base[k] * n):
            take[(cursor + r) % n] += 1
        cursor += class_quota[k] - base[k] * n
        dealt.append(np.split(pools[c][: class_quota[k]], np.cumsum(take)[:-1]))
    return [np.sort(np.concatenate(parts)) for parts in zip(*dealt)]


def _dirichlet(labels: np.ndarray, n: int, alpha: float, rng: np.random.Generator, cap: int = 100):
    """Per class, node proportions are drawn from Dirichlet(alpha) and
    converted to exact counts by largest-remainder apportionment.  Draws
    are repeated until every node owns a sample, up to ``cap`` tries."""
    classes, counts = np.unique(labels, return_counts=True)
    pools = {c: rng.permutation(np.flatnonzero(labels == c)) for c in classes}
    for _ in range(cap):
        dealt = []
        for k, c in enumerate(classes):
            take = _largest_remainder(rng.dirichlet(np.full(n, alpha)), counts[k])
            dealt.append(np.split(pools[c], np.cumsum(take)[:-1]))
        shards = [np.concatenate(parts) for parts in zip(*dealt)]
        if all(s.size >= 1 for s in shards):
            return [np.sort(s) for s in shards]
    raise DegeneratePartitionError(
        f"could not give every one of {n} nodes a sample within {cap} draws"
    )
