"""Symmetric doubly stochastic mixing matrices and the averaging step.

The matrix is built with Metropolis weights on the accessible subgraph,
which gives a symmetric doubly stochastic matrix on any undirected graph
without iteration.  Nodes that cannot take part keep an identity row, so
they neither send nor receive mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accessibility import accessible_mask

__all__ = [
    "GossipMatrix",
    "build_gossip_matrix",
    "verify_doubly_stochastic",
    "gossip_average",
    "active_nodes",
    "deemphasize_rejoined",
]


@dataclass
class GossipMatrix:
    """Dense n-by-n mixing weights in [0, 1]."""

    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def build_gossip_matrix(adj, accessible) -> GossipMatrix:
    """Metropolis mixing matrix on the accessible subgraph.

    For accessible neighbors i != j the weight is 1/(1 + max(deg_i, deg_j))
    with degrees counted among accessible nodes only; the diagonal absorbs
    the remainder.  Inaccessible nodes (and accessible nodes with no
    accessible neighbor in range) end up with an exact identity row and
    column.

    Args:
        adj: Adjacency with a symmetric boolean ``edges`` matrix.
        accessible: boolean mask of length n, or a set or array of node ids.
    """
    edges = np.asarray(adj.edges, dtype=bool)
    if edges.shape[0] != edges.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(edges, edges.T):
        raise ValueError("adjacency must be symmetric")
    n = edges.shape[0]
    mask = accessible_mask(n, accessible)

    usable = edges & np.outer(mask, mask)
    np.fill_diagonal(usable, False)
    deg = usable.sum(axis=1)
    pair_max = np.maximum.outer(deg, deg)
    with np.errstate(divide="ignore"):
        weights = np.where(usable, 1.0 / (1.0 + pair_max), 0.0)
    np.fill_diagonal(weights, 0.0)
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return GossipMatrix(weights)


def verify_doubly_stochastic(matrix, tol: float = 1e-9) -> bool:
    """True iff the matrix is symmetric, entrywise in [0, 1], and every
    row and column sums to 1, all within ``tol``."""
    g = matrix.weights if isinstance(matrix, GossipMatrix) else np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        return False
    if not np.all(np.abs(g - g.T) <= tol):
        return False
    if g.min() < -tol or g.max() > 1.0 + tol:
        return False
    ones = np.ones(g.shape[0])
    return bool(
        np.all(np.abs(g.sum(axis=1) - ones) <= tol)
        and np.all(np.abs(g.sum(axis=0) - ones) <= tol)
    )


def gossip_average(models, matrix: GossipMatrix) -> np.ndarray:
    """Mix models with the matrix: output_i = sum_j w_ij * model_j.

    ``models`` is an (n, d) array or a list of n equal-length vectors.
    """
    stacked = np.asarray(models, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("models must form an (n, d) array of equal-length vectors")
    if stacked.shape[0] != matrix.n:
        raise ValueError("model count does not match matrix size")
    return matrix.weights @ stacked


def active_nodes(matrix: GossipMatrix) -> np.ndarray:
    """Mask of nodes that actually exchanged with someone this round,
    i.e. whose diagonal weight is strictly below 1."""
    return matrix.weights.diagonal() < 1.0 - 1e-12


def deemphasize_rejoined(matrix: GossipMatrix, nodes, factor: float) -> GossipMatrix:
    """Scale the incoming and outgoing weights of rejoining nodes by
    ``factor`` in [0, 1], returning the removed mass to the diagonals so
    the matrix stays symmetric doubly stochastic."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError("factor must lie in [0, 1]")
    w = matrix.weights.copy()
    n = w.shape[0]
    for r in sorted(int(i) for i in nodes):
        off = w[r].copy()
        off[r] = 0.0
        removed = (1.0 - factor) * off
        w[r] -= removed
        w[:, r] -= removed
        w[r, r] += removed.sum()
        w[np.arange(n), np.arange(n)] += removed
    return GossipMatrix(w)
