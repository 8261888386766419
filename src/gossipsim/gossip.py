"""Symmetric doubly stochastic mixing matrices and the averaging step.

The matrix is built with Metropolis weights on the accessible subgraph,
which gives a symmetric doubly stochastic matrix on any undirected graph
without iteration.  Nodes that cannot take part keep an identity row, so
they neither send nor receive mass.

A matrix is stored as its links and its diagonal: each link i < j carries
one weight, used for both directions, and the diagonal holds the rest of
each row.  Nothing on the per-round path is n-by-n; mixing and verification
read the one full form, the CSR ``GossipMatrix.weights``, built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .accessibility import accessible_mask

__all__ = [
    "GossipMatrix",
    "build_gossip_matrix",
    "verify_doubly_stochastic",
    "gossip_average",
    "active_nodes",
    "deemphasize_rejoined",
]


@dataclass(frozen=True)
class GossipMatrix:
    """Mixing weights in [0, 1]: weight ``w[k]`` on the links
    ``(i[k], j[k])`` and ``(j[k], i[k])``, and ``diag`` on the diagonal."""

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    diag: np.ndarray

    @cached_property
    def weights(self) -> sparse.csr_array:
        """The full symmetric matrix in CSR form, built on first read.  Row
        r stores the links where r is ``i``, then those where it is ``j``,
        each in link order, then the diagonal: a product sums a row in
        stored order, so this order fixes the bits of every mixed model."""
        diag = np.arange(self.n)
        rows = np.concatenate([self.i, self.j, diag])
        m = rows.size
        # sorting row*m + position is a stable sort by row, and a faster one
        keys = np.sort(rows * m + np.arange(m))
        order = keys % m
        cols = np.concatenate([self.j, self.i, diag])[order]
        vals = np.concatenate([self.w, self.w, self.diag])[order]
        indptr = np.searchsorted(keys, np.arange(self.n + 1) * m)
        return sparse.csr_array((vals, cols, indptr), shape=(self.n, self.n))


def _with_diagonal(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> GossipMatrix:
    """The matrix of these links whose diagonal takes the rest of each row."""
    row_sums = np.bincount(i, w, minlength=n) + np.bincount(j, w, minlength=n)
    return GossipMatrix(n, i, j, w, 1.0 - row_sums)


def build_gossip_matrix(adj, accessible) -> GossipMatrix:
    """Metropolis mixing matrix on the accessible subgraph.

    For accessible neighbors i != j the weight is 1/(1 + max(deg_i, deg_j))
    with degrees counted among accessible nodes only; the diagonal absorbs
    the remainder.  Inaccessible nodes (and accessible nodes with no
    accessible neighbor in range) end up with an exact identity row and
    column.

    Args:
        adj: Adjacency with ``n`` nodes and links ``pairs``.
        accessible: boolean mask of shape (n,).
    """
    n = adj.n
    mask = accessible_mask(n, accessible)
    i, j = adj.pairs.T
    usable = mask[i] & mask[j]
    i, j = i[usable], j[usable]
    deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    w = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    return _with_diagonal(n, i, j, w)


def verify_doubly_stochastic(matrix, tol: float = 1e-9) -> bool:
    """True iff the matrix is symmetric, entrywise in [0, 1], and every
    row and column sums to 1, all within ``tol``.  Takes a GossipMatrix,
    a scipy sparse matrix or a dense array; only stored entries are read."""
    if isinstance(matrix, GossipMatrix):
        matrix = matrix.weights
    coo = sparse.coo_array(matrix, dtype=float)
    if coo.ndim != 2 or coo.shape[0] != coo.shape[1]:
        return False
    n, (rows, cols), vals = coo.shape[0], coo.coords, coo.data
    # g - g.T on the union of the stored positions and their mirrors
    keys, where = np.unique(np.concatenate([rows * n + cols, cols * n + rows]),
                            return_inverse=True)
    m = vals.size
    asym = np.bincount(where[:m], vals, keys.size) - np.bincount(where[m:], vals, keys.size)
    if not np.all(np.abs(asym) <= tol):
        return False
    low, high = (vals.min(), vals.max()) if m else (0.0, 0.0)
    if m < n * n:  # unstored entries are zeros
        low, high = min(low, 0.0), max(high, 0.0)
    if not (low >= -tol and high <= 1.0 + tol):
        return False
    return bool(
        np.all(np.abs(np.bincount(rows, vals, n) - 1.0) <= tol)
        and np.all(np.abs(np.bincount(cols, vals, n) - 1.0) <= tol)
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
    return matrix.diag < 1.0 - 1e-12


def deemphasize_rejoined(matrix: GossipMatrix, nodes, factor: float) -> GossipMatrix:
    """Scale the incoming and outgoing weights of rejoining nodes by
    ``factor`` in [0, 1], returning the removed mass to the diagonals so
    the matrix stays symmetric doubly stochastic.  A link between two
    rejoining nodes is scaled once for each of them, by ``factor**2``.
    ``nodes`` is a boolean mask of shape (n,)."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError("factor must lie in [0, 1]")
    rejoining = accessible_mask(matrix.n, nodes)
    k = rejoining[matrix.i].astype(np.intp) + rejoining[matrix.j]
    # factor**k from a table of its three values: one pow each, the same bits
    scale = np.power(factor, np.arange(3.0)).take(k)
    return _with_diagonal(matrix.n, matrix.i, matrix.j, matrix.w * scale)
