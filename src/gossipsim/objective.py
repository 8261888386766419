"""Per-node strongly convex objectives and their exact characteristics.

Two families are supported, both L2-regularized so strong convexity holds
with constant ``reg`` exactly:

* ridge:   F_i(w) = ||X_i w - y_i||^2 / (2 m_i) + reg/2 ||w||^2
* softmax: F_i(w) = mean cross-entropy of a linear classifier + reg/2 ||w||^2

Both are linear models with outputs z = W x, where the parameter vector
is W flattened row-major: one row for ridge, one per class for softmax.
A family is only its per-sample loss of z and that loss's derivative
(:func:`_sample_loss`, :func:`_sample_dloss`); every loss and gradient is
written once on top of them, except ridge's network loss and gradient
gap, which take the closed forms below.  The suite builder also computes smoothness
and strong-convexity constants, the exact global optimum, per-node optima,
the data-heterogeneity gap, and an empirical bound on squared stochastic
gradient norms.

The per-round diagnostics score every node's model on every shard.  For
ridge they read each node's Gram statistics, built once on first use:
``NodeProblem.gram`` (H_i = X_i^T X_i / m_i) and ``NodeProblem.moments``
(b_i = X_i^T y_i / m_i, c_i = y_i^T y_i / m_i).  The network objective of
a model is then w^T (1/2 (H + reg I) w - b) + c/2, with H, b and c the
node means, cached on the pooled view; a model costs d^2, not N d.  Each
model gets products of its own (batched matmul): an einsum over the
stack would change a model's last bits with the stack's size.  The form
rounds to about eps (c + w^T H w) absolute, not eps times the loss; on
the default, n=100 and alpha=0.1 suites, at model scales 1e-3 to 1e3, it
was within 7.5e-16 of the sample sum, relative.
The gradient gap is (1/n) sum_i (H_i + reg I)(split_i - full_i), one
product with the nodes' stacked H_i + reg I.  The curvature constant, w*
and every local optimum read the same H_i and b_i, so set-up builds each
node's Gram once, and w* solves with the node means the scorers cache.

Softmax has no such closed form and runs over one pooled view of the
shards (:class:`PooledShards`): the samples stacked in node order with
each shard's start offset.  A (k, d) model stack is scored in one pass
over blocks of models (:func:`_softmax_pass`): each block's outputs
W X^T, laid out (models, outputs, samples), are the batched product of
every model's weights with the pooled features.  Each block yields every
model's loss, each sample's loss weighted by 1/(n m_i) and summed along
its model's row, and its accuracy without argmax: a sample is right iff
its target's logit is the class max the loss already took and no class
ahead of the target reaches it.  Given the round's split, the same pass
yields the gradient gap: a dropped node's own logits on its own samples
are columns of its block.  A block holds as many models as keep its
outputs within 256 KB (see ``_BLOCK_BYTES``).  Each model gets a product
of its own, never a slice of one product over the block, so a model
scores the same whichever block it lands in, and alone.  Local SGD
runs over the same view for both families: :func:`lockstep_gradient`
takes one mini-batch gradient of every training node at once.
``local_loss`` and ``local_gradient`` are the per-node reference the
pooled functions are tested against.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "NodeProblem",
    "PooledShards",
    "ProblemSuite",
    "local_loss",
    "local_gradient",
    "pool_shards",
    "constants",
    "local_optimum",
    "global_loss",
    "global_accuracy",
    "global_gradient",
    "softmax_scores",
    "lockstep_gradient",
    "heterogeneity_gap",
    "grad_bound_estimate",
    "build_suite",
    "suite_digest",
]


@dataclass(frozen=True)
class NodeProblem:
    """One node's shard plus the objective it defines.

    ``targets`` is stored as real values for ridge and as integer class
    indices in ``[0, n_classes)`` for softmax; ``n_classes`` is only
    meaningful for softmax.  :attr:`target_rows` is the form of the targets
    that :func:`_sample_dloss` takes.
    """

    features: np.ndarray
    targets: np.ndarray
    reg: float
    kind: str = "ridge"
    n_classes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ridge", "softmax"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (m, d) matrix")
        if not self.reg > 0:
            raise ValueError("reg must be positive for strong convexity")
        labels = self.kind == "softmax"
        if labels and self.n_classes < 2:
            raise ValueError("softmax needs n_classes >= 2")
        if labels and not np.isin(self.targets, np.arange(self.n_classes)).all():
            raise ValueError(f"softmax labels must be integers in [0, {self.n_classes})")
        targets = np.asarray(self.targets, int if labels else float)
        if targets is not self.targets:  # a frozen field write costs more than this test
            object.__setattr__(self, "targets", targets)
        if targets.shape != self.features.shape[:1]:
            raise ValueError("targets length must match sample count")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @cached_property
    def outputs(self) -> int:
        """Rows of the weight matrix: 1 for ridge, n_classes for softmax."""
        return self.n_classes if self.kind == "softmax" else 1

    @cached_property
    def dim(self) -> int:
        return self.features.shape[1] * self.outputs

    @cached_property
    def target_index(self) -> np.ndarray:
        """Each softmax sample's target logit as a flat index into its
        (classes, samples) outputs: y_j * m + j."""
        return self.targets * self.m + np.arange(self.m)

    @cached_property
    def target_rows(self) -> np.ndarray:
        """Each sample's target as :func:`_sample_dloss` takes it: the ridge
        values, or the softmax labels' one-hot rows, whose subtraction
        costs less than indexing."""
        return np.eye(self.outputs)[self.targets] if self.kind == "softmax" else self.targets

    @cached_property
    def gram(self) -> np.ndarray:
        """H = X^T X / m, built on first use: the curvature constant, the
        ridge solves and the ridge scorers all read this one copy."""
        return self.features.T @ self.features / self.m

    @cached_property
    def moments(self) -> tuple[np.ndarray, float]:
        """(b, c) = (X^T y / m, y^T y / m) of a ridge shard, built on first
        use: its data term is 1/2 w^T H w - b^T w + 1/2 c with H = gram."""
        y = self.targets
        return self.features.T @ y / self.m, float(y @ y) / self.m


def _weights(p: NodeProblem, w) -> np.ndarray:
    """The (outputs, d) weight matrix of a flat parameter vector."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p.dim,):
        raise ValueError(f"parameter has dimension {w.shape}, expected ({p.dim},)")
    return w.reshape(p.outputs, -1)


def _batch_rows(p: NodeProblem, batch):
    if batch is None:
        return np.arange(p.m)
    idx = np.asarray(batch, dtype=int)
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    return idx


def _sample_loss(p: NodeProblem, z: np.ndarray) -> np.ndarray:
    """Loss of each sample's outputs ``z[..., :, j]`` against its target:
    half the squared residual for ridge, the cross-entropy of the logits
    for softmax.  ``z`` is laid out (..., outputs, samples), as W X^T of
    the problem's samples gives it."""
    if p.kind == "ridge":
        resid = z[..., 0, :] - p.targets
        return 0.5 * resid * resid
    return _softmax_terms(z, p.target_index)[0]


def _softmax_terms(z: np.ndarray, target_index: np.ndarray):
    """The softmax branch of :func:`_sample_loss`, with the two logits
    per sample it reads on the way: the class max ``top`` and the
    target's logit ``z_y``, each shaped like the loss.  ``target_index``
    is :attr:`NodeProblem.target_index` of the samples."""
    top = z.max(axis=-2)
    # take at flat indices: a fraction of the time of z[..., y, arange(m)]
    z_y = z.reshape(*top.shape[:-1], -1).take(target_index, axis=-1)
    e = z - top[..., None, :]
    np.exp(e, out=e)
    loss = np.log(e.sum(axis=-2))
    loss += top
    loss -= z_y
    return loss, top, z_y


def _sample_dloss(kind: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of :func:`_sample_loss` with respect to ``z``, laid out
    (samples, outputs): the residual for ridge, the softmax probabilities
    minus the one-hot target for softmax.  ``y`` is the samples' rows of
    :attr:`NodeProblem.target_rows`; subtracting a one-hot row gives the
    bits of decrementing the target's class, as x - 0.0 is x."""
    if kind == "ridge":
        return z - y[:, None]
    # the row max class by class: a reduction along the short class axis
    # costs more than one elementwise pass per class, and max is exact
    top = z[:, 0].copy()
    for c in range(1, z.shape[1]):
        np.maximum(top, z[:, c], out=top)
    e = np.exp(z - top[:, None])
    # add.reduce is what e.sum calls, without its Python wrapper
    dz = e / np.add.reduce(e, axis=1, keepdims=True)
    np.subtract(dz, y, out=dz)
    return dz


def local_loss(p: NodeProblem, w) -> float:
    """Value of node loss at ``w`` (full shard)."""
    mat = _weights(p, w)
    per_sample = _sample_loss(p, mat @ p.features.T)
    return float(per_sample.sum() / p.m + 0.5 * p.reg * np.vdot(mat, mat))


def local_gradient(p: NodeProblem, w, batch=None) -> np.ndarray:
    """Mini-batch gradient of the node loss; full-batch when ``batch`` is
    None.  An empty batch is rejected."""
    mat = _weights(p, w)
    rows = _batch_rows(p, batch)
    x = p.features[rows]
    # np.dot: less call overhead than @ on the small batches of local SGD
    dz = _sample_dloss(p.kind, np.dot(x, mat.T), p.target_rows[rows])
    return (np.dot(dz.T, x) / rows.size + p.reg * mat).ravel()


def _power(x: float, k: int) -> float:
    """``x**k`` of a positive Python float, with the same bits where it is
    finite, but infinity where Python's ``**`` raises OverflowError."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _grad_sq_norms(p: NodeProblem, w, xx: np.ndarray) -> np.ndarray:
    """Squared gradient norm of every single-sample batch at ``w``, given
    the samples' squared norms ``xx``, which do not depend on the model."""
    mat = _weights(p, w)
    z = p.features @ mat.T
    dz = _sample_dloss(p.kind, z, p.target_rows)
    # grad_j = outer(dz_j, x_j) + reg * W and <outer(dz_j, x_j), W> = dz_j . z_j, so
    # |grad_j|^2 = dz_j . (dz_j |x_j|^2 + 2 reg z_j) + reg^2 |W|^2
    data_terms = np.einsum("ij,ij->i", dz, dz * xx[:, None] + 2.0 * p.reg * z)
    return data_terms + _power(p.reg, 2) * np.vdot(mat, mat)


@dataclass(frozen=True)
class PooledShards:
    """Every node's shard stacked in node order.

    ``whole`` is the union of the samples as one problem; node i owns its
    rows ``offsets[i] : offsets[i] + sizes[i]`` (CSR ``indptr`` without
    the end).  Every shard is nonempty, so each node's shard mean, and
    with it ``sample_weights``, is finite.  ``nodes`` are the node
    problems themselves, whose Gram caches the ridge scorers read.
    """

    whole: NodeProblem
    sizes: np.ndarray
    offsets: np.ndarray
    nodes: tuple

    @property
    def n(self) -> int:
        return self.sizes.size

    @cached_property
    def sample_weights(self) -> np.ndarray:
        """1/(n m_i) for each pooled sample of node i: a weighted sum over
        the samples is the mean over nodes of the shard means."""
        return np.repeat(1.0 / (self.n * self.sizes), self.sizes)

    @cached_property
    def features_t(self) -> np.ndarray:
        """The pooled features as a C-contiguous (d, N) matrix: the
        right-hand side of W X^T, which BLAS takes twice as fast from it
        as from a transposed view."""
        return np.ascontiguousarray(self.whole.features.T)

    @cached_property
    def before_target(self) -> np.ndarray:
        """The (classes, N) mask of the classes ahead of each softmax
        sample's target, which an accuracy tie with the target must miss."""
        p = self.whole
        return np.arange(p.outputs)[:, None] < p.targets

    @cached_property
    def ridge_means(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The ridge network objective's (H + reg I, b, c), built on first
        use; see :func:`_ridge_means`."""
        return _ridge_means(self.nodes)

    @cached_property
    def ridge_hessians(self) -> np.ndarray:
        """Each node's H_i + reg I stacked as an (n d, d) matrix, built on
        first use: the ridge gradient of node i is (H_i + reg I) w - b_i."""
        eye = self.whole.reg * np.eye(self.whole.features.shape[1])
        return np.concatenate([p.gram + eye for p in self.nodes])


def pool_shards(problems) -> PooledShards:
    """Stack node problems that share kind, reg, class count and feature
    width into one pooled view."""
    problems = list(problems)
    if not problems:
        raise ValueError("need at least one node problem")
    first = problems[0]
    shape = (first.kind, first.reg, first.n_classes, first.features.shape[1])
    if any((p.kind, p.reg, p.n_classes, p.features.shape[1]) != shape for p in problems):
        raise ValueError("pooled shards must share kind, reg, class count and feature width")
    sizes = np.array([p.m for p in problems])
    whole = NodeProblem(np.concatenate([p.features for p in problems]),
                        np.concatenate([p.targets for p in problems]),
                        reg=first.reg, kind=first.kind, n_classes=first.n_classes)
    return PooledShards(whole, sizes, np.concatenate(([0], np.cumsum(sizes[:-1]))),
                        tuple(problems))


def _pooled(source) -> PooledShards:
    """The pooled view of a suite (cached on it), or the view itself.
    Pool a list of node problems with :func:`pool_shards` first."""
    if isinstance(source, ProblemSuite):
        return source.pooled
    if isinstance(source, PooledShards):
        return source
    raise TypeError(
        f"expected a ProblemSuite or PooledShards, got {type(source).__name__}; "
        "pool node problems with pool_shards first"
    )


def _model_stack(pool: PooledShards, models) -> tuple[np.ndarray, bool]:
    """``models`` as a (k, d) stack, and whether it was one (d,) model."""
    w = np.asarray(models, dtype=float)
    stack = np.atleast_2d(w)
    if stack.ndim != 2 or stack.shape[1] != pool.whole.dim:
        raise ValueError(
            f"models have shape {w.shape}, expected ({pool.whole.dim},) or (k, {pool.whole.dim})"
        )
    return stack, w.ndim == 1


# Largest (b, outputs, N) block of model outputs the softmax pass builds;
# ridge scores from the Gram statistics and builds no blocks.  One
# softmax_scores call on softmax-sgd's 14 models (5 classes, 1400 samples,
# 56 KB of outputs a model) took a median of 980 us with 64 KB blocks,
# 775 us at 128 KB, 710 us at 256 KB and 1105 us at 512 KB, over that
# config's 50 rounds (2-core Xeon with 4 MiB of L2, OpenBLAS 0.3.31, one
# thread).  The cliff is not cache: a 512 KB block's temporaries cost
# about 300 minor page faults a call (resource.getrusage), against at
# most 1.4 at 256 KB and none below.
_BLOCK_BYTES = 256 * 1024


def _output_blocks(pool: PooledShards, stack: np.ndarray):
    """The outputs W X^T of the stack's models on all pooled samples, one
    (b, outputs, N) block at a time, each with the slice of the stack it
    covers.  The batched matmul takes one product per model, so a model's
    outputs do not depend on the block it is in; a partial last block is
    not padded."""
    p = pool.whole
    mats = stack.reshape(len(stack), p.outputs, p.features.shape[1])
    width = max(1, _BLOCK_BYTES // (p.outputs * p.m * mats.itemsize))
    for start in range(0, len(mats), width):
        rows = slice(start, start + width)
        yield rows, np.matmul(mats[rows], pool.features_t)


def _top1(z: np.ndarray, top: np.ndarray, z_y: np.ndarray, pool: PooledShards) -> np.ndarray:
    """``z.argmax(axis=-2) == y`` of a (b, classes, N) block with the
    class max ``top`` and target logits ``z_y`` of :func:`_softmax_terms`:
    a sample is right iff its target reaches the max and no class ahead
    of the target does, as argmax takes the first maximum.  A block with
    a NaN maximum takes argmax itself, which ranks a NaN first."""
    if np.isnan(top).any():
        return z.argmax(axis=-2) == pool.whole.targets
    ties = z == top[:, None, :]
    ties &= pool.before_target
    return (z_y == top) & ~np.logical_or.reduce(ties, axis=-2)


def _softmax_pass(pool: PooledShards, stack: np.ndarray, accessible=None):
    """Loss and accuracy of each model of a softmax (k, d) stack from one
    pass over its output blocks, as (loss, accuracy, gap).

    ``accessible`` is None, giving gap None, or a boolean mask over the
    stack's k = n node models.  The gap is then
    (1/n) sum_i [grad F_i(split_i) - grad F_i(wbar)], where split_i is the
    accessible nodes' mean for an accessible node and its own model for a
    dropped one.  The logits of wbar and of the accessible mean take one
    product each, a dropped node's own logits on its own samples are
    columns of its block, and the two softmax derivatives are differenced
    before the one product with the features."""
    p = pool.whole
    loss = 0.5 * p.reg * (stack * stack).sum(axis=1)
    acc = np.empty(len(stack))
    if accessible is not None:
        if accessible.shape != (pool.n,) or len(stack) != pool.n:
            raise ValueError(f"the gap needs {pool.n} models and a mask of shape ({pool.n},)")
        split = stack.copy()
        wbar = stack.mean(axis=0)
        z_split = np.empty((p.outputs, p.m))
        if accessible.any():
            split[accessible] = mean_in = stack[accessible].mean(axis=0)
            np.matmul(mean_in.reshape(p.outputs, -1), pool.features_t, out=z_split)
        ends = pool.offsets + pool.sizes
    for rows, z in _output_blocks(pool, stack):
        per_sample, top, z_y = _softmax_terms(z, p.target_index)
        loss[rows] += (per_sample * pool.sample_weights).sum(axis=1)
        acc[rows] = _top1(z, top, z_y, pool).mean(axis=1)
        if accessible is not None:
            for b in np.flatnonzero(~accessible[rows]).tolist():
                i = rows.start + b
                cols = slice(pool.offsets[i], ends[i])
                z_split[:, cols] = z[b, :, cols]
    if accessible is None:
        return loss, acc, None
    z_bar = wbar.reshape(p.outputs, -1) @ pool.features_t
    y = p.target_rows
    dz = _sample_dloss(p.kind, z_split.T, y) - _sample_dloss(p.kind, z_bar.T, y)
    grad = (pool.sample_weights[:, None] * dz).T @ p.features
    # the mean of the differences, which is 0 when nobody is dropped
    return loss, acc, grad.ravel() + p.reg * (split - wbar).mean(axis=0)


def softmax_scores(problems, models, accessible):
    """Each node model's loss and accuracy, and the gradient gap vector,
    from one :func:`_softmax_pass` over an (n, d) ``models`` of a softmax
    suite; ``accessible`` is the (n,) boolean split of the gap.
    :func:`global_loss`, :func:`global_accuracy` and the softmax
    ``gradient_gap`` are views of the same pass."""
    pool = _pooled(problems)
    if pool.whole.kind != "softmax":
        raise ValueError("softmax_scores needs a softmax problem")
    stack, _ = _model_stack(pool, models)
    return _softmax_pass(pool, stack, np.asarray(accessible, dtype=bool))


def global_loss(problems, models):
    """Unweighted mean of the node losses (the network objective).

    ``problems`` is a ProblemSuite or its PooledShards.  ``models`` is one
    (d,) model, giving a float, or a (k, d) stack, giving an array of k
    values.
    """
    pool = _pooled(problems)
    stack, single = _model_stack(pool, models)
    if pool.whole.kind == "ridge":
        # w^T (1/2 (H + reg I) w - b) + c/2, one product per model
        h, b, c = pool.ridge_means
        rows = stack[:, None, :]
        values = np.matmul(0.5 * np.matmul(rows, h) - b, stack[:, :, None])[:, 0, 0] + 0.5 * c
    else:
        values = _softmax_pass(pool, stack)[0]
    return float(values[0]) if single else values


def global_accuracy(problems, models):
    """Accuracy on the union of all shards (softmax), of one (d,) model as
    a float or of each model of a (k, d) stack as an array."""
    pool = _pooled(problems)
    if pool.whole.kind != "softmax":
        raise ValueError("accuracy is defined for softmax problems only")
    stack, single = _model_stack(pool, models)
    values = _softmax_pass(pool, stack)[1]
    return float(values[0]) if single else values


def _ridge_gradient_change(problems, points, base) -> np.ndarray:
    """(1/n) sum_i [grad F_i(points[i]) - grad F_i(base[i])] for ridge
    (n, d) ``points`` and ``base``.  Ridge gradients are affine, so this is
    (1/n) sum_i (H_i + reg I)(points[i] - base[i]), one product with the
    stacked node Hessians, with no subtraction of two nearly equal
    gradients."""
    pool = _pooled(problems)
    delta = np.asarray(points, dtype=float) - base
    if delta.shape != (pool.n, pool.whole.dim):
        raise ValueError(f"points have shape {delta.shape}, expected ({pool.n}, {pool.whole.dim})")
    # H_i is symmetric, so row block i of the stack applied as delta_i^T H_i is H_i delta_i
    return delta.ravel() @ pool.ridge_hessians / pool.n


def lockstep_gradient(pool: PooledShards, mats: np.ndarray, rows: np.ndarray,
                      counts: np.ndarray, real) -> np.ndarray:
    """Mini-batch gradients of k models at once, as a (k, outputs, d) stack.

    Model r is the (outputs, d) matrix ``mats[r]`` and its batch is the
    pooled rows ``rows[r, :counts[r]]``; the rest of ``rows[r]`` is
    padding, masked out of the sum by ``real``, the (k, width, 1) bool
    array ``slot < counts[r]``, which is None when no batch has padding.
    Row r equals ``local_gradient(node, mats[r].ravel(), batch)`` up to
    rounding.
    """
    p = pool.whole
    # take: about half the time of fancy indexing at local SGD's shapes
    x = p.features.take(rows, axis=0)
    z = np.matmul(x, mats.transpose(0, 2, 1))
    dz = _sample_dloss(p.kind, z.reshape(-1, p.outputs), p.target_rows.take(rows.ravel(), axis=0))
    dz = dz.reshape(z.shape)
    if real is not None:
        np.multiply(dz, real, out=dz)
    return np.matmul(dz.transpose(0, 2, 1), x) / counts[:, None, None] + p.reg * mats


def _curvature(p: NodeProblem) -> float:
    """Largest eigenvalue of X^T X / m for the node's shard."""
    return float(np.linalg.eigvalsh(p.gram)[-1])


def constants(problems) -> tuple[float, float]:
    """Smoothness and strong-convexity constants valid for every node.

    Ridge: L = max_i lambda_max(X_i^T X_i / m_i) + reg.  Softmax: the
    cross-entropy Hessian in logit space is bounded by 1/2, so
    L = max_i lambda_max(X_i^T X_i / m_i) / 2 + reg.  Both families give
    mu = reg as an exact lower curvature bound.
    """
    problems = list(problems)
    reg = problems[0].reg
    top = max(_curvature(p) for p in problems)
    if problems[0].kind == "ridge":
        return top + reg, reg
    return top / 2.0 + reg, reg


def global_gradient(problems, w) -> np.ndarray:
    return np.mean([local_gradient(p, w) for p in problems], axis=0)


def _ridge_means(problems) -> tuple[np.ndarray, np.ndarray, float]:
    """(H + reg I, b, c) of a mean of ridge losses, from the node means of
    each node's cached :attr:`~NodeProblem.gram` and
    :attr:`~NodeProblem.moments`: the mean loss is
    1/2 w^T (H + reg I) w - b^T w + 1/2 c."""
    d = problems[0].features.shape[1]
    h = np.zeros((d, d))
    b = np.zeros(d)
    c = 0.0
    for p in problems:
        h += p.gram
        pb, pc = p.moments
        b += pb
        c += pc
    k = len(problems)
    return h / k + problems[0].reg * np.eye(d), b / k, c / k


def _ridge_solve(means) -> np.ndarray:
    """Closed-form minimizer of a mean of ridge losses with the given
    :func:`_ridge_means`, via the normal equations."""
    h, b, _ = means
    return np.linalg.solve(h, b)


# Gradient-norm target and iteration cap of the softmax optimum's polish
_GRAD_TOL = 1e-10
_MAX_ITER = 200_000


def _descend(problems, w0: np.ndarray) -> np.ndarray:
    """Polish with fixed-step full-batch gradient descent until the global
    gradient norm falls below ``_GRAD_TOL``."""
    smooth, _ = constants(problems)
    w = w0.copy()
    for _ in range(_MAX_ITER):
        g = global_gradient(problems, w)
        if np.linalg.norm(g) < _GRAD_TOL:
            return w
        w = w - g / smooth
    g = global_gradient(problems, w)
    if np.linalg.norm(g) >= _GRAD_TOL:
        raise RuntimeError(
            f"optimum solver did not reach |grad| < {_GRAD_TOL:g} "
            f"within {_MAX_ITER} iterations (residual {np.linalg.norm(g):g})"
        )
    return w


def _minimize(problems) -> np.ndarray:
    """Minimizer of the mean of the node losses.

    Ridge uses the exact normal-equation solve.  Softmax minimizes with
    L-BFGS and polishes with fixed-step descent until the gradient norm is
    below ``_GRAD_TOL``; failure to converge within the cap is an error.
    """
    if problems[0].kind == "ridge":
        return _ridge_solve(_ridge_means(problems))
    # L-BFGS is fed per-node sums: its line search turns last-digit changes
    # of the loss into shifts of the optimum near its 1e-10 tolerance
    res = minimize(
        lambda w: (np.mean([local_loss(p, w) for p in problems]), global_gradient(problems, w)),
        np.zeros(problems[0].dim),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 5000, "gtol": 1e-12, "ftol": 0.0},
    )
    return _descend(problems, res.x)


def local_optimum(p: NodeProblem):
    """Minimizer and value of one node's own loss."""
    w = _minimize([p])
    return w, local_loss(p, w)


def heterogeneity_gap(f_star: float, local_values) -> float:
    """Data-heterogeneity measure: the global optimal value ``f_star``
    minus the mean of the per-node optimal values.

    Gossip with a doubly stochastic matrix minimizes the unweighted mean
    of the node losses, so every node weighs 1/n, and the gap is the mean
    of F_i(w*) - F_i^*, a mean of nonnegative terms.  Identical shards
    give 0.  Tiny negative float residue (>= -1e-10) is clamped to 0.
    """
    share = 1.0 / len(local_values)
    gap = f_star - sum(share * v for v in local_values)
    if -1e-10 <= gap < 0.0:
        return 0.0
    return float(gap)


def grad_bound_estimate(problems, trajectory) -> float:
    """Empirical bound on squared per-sample gradient norms: the max over
    nodes, single-sample batches and trajectory points, times a 1.1
    safety factor.  Running it on a grown trajectory never decreases.
    ``problems`` is as in :func:`global_loss`."""
    pool = _pooled(problems)
    trajectory = list(trajectory)
    if not trajectory:
        raise ValueError("trajectory must be nonempty")
    xx = _sq_norms(pool.whole.features)
    worst = max(float(_grad_sq_norms(pool.whole, w, xx).max()) for w in trajectory)
    return 1.1 * worst


@dataclass
class ProblemSuite:
    """Immutable bundle of node problems plus the exact quantities the
    analysis needs: curvature constants, global and local optima, the
    heterogeneity gap, and a gradient-norm bound estimate."""

    problems: list
    dimension: int
    L: float
    mu: float
    w_star: np.ndarray
    f_star: float
    local_optima: list
    gamma: float
    grad_bound_sq: float

    @property
    def n(self) -> int:
        return len(self.problems)

    @property
    def kind(self) -> str:
        return self.problems[0].kind

    @cached_property
    def pooled(self) -> PooledShards:
        """The shards stacked for the diagnostics, built on first use."""
        return pool_shards(self.problems)


def build_suite(
    features: np.ndarray,
    targets: np.ndarray,
    node_indices,
    kind: str = "ridge",
    reg: float = 0.1,
    n_classes: int = 0,
    target_curvature: float | None = None,
) -> ProblemSuite:
    """Assemble a ProblemSuite from a dataset and per-node index sets.

    When ``target_curvature`` is given, all features are rescaled by one
    common factor so the largest per-node curvature lambda_max(X^T X / m)
    equals it; this pins the smoothness constant without changing the
    geometry of the partition.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets)
    node_indices = [np.asarray(ix, dtype=int) for ix in node_indices]
    if any(ix.size == 0 for ix in node_indices):
        raise ValueError("every node needs at least one sample")
    if kind == "softmax" and n_classes < 2:
        n_classes = int(targets.max()) + 1

    def make_problems(feats):
        return [
            NodeProblem(feats[ix], targets[ix], reg=reg, kind=kind, n_classes=n_classes)
            for ix in node_indices
        ]

    problems = make_problems(features)
    if target_curvature is not None:
        top = max(_curvature(p) for p in problems)
        if top > 0:
            features = features * np.sqrt(target_curvature / top)
            problems = make_problems(features)

    # one pooled view scores the optimum and the bound, and is the suite's
    # own; a ridge w* reads the node means its scorers cache on it
    pool = pool_shards(problems)
    smooth, strong = constants(problems)
    w_star = _ridge_solve(pool.ridge_means) if kind == "ridge" else _minimize(problems)
    f_star = global_loss(pool, w_star)
    local_opts = [local_optimum(p) for p in problems]
    gap = heterogeneity_gap(f_star, [v for _, v in local_opts])
    probes = [np.zeros(problems[0].dim), w_star] + [w for w, _ in local_opts]
    bound = grad_bound_estimate(pool, probes)
    suite = ProblemSuite(
        problems=problems,
        dimension=problems[0].dim,
        L=smooth,
        mu=strong,
        w_star=w_star,
        f_star=f_star,
        local_optima=local_opts,
        gamma=gap,
        grad_bound_sq=bound,
    )
    suite.pooled = pool
    return suite


def suite_digest(suite: ProblemSuite) -> str:
    """Content hash of a suite (for run manifests): SHA-256 of its scalars,
    then of each array's shape and little-endian float64 bytes."""
    first = suite.problems[0]
    scalars = (suite.kind, suite.dimension, first.reg, first.n_classes, suite.L, suite.mu,
               suite.f_star, suite.gamma, suite.grad_bound_sq,
               [v for _, v in suite.local_optima])
    arrays = [suite.w_star] + [w for w, _ in suite.local_optima]
    arrays += [a for p in suite.problems for a in (p.features, p.targets)]
    h = hashlib.sha256(repr(scalars).encode())
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()
