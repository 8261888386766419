"""Per-node strongly convex objectives and their exact characteristics.

Two families are supported, both L2-regularized so strong convexity holds
with constant ``reg`` exactly:

* ridge:   F_i(w) = ||X_i w - y_i||^2 / (2 m_i) + reg/2 ||w||^2
* softmax: F_i(w) = mean cross-entropy of a linear classifier + reg/2 ||w||^2

Both are linear models with outputs z = W x, where the parameter vector
is W flattened row-major: one row for ridge, one per class for softmax.
A family is only its per-sample loss of z and that loss's derivative
(:func:`_sample_loss`, :func:`_sample_dloss`); every loss and gradient is
written once on top of them.  The suite builder also computes smoothness
and strong-convexity constants, the exact global optimum, per-node optima,
the data-heterogeneity gap, and an empirical bound on squared stochastic
gradient norms.

The per-round diagnostics score every node's model on every shard.  They
run over one pooled view of the shards (:class:`PooledShards`): the
samples stacked in node order with each shard's start offset, so a
model is scored on all shards with one matrix product and a segmented
sum.  Local SGD runs over the same view: :func:`lockstep_gradient` takes
one mini-batch gradient of every training node at once.  ``local_loss``,
``local_gradient`` and ``per_sample_grad_sq_norms`` are the per-node
reference the pooled functions are tested against.
"""

from __future__ import annotations

import hashlib
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
    "local_accuracy",
    "per_sample_grad_sq_norms",
    "pool_shards",
    "constants",
    "local_optimum",
    "global_optimum",
    "global_loss",
    "global_accuracy",
    "global_gradient",
    "node_mean_gradient",
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
    meaningful for softmax.
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
        if self.reg <= 0:
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


def _sample_loss(kind: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Loss of each sample's outputs ``z[j]`` against its target ``y[j]``:
    half the squared residual for ridge, the cross-entropy of the logits
    for softmax."""
    if kind == "ridge":
        resid = z[:, 0] - y
        return 0.5 * resid * resid
    top = z.max(axis=1)
    log_z = np.log(np.exp(z - top[:, None]).sum(axis=1)) + top
    return log_z - z[np.arange(y.size), y]


def _sample_dloss(kind: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of :func:`_sample_loss` with respect to ``z``: the
    residual for ridge, the softmax probabilities minus the one-hot
    target for softmax."""
    if kind == "ridge":
        return z - y[:, None]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    dz = e / e.sum(axis=1, keepdims=True)
    dz[np.arange(y.size), y] -= 1.0
    return dz


def local_loss(p: NodeProblem, w) -> float:
    """Value of node loss at ``w`` (full shard)."""
    mat = _weights(p, w)
    per_sample = _sample_loss(p.kind, p.features @ mat.T, p.targets)
    return float(per_sample.sum() / p.m + 0.5 * p.reg * np.vdot(mat, mat))


def local_gradient(p: NodeProblem, w, batch=None) -> np.ndarray:
    """Mini-batch gradient of the node loss; full-batch when ``batch`` is
    None.  An empty batch is rejected."""
    mat = _weights(p, w)
    rows = _batch_rows(p, batch)
    x = p.features[rows]
    # np.dot: less call overhead than @ on the small batches of local SGD
    dz = _sample_dloss(p.kind, np.dot(x, mat.T), p.targets[rows])
    return (np.dot(dz.T, x) / rows.size + p.reg * mat).ravel()


def local_accuracy(p: NodeProblem, w) -> float:
    """Fraction of the node's own samples classified correctly (softmax)."""
    if p.kind != "softmax":
        raise ValueError("accuracy is defined for softmax problems only")
    pred = (p.features @ _weights(p, w).T).argmax(axis=1)
    return float(np.mean(pred == p.targets))


def per_sample_grad_sq_norms(p: NodeProblem, w) -> np.ndarray:
    """Squared gradient norm of every single-sample batch at ``w``."""
    mat = _weights(p, w)
    x = p.features
    z = x @ mat.T
    dz = _sample_dloss(p.kind, z, p.targets)
    # grad_j = outer(dz_j, x_j) + reg * W and <outer(dz_j, x_j), W> = dz_j . z_j, so
    # |grad_j|^2 = dz_j . (dz_j |x_j|^2 + 2 reg z_j) + reg^2 |W|^2
    xx = np.einsum("ij,ij->i", x, x)
    data_terms = np.einsum("ij,ij->i", dz, dz * xx[:, None] + 2.0 * p.reg * z)
    return data_terms + p.reg**2 * np.vdot(mat, mat)


@dataclass(frozen=True)
class PooledShards:
    """Every node's shard stacked in node order.

    ``whole`` is the union of the samples as one problem; node i owns its
    rows ``offsets[i] : offsets[i] + sizes[i]`` (CSR ``indptr`` without
    the end).  Every shard is nonempty, which ``np.add.reduceat`` over
    ``offsets`` relies on.
    """

    whole: NodeProblem
    sizes: np.ndarray
    offsets: np.ndarray

    @property
    def n(self) -> int:
        return self.sizes.size


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
    return PooledShards(whole, sizes, np.concatenate(([0], np.cumsum(sizes[:-1]))))


def _pooled(source) -> PooledShards:
    """The pooled view of a suite (cached on it), the view itself, or that
    of a sequence of node problems (built on each call)."""
    if isinstance(source, ProblemSuite):
        return source.pooled
    if isinstance(source, PooledShards):
        return source
    return pool_shards(source)


def _model_stack(pool: PooledShards, models) -> tuple[np.ndarray, bool]:
    """``models`` as a (k, d) stack, and whether it was one (d,) model."""
    w = np.asarray(models, dtype=float)
    stack = np.atleast_2d(w)
    if stack.ndim != 2 or stack.shape[1] != pool.whole.dim:
        raise ValueError(
            f"models have shape {w.shape}, expected ({pool.whole.dim},) or (k, {pool.whole.dim})"
        )
    return stack, w.ndim == 1


def _mean_shard_loss(pool: PooledShards, w: np.ndarray) -> float:
    p = pool.whole
    mat = w.reshape(p.outputs, -1)
    per_sample = _sample_loss(p.kind, p.features @ mat.T, p.targets)
    shard_means = np.add.reduceat(per_sample, pool.offsets) / pool.sizes
    return float(shard_means.mean() + 0.5 * p.reg * (w @ w))


def global_loss(problems, models):
    """Unweighted mean of the node losses (the network objective).

    ``problems`` is a ProblemSuite or a sequence of node problems.
    ``models`` is one (d,) model, giving a float, or a (k, d) stack,
    giving an array of k values.
    """
    pool = _pooled(problems)
    stack, single = _model_stack(pool, models)
    values = np.array([_mean_shard_loss(pool, w) for w in stack])
    return float(values[0]) if single else values


def global_accuracy(problems, models):
    """Accuracy on the union of all shards (softmax), of one (d,) model as
    a float or of each model of a (k, d) stack as an array."""
    pool = _pooled(problems)
    stack, single = _model_stack(pool, models)
    values = np.array([local_accuracy(pool.whole, w) for w in stack])
    return float(values[0]) if single else values


def node_mean_gradient(problems, points) -> np.ndarray:
    """Mean of the node gradients, node i's taken at ``points[i]``:
    (1/n) sum_i grad F_i(points[i]) for an (n, d) ``points``."""
    pool = _pooled(problems)
    p = pool.whole
    points = np.asarray(points, dtype=float)
    if points.shape != (pool.n, p.dim):
        raise ValueError(f"points have shape {points.shape}, expected ({pool.n}, {p.dim})")
    # every sample is evaluated at its own node's point, weighted 1/(n m_i)
    mats = np.repeat(points, pool.sizes, axis=0).reshape(p.m, p.outputs, -1)
    weight = np.repeat(1.0 / (pool.n * pool.sizes), pool.sizes)
    dz = _sample_dloss(p.kind, np.einsum("sd,skd->sk", p.features, mats), p.targets)
    grad = (weight[:, None] * dz).T @ p.features
    return grad.ravel() + p.reg * points.mean(axis=0)


def lockstep_gradient(pool: PooledShards, mats: np.ndarray, rows: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
    """Mini-batch gradients of k models at once, as a (k, outputs, d) stack.

    Model r is the (outputs, d) matrix ``mats[r]`` and its batch is the
    pooled rows ``rows[r, :counts[r]]``; the rest of ``rows[r]`` is
    padding, masked out of the sum.  Row r equals
    ``local_gradient(node, mats[r].ravel(), batch)`` up to rounding.
    """
    p = pool.whole
    x = p.features[rows]
    z = np.matmul(x, mats.transpose(0, 2, 1))
    dz = _sample_dloss(p.kind, z.reshape(-1, p.outputs), p.targets[rows].ravel())
    real = np.arange(rows.shape[1]) < counts[:, None]
    dz = dz.reshape(z.shape) * real[:, :, None]
    return np.matmul(dz.transpose(0, 2, 1), x) / counts[:, None, None] + p.reg * mats


def _curvature(p: NodeProblem) -> float:
    """Largest eigenvalue of X^T X / m for the node's shard."""
    gram = p.features.T @ p.features / p.m
    return float(np.linalg.eigvalsh(gram)[-1])


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


def _ridge_solve(problems) -> np.ndarray:
    """Closed-form minimizer of a mean of ridge losses via the normal
    equations."""
    d = problems[0].features.shape[1]
    h = np.zeros((d, d))
    b = np.zeros(d)
    for p in problems:
        h += p.features.T @ p.features / p.m
        b += p.features.T @ p.targets / p.m
    k = len(problems)
    h = h / k + problems[0].reg * np.eye(d)
    return np.linalg.solve(h, b / k)


def _descend(problems, w0: np.ndarray, grad_tol: float, max_iter: int) -> np.ndarray:
    """Polish with fixed-step full-batch gradient descent until the global
    gradient norm falls below ``grad_tol``."""
    smooth, _ = constants(problems)
    w = w0.copy()
    for _ in range(max_iter):
        g = global_gradient(problems, w)
        if np.linalg.norm(g) < grad_tol:
            return w
        w = w - g / smooth
    g = global_gradient(problems, w)
    if np.linalg.norm(g) >= grad_tol:
        raise RuntimeError(
            f"optimum solver did not reach |grad| < {grad_tol:g} "
            f"within {max_iter} iterations (residual {np.linalg.norm(g):g})"
        )
    return w


def _minimize(problems, grad_tol: float = 1e-10, max_iter: int = 200_000) -> np.ndarray:
    """Minimizer of the mean of the node losses.

    Ridge uses the exact normal-equation solve.  Softmax minimizes with
    L-BFGS and polishes with fixed-step descent until the gradient norm is
    below ``grad_tol``; failure to converge within the cap is an error.
    """
    if problems[0].kind == "ridge":
        return _ridge_solve(problems)
    # L-BFGS is fed per-node sums: its line search turns last-digit changes
    # of the loss into shifts of the optimum near its 1e-10 tolerance
    res = minimize(
        lambda w: (np.mean([local_loss(p, w) for p in problems]), global_gradient(problems, w)),
        np.zeros(problems[0].dim),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 5000, "gtol": 1e-12, "ftol": 0.0},
    )
    return _descend(problems, res.x, grad_tol, max_iter)


def global_optimum(problems, grad_tol: float = 1e-10, max_iter: int = 200_000):
    """Minimizer and value of the mean objective (see :func:`_minimize`)."""
    problems = list(problems)
    w = _minimize(problems, grad_tol, max_iter)
    return w, global_loss(problems, w)


def local_optimum(p: NodeProblem, grad_tol: float = 1e-10, max_iter: int = 200_000):
    """Minimizer and value of one node's own loss."""
    w = _minimize([p], grad_tol, max_iter)
    return w, local_loss(p, w)


def heterogeneity_gap(problems, w_star, local_values, weights: str = "data") -> float:
    """Nonnegative data-heterogeneity measure: the gap between the global
    optimal value and the weighted sum of per-node optimal values.

    ``problems`` is as in :func:`global_loss` or a pooled view.
    ``weights="data"`` weighs node i by its data share m_i / sum_j m_j;
    ``weights="uniform"`` uses 1/n.  Identical shards give 0; more skewed
    shards give larger values.  Tiny negative float residue (>= -1e-10)
    is clamped to 0.
    """
    pool = _pooled(problems)
    if weights == "data":
        total = int(pool.sizes.sum())
        shares = [m / total for m in pool.sizes.tolist()]
    elif weights == "uniform":
        shares = [1.0 / pool.n] * pool.n
    else:
        raise ValueError(f"unknown weighting {weights!r}")
    gap = global_loss(pool, w_star) - sum(s * v for s, v in zip(shares, local_values))
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
    worst = max(float(per_sample_grad_sq_norms(pool.whole, w).max()) for w in trajectory)
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
    gamma_weights: str = "data"

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
    gamma_weights: str = "data",
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

    # one pooled view scores the optimum, the gap and the bound, and is
    # the suite's own
    pool = pool_shards(problems)
    smooth, strong = constants(problems)
    w_star = _minimize(problems)
    f_star = global_loss(pool, w_star)
    local_opts = [local_optimum(p) for p in problems]
    gap = heterogeneity_gap(pool, w_star, [v for _, v in local_opts], gamma_weights)
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
        gamma_weights=gamma_weights,
    )
    suite.pooled = pool
    return suite


def suite_digest(suite: ProblemSuite) -> str:
    """Content hash of a suite (for run manifests): SHA-256 of its scalars,
    then of each array's shape and little-endian float64 bytes."""
    first = suite.problems[0]
    scalars = (suite.kind, suite.dimension, first.reg, first.n_classes, suite.L, suite.mu,
               suite.f_star, suite.gamma, suite.gamma_weights, suite.grad_bound_sq,
               [v for _, v in suite.local_optima])
    arrays = [suite.w_star] + [w for w, _ in suite.local_optima]
    arrays += [a for p in suite.problems for a in (p.features, p.targets)]
    h = hashlib.sha256(repr(scalars).encode())
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()
