"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from first principles (central
differences, inline gradient formulas) and never calls the code paths it
is used to verify.  There are two library calls: the per-node
``local_gradient`` in :func:`local_sgd_loop`, which is itself held to
central differences, and ``gap_term`` in :func:`gap_monotonicity_check`,
whose monotonicity is what that function checks.
"""

from __future__ import annotations

import math

import numpy as np

from gossipsim.diagnostics import gap_term
from gossipsim.objective import local_gradient


def numerical_gradient(f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def ridge_loss_direct(x: np.ndarray, y: np.ndarray, reg: float, w: np.ndarray) -> float:
    resid = x @ w - y
    return float(resid @ resid / (2 * len(y)) + reg / 2 * (w @ w))


def softmax_loss_direct(x: np.ndarray, y: np.ndarray, reg: float, w: np.ndarray, k: int) -> float:
    mat = w.reshape(k, -1)
    logits = x @ mat.T
    total = 0.0
    for j in range(len(y)):
        z = logits[j] - logits[j].max()
        total += np.log(np.exp(z).sum()) - z[int(y[j])]
    return float(total / len(y) + reg / 2 * (w @ w))


def local_accuracy(p, w: np.ndarray) -> float:
    """Fraction of a softmax node's samples whose largest logit in
    ``x @ W.T`` is their label, W being ``w`` as a (classes, d) matrix."""
    pred = (p.features @ w.reshape(p.n_classes, -1).T).argmax(axis=1)
    return float(np.mean(pred == p.targets))


def gradient_gap_longdouble(problems, models: np.ndarray, mask: np.ndarray) -> float:
    """The softmax gradient gap in ``np.longdouble``: the norm of
    (1/n) sum_i [grad F_i(split_i) - grad F_i(wbar)], where split_i is
    the accessible nodes' mean for an accessible node and its own model
    for a dropped one, each gradient written out in full as
    (softmax(X W^T) - onehot(y))^T X / m + reg W."""
    ld = np.longdouble
    models = np.asarray(models, dtype=ld)
    wbar = models.mean(axis=0)
    split = models.copy()
    if mask.any():
        split[mask] = models[mask].mean(axis=0)

    def grad(p, w):
        x = p.features.astype(ld)
        mat = w.reshape(p.n_classes, -1)
        z = x @ mat.T
        e = np.exp(z - z.max(axis=1, keepdims=True))
        dz = e / e.sum(axis=1, keepdims=True)
        dz[np.arange(p.m), p.targets] -= 1
        return (dz.T @ x / p.m + p.reg * mat).ravel()

    total = sum(grad(p, s) - grad(p, wbar) for p, s in zip(problems, split))
    return float(np.sqrt(np.sum((total / len(problems)) ** 2)))


def per_sample_grad_sq_norms(p, w: np.ndarray) -> np.ndarray:
    """Squared norm of each single-sample gradient at ``w``, every gradient
    written out in full: (x.w - y) x + reg w for ridge, and
    outer(softmax(W x) - onehot(y), x) + reg W for softmax."""
    out = np.empty(p.m)
    for j in range(p.m):
        x, y = p.features[j], p.targets[j]
        if p.kind == "ridge":
            g = (x @ w - y) * x + p.reg * w
        else:
            mat = w.reshape(p.n_classes, -1)
            z = mat @ x
            e = np.exp(z - z.max())
            dz = e / e.sum()
            dz[int(y)] -= 1.0
            g = (np.outer(dz, x) + p.reg * mat).ravel()
        out[j] = g @ g
    return out


def gap_monotonicity_check(eta: float, strong_convexity: float, grad_bound_sq: float, n: int,
                           rates) -> bool:
    """True iff ``gap_term`` strictly grows with the dropped count over
    0..n at every rate of the grid, and strictly shrinks as the rejoin
    rate grows over the grid at every dropped count from 1 to n."""
    rates = sorted(float(r) for r in rates)
    for rate in rates:
        vals = [gap_term(n2, eta, strong_convexity, grad_bound_sq, rate, n) for n2 in range(n + 1)]
        if not all(b > a for a, b in zip(vals, vals[1:])):
            return False
    for n2 in range(1, n + 1):
        vals = [gap_term(n2, eta, strong_convexity, grad_bound_sq, rate, n) for rate in rates]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            return False
    return True


def pooled_sgd_ridge(
    features: np.ndarray,
    targets: np.ndarray,
    reg: float,
    eta_at,
    rounds: int,
    epochs: int,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Plain single-process mini-batch SGD over the pooled samples."""
    rng = np.random.default_rng(seed)
    w = np.zeros(features.shape[1])
    m = features.shape[0]
    for t in range(rounds):
        eta = eta_at(t)
        for _ in range(epochs):
            order = rng.permutation(m)
            for s in range(0, m, batch_size):
                b = order[s : s + batch_size]
                x, y = features[b], targets[b]
                w = w - eta * (x.T @ (x @ w - y) / len(b) + reg * w)
    return w


def step_mobility_loop(state, cfg, rng):
    """Random Waypoint step, one node at a time in ascending id: the
    node-by-node definition the vectorised step must reproduce bit for
    bit, draws from ``rng`` included."""
    out = state.copy()
    for i in range(state.n):
        pos = out.positions[i]
        wp = out.waypoints[i]
        to_wp = wp - pos
        dist = float(np.hypot(to_wp[0], to_wp[1]))
        redraw = False
        if out.pause_remaining[i] > 0.0 or dist == 0.0:
            out.pause_remaining[i] = max(0.0, out.pause_remaining[i] - 1.0)
            redraw = out.pause_remaining[i] == 0.0
        else:
            travel = out.speeds[i]
            if travel >= dist:
                out.positions[i] = wp
                out.pause_remaining[i] = cfg.pause
                redraw = cfg.pause == 0.0
            else:
                out.positions[i] = pos + to_wp * (travel / dist)
        if redraw:
            out.waypoints[i, 0] = rng.uniform(0.0, cfg.area_width, size=1)[0]
            out.waypoints[i, 1] = rng.uniform(0.0, cfg.area_height, size=1)[0]
            out.speeds[i] = rng.uniform(cfg.speed_min, cfg.speed_max)
    return out


def dense_links(positions: np.ndarray, radius: float) -> np.ndarray:
    """Disk-graph link matrix over all n-by-n pairs, True diagonal."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
    edges = dist_sq <= radius * radius
    np.fill_diagonal(edges, True)
    return edges


def dense_metropolis(edges: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Metropolis weights 1/(1 + max(deg_i, deg_j)) on the accessible
    subgraph of a symmetric boolean link matrix, diagonal taking the rest."""
    usable = edges & np.outer(mask, mask)
    np.fill_diagonal(usable, False)
    deg = usable.sum(axis=1)
    weights = np.where(usable, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return weights


def dense_deemphasis(weights: np.ndarray, nodes, factor: float) -> np.ndarray:
    """Scale the links of each node in the rejoining mask ``nodes`` by
    ``factor``, one node after another, moving the removed mass onto both
    diagonals."""
    w = weights.copy()
    idx = np.arange(w.shape[0])
    for r in np.flatnonzero(nodes):
        off = w[r].copy()
        off[r] = 0.0
        removed = (1.0 - factor) * off
        w[r] -= removed
        w[:, r] -= removed
        w[r, r] += removed.sum()
        w[idx, idx] += removed
    return w


def mix_in_row_order(models: np.ndarray, matrix) -> np.ndarray:
    """``W @ models`` for a GossipMatrix's fields, each row summed from zero
    in a fixed order: the links where the node is ``i``, in link order, then
    the links where it is ``j``, then ``diag * x``."""
    out = np.empty_like(models)
    for r in range(matrix.n):
        acc = np.zeros(models.shape[1])
        for k in range(len(matrix.w)):
            if matrix.i[k] == r:
                acc = acc + matrix.w[k] * models[matrix.j[k]]
        for k in range(len(matrix.w)):
            if matrix.j[k] == r:
                acc = acc + matrix.w[k] * models[matrix.i[k]]
        out[r] = acc + matrix.diag[r] * models[r]
    return out


def step_accessibility_dict(accessible, rejoin_at, cfg, t, rng):
    """The churn step on a boolean mask plus a dict {node: rejoin round},
    walked in sorted node order: the definition the array state must
    reproduce exactly, draws from ``rng`` included.  Rejoin rounds are
    unbounded Python ints, ``math.inf`` for an infinite absence.  Returns
    new ``(accessible, rejoin_at)``."""
    accessible = accessible.copy()
    rejoin_at = dict(rejoin_at)
    eligible = accessible.copy()
    for i in sorted(rejoin_at):
        if rejoin_at[i] <= t:
            accessible[i] = True
            del rejoin_at[i]
    for i in range(accessible.shape[0]):
        if eligible[i] and cfg.dropout_p > 0.0 and rng.random() < cfg.dropout_p:
            accessible[i] = False
            absence = float(rng.exponential(1.0 / cfg.rate))
            rejoin_at[i] = t + math.ceil(absence) if math.isfinite(absence) else math.inf
    return accessible, rejoin_at


def gap_bound_loop(models: np.ndarray, mask: np.ndarray, smoothness: float, eta: float):
    """The gradient-gap bound's bracket summed one node at a time around
    the mean model, scaled by L*eta^2/n and (1 + L*eta^2)/n."""
    n = models.shape[0]
    wbar = models.mean(axis=0)
    bracket = 0.0
    if mask.any():
        bracket += mask.sum() * float(np.sqrt(np.sum((models[mask].mean(axis=0) - wbar) ** 2)))
    for i in range(n):
        if not mask[i]:
            bracket += float(np.sqrt(np.sum((models[i] - wbar) ** 2)))
    return smoothness * eta**2 / n * bracket, (1.0 + smoothness * eta**2) / n * bracket


def local_sgd_loop(problems, models: np.ndarray, training, eta: float, epochs: int,
                   batch_size: int, rng) -> np.ndarray:
    """Local SGD one node at a time in ascending id: every node with
    ``training[i]`` set makes ``epochs`` shuffled passes of mini-batch SGD
    over its own shard, one ``local_gradient`` call per batch.  The
    definition the lockstep engine must reproduce, draws from ``rng``
    included.  Returns the new models; the others are copied."""
    out = models.copy()
    for i, problem in enumerate(problems):
        if not training[i]:
            continue
        w = out[i]
        for _ in range(epochs):
            order = rng.permutation(problem.m)
            for start in range(0, problem.m, batch_size):
                w -= eta * local_gradient(problem, w, order[start : start + batch_size])
    return out
