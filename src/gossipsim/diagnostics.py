"""Round-level analysis quantities: the two network averages, the gradient
gap between them with its upper bound, the per-round contraction and noise
terms of the convergence recursion, and the non-vanishing gap component.

Column names of the trace schema are part of the on-disk contract and are
kept verbatim in :data:`TRACE_COLUMNS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .accessibility import accessible_mask
from .objective import _power, _ridge_gradient_change, softmax_scores

__all__ = [
    "TraceRow",
    "TRACE_COLUMNS",
    "full_average",
    "partial_average",
    "gradient_gap",
    "gradient_gap_bound",
    "convergence_terms",
    "convergence_envelope",
    "gap_term",
    "distance_to_optimum",
    "write_trace_csv",
    "read_trace_csv",
]


@dataclass
class TraceRow:
    """One simulation round's metrics.  Field order matches the CSV."""

    t: int = 0
    n1: int = 0
    n2: int = 0
    dist_wbar_sq: float = 0.0
    dist_wtilde_sq: float = 0.0
    div_lhs: float = 0.0
    div_rhs_main: float = 0.0
    div_rhs_appendix: float = 0.0
    alpha_t: float = 0.0
    beta_t: float = 0.0
    thm1_bound: float = 0.0
    gap_term: float = 0.0
    gamma: float = 0.0
    mean_loss: float = 0.0
    mean_acc: float = math.nan


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


def _as_models(models) -> np.ndarray:
    arr = np.asarray(models, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("models must form a nonempty (n, d) array")
    return arr


def full_average(models) -> np.ndarray:
    """Plain mean of all local models."""
    return _as_models(models).mean(axis=0)


def partial_average(models, accessible) -> np.ndarray:
    """Average that keeps accessible and dropped nodes apart: the sum of
    the two group means (an empty group contributes zero), which is not a
    convex combination when both groups are nonempty.  Weighting the
    group means by n1/n and n2/n instead would give the full average."""
    arr = _as_models(models)
    mask = accessible_mask(arr.shape[0], accessible)
    mean_in = arr[mask].mean(axis=0) if mask.any() else np.zeros(arr.shape[1])
    mean_out = arr[~mask].mean(axis=0) if not mask.all() else np.zeros(arr.shape[1])
    return mean_in + mean_out


def gradient_gap(models, accessible, suite) -> float:
    """Norm of the difference between the descent directions seen by the
    two averages.

    The full-average side is the mean of node gradients at the overall
    mean model.  The split side evaluates each accessible node's gradient
    at the accessible-group mean (weight 1/n) and each dropped node's
    gradient at its own model (weight 1/n).  Zero when nobody is dropped
    or when all models coincide.  ``suite`` is a ProblemSuite; its pooled
    view is built on first use.  For ridge the difference is taken
    through each node's Gram matrix, never as a difference of gradients;
    softmax reads it off :func:`~gossipsim.objective.softmax_scores`.
    """
    arr = _as_models(models)
    mask = accessible_mask(arr.shape[0], accessible)
    if suite.kind == "softmax":
        return float(np.linalg.norm(softmax_scores(suite, arr, mask)[2]))
    split = arr.copy()
    if mask.any():
        split[mask] = arr[mask].mean(axis=0)
    full = np.broadcast_to(arr.mean(axis=0), arr.shape)
    return float(np.linalg.norm(_ridge_gradient_change(suite, split, full)))


def gradient_gap_bound(models, accessible, smoothness: float, eta: float) -> tuple[float, float]:
    """Upper bounds paired with :func:`gradient_gap`, as ``(main, appendix)``.

    The bracket is n1 * ||mean_accessible - wbar|| plus the summed
    distances of dropped models from wbar, the mean of ``models``.  The
    two bounds scale it by L * eta^2 / n and (1 + L * eta^2) / n.
    """
    arr = _as_models(models)
    mask = accessible_mask(arr.shape[0], accessible)
    n = arr.shape[0]
    wbar = arr.mean(axis=0)
    bracket = float(np.linalg.norm(arr[~mask] - wbar, axis=1).sum())
    if mask.any():
        bracket += mask.sum() * float(np.linalg.norm(arr[mask].mean(axis=0) - wbar))
    main = smoothness * eta * eta / n * bracket
    appendix = (1.0 + smoothness * eta * eta) / n * bracket
    return main, appendix


def convergence_terms(
    n1: int,
    n2: int,
    mean_inaccessible_norm_sq: float,
    gamma: float,
    eta: float,
    smoothness: float,
    strong_convexity: float,
    grad_bound_sq: float,
    rate: float,
    n: int,
) -> tuple[float, float]:
    """Per-round contraction factor and additive noise of the distance
    recursion dist_{t+1} <= alpha * dist_t + beta.

    alpha = 2 (1 - mu * eta).  beta collects four contributions scaled by
    1/n: the dropped-group mean size, the heterogeneity gap, accessible
    gradient noise, and the staleness term whose eta-free part (see
    :func:`gap_term`) survives a decaying learning rate.
    """
    alpha = 2.0 * (1.0 - strong_convexity * eta)
    beta = (
        eta * smoothness * n1 * mean_inaccessible_norm_sq
        + 4.0 * eta * gamma
        + 2.0 * n1 * _power(eta, 2) * grad_bound_sq
        + 2.0
        * n2
        * grad_bound_sq
        * (2.0 * _power(eta, 3) * (1.0 + 1.0 / rate) + 2.0 * strong_convexity * (1.0 - eta) / rate)
    ) / n
    return alpha, beta


def gap_term(
    n2: int, eta: float, strong_convexity: float, grad_bound_sq: float, rate: float, n: int
) -> float:
    """The component of beta not scaled below by the learning rate:
    4 * mu * (1 - eta) * n2 * G^2 / (n * rate).  Linear in the dropped
    count, inverse in the rejoin rate."""
    return 2.0 * n2 * grad_bound_sq * 2.0 * strong_convexity * (1.0 - eta) / rate / n


def convergence_envelope(pairs, initial_dist_sq: float):
    """Evaluate the distance recursion along a sequence of (alpha, beta)
    pairs, one per round.  Returns the bound value after each round.
    With alpha >= 1 the envelope grows; it is reported as computed, not
    clamped.
    """
    values = []
    bound = float(initial_dist_sq)
    for alpha, beta in pairs:
        bound = alpha * bound + beta
        values.append(bound)
    if not values:
        raise ValueError("trace must be nonempty")
    return values


def distance_to_optimum(w, w_star) -> float:
    """Squared Euclidean distance to the optimum."""
    w = np.asarray(w, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if w.shape != w_star.shape:
        raise ValueError("dimension mismatch")
    diff = w - w_star
    return float(diff @ diff)


def _format_value(name: str, value) -> str:
    if name in ("t", "n1", "n2"):
        return str(int(value))
    return format(float(value), ".12g")


def write_trace_csv(path, rows) -> None:
    """Write trace rows with the exact column order of TRACE_COLUMNS,
    12 significant digits and UNIX newlines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                ",".join(_format_value(c, getattr(row, c)) for c in TRACE_COLUMNS) + "\n"
            )


def read_trace_csv(path):
    """Read back a trace written by :func:`write_trace_csv`.  A row whose
    cell count differs from the header's is an error naming its line."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header {header}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(
                    f"line {lineno} has {len(parts)} cells, expected {len(TRACE_COLUMNS)}"
                )
            kwargs = {}
            for name, raw in zip(TRACE_COLUMNS, parts):
                kwargs[name] = int(raw) if name in ("t", "n1", "n2") else float(raw)
            rows.append(TraceRow(**kwargs))
    return rows
