"""Per-round node churn: Bernoulli dropout with exponentially distributed
absence durations, plus bookkeeping of when each node last took part.

The state machine here tracks churn only.  Whether a node can actually
exchange models additionally depends on the connectivity graph; the engine
intersects the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChurnConfig",
    "AccessibilityState",
    "init_accessibility",
    "step_accessibility",
    "absence_duration",
    "rounds_since_accessible",
    "partition_nodes",
    "accessible_mask",
]


@dataclass(frozen=True)
class ChurnConfig:
    """``dropout_p`` is the per-round probability that an accessible node
    drops out; ``rate`` is the rate of the exponential absence duration
    (the ``lambda`` knob in config files), so mean absence is 1/rate."""

    dropout_p: float = 0.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_p <= 1.0:
            raise ValueError("dropout_p must lie in [0, 1]")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")


@dataclass
class AccessibilityState:
    """``accessible`` flags per node, scheduled rejoin rounds for dropped
    nodes, and the last round each node was accessible (-1 before the
    first round)."""

    accessible: np.ndarray
    rejoin_at: dict
    last_accessible: np.ndarray

    @property
    def n(self) -> int:
        return self.accessible.shape[0]

    def copy(self) -> "AccessibilityState":
        return AccessibilityState(
            self.accessible.copy(), dict(self.rejoin_at), self.last_accessible.copy()
        )


def init_accessibility(n: int) -> AccessibilityState:
    if n < 1:
        raise ValueError("need at least one node")
    return AccessibilityState(np.ones(n, dtype=bool), {}, np.full(n, -1, dtype=np.int64))


def absence_duration(rate: float, rng: np.random.Generator) -> float:
    """One continuous exponential absence draw with the given rate (mean
    1/rate), before discretization to whole rounds."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return float(rng.exponential(1.0 / rate))


def step_accessibility(
    state: AccessibilityState, cfg: ChurnConfig, t: int, rng: np.random.Generator
) -> AccessibilityState:
    """Advance the churn state machine to round ``t``.

    Dropped nodes whose rejoin round has arrived come back first.  Then
    every node that began the round accessible (a node that just rejoined
    is not eligible again until the next round) independently drops with
    probability ``dropout_p`` and is scheduled to rejoin after
    ceil(Exp(rate)) whole rounds.  Finally ``last_accessible`` is stamped
    for all nodes accessible at the end of the round.
    """
    out = state.copy()
    eligible = state.accessible.copy()
    for i in sorted(out.rejoin_at):
        if out.rejoin_at[i] <= t:
            out.accessible[i] = True
            del out.rejoin_at[i]
    for i in range(out.n):
        if eligible[i] and cfg.dropout_p > 0.0 and rng.random() < cfg.dropout_p:
            out.accessible[i] = False
            out.rejoin_at[i] = t + math.ceil(absence_duration(cfg.rate, rng))
    out.last_accessible[out.accessible] = t
    return out


def rounds_since_accessible(state: AccessibilityState, t: int, i: int) -> int:
    """Rounds elapsed since node ``i`` was last accessible; 0 when it is
    accessible at round ``t``."""
    if not 0 <= i < state.n:
        raise ValueError(f"unknown node id {i}")
    return int(t - state.last_accessible[i])


def partition_nodes(state: AccessibilityState):
    """Split all nodes into the accessible set and its complement.

    Returns ``(accessible_set, dropped_set, n1, n2)`` with n1 + n2 = n.
    """
    accessible = {i for i in range(state.n) if state.accessible[i]}
    dropped = {i for i in range(state.n) if not state.accessible[i]}
    return accessible, dropped, len(accessible), len(dropped)


def accessible_mask(n: int, accessible) -> np.ndarray:
    """Boolean length-``n`` mask of the accessible nodes.

    ``accessible`` is a boolean mask (returned as is), or a set or array
    of node ids.  Ids outside [0, n) are rejected instead of wrapping
    around through negative indexing.
    """
    if isinstance(accessible, (set, frozenset)):
        accessible = list(accessible)
    arr = np.asarray(accessible)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError("boolean accessibility mask has wrong length")
        return arr
    ids = arr.astype(int)
    if np.any((ids < 0) | (ids >= n)):
        raise ValueError(f"node ids must lie in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask
