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
    "accessible_mask",
    "NEVER",
]

# The rejoin round of an absence that outlasts int64: no run reaches it.
NEVER = int(np.iinfo(np.int64).max)


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
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")


@dataclass
class AccessibilityState:
    """Per node, the round a dropped node rejoins (-1 while it is
    accessible, :data:`NEVER` if it never does) and the last round it was
    accessible (-1 before the first round)."""

    rejoin_at: np.ndarray
    last_accessible: np.ndarray

    @property
    def accessible(self) -> np.ndarray:
        """Mask of the nodes not waiting to rejoin (a fresh array)."""
        return self.rejoin_at < 0

    @property
    def n(self) -> int:
        return self.rejoin_at.shape[0]

    def copy(self) -> "AccessibilityState":
        return AccessibilityState(self.rejoin_at.copy(), self.last_accessible.copy())


def init_accessibility(n: int) -> AccessibilityState:
    if n < 1:
        raise ValueError("need at least one node")
    return AccessibilityState(np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64))


def absence_duration(rate: float, rng: np.random.Generator) -> float:
    """One continuous exponential absence draw with the given rate (mean
    1/rate), before discretization to whole rounds."""
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    return float(rng.exponential(1.0 / rate))


def _rejoin_round(t: int, duration: float) -> int:
    """``t + ceil(duration)``, saturated at :data:`NEVER` (an infinite
    duration included)."""
    if not duration < NEVER - t:
        return NEVER
    return t + math.ceil(duration)


def step_accessibility(
    state: AccessibilityState, cfg: ChurnConfig, t: int, rng: np.random.Generator
) -> AccessibilityState:
    """Advance the churn state machine to round ``t``.

    Dropped nodes whose rejoin round has arrived come back first.  Then
    every node that began the round accessible (a node that just rejoined
    is not eligible again until the next round) independently drops with
    probability ``dropout_p`` and is scheduled to rejoin after
    ceil(Exp(rate)) whole rounds, or never if that round is past int64.
    Finally ``last_accessible`` is stamped for all nodes accessible at the
    end of the round.
    """
    out = state.copy()
    eligible = np.flatnonzero(state.accessible)
    out.rejoin_at[out.rejoin_at <= t] = -1
    if cfg.dropout_p > 0.0:
        for i in eligible:
            if rng.random() < cfg.dropout_p:
                out.rejoin_at[i] = _rejoin_round(t, absence_duration(cfg.rate, rng))
    out.last_accessible[out.accessible] = t
    return out


def rounds_since_accessible(state: AccessibilityState, t: int, i: int) -> int:
    """Rounds elapsed since node ``i`` was last accessible; 0 when it is
    accessible at round ``t``."""
    if not 0 <= i < state.n:
        raise ValueError(f"unknown node id {i}")
    return int(t - state.last_accessible[i])


def accessible_mask(n: int, accessible) -> np.ndarray:
    """``accessible`` as a boolean mask of shape ``(n,)``, the one form a
    round's split into accessible and inaccessible nodes takes.  Anything
    else (sets, lists or arrays of node ids, a mask of the wrong length)
    is rejected."""
    mask = np.asarray(accessible)
    if mask.dtype != bool or mask.shape != (n,):
        raise ValueError(
            f"accessibility must be a boolean mask of shape ({n},), not node ids: "
            f"got {mask.dtype} of shape {mask.shape}"
        )
    return mask
