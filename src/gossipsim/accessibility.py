"""Per-round node churn: Bernoulli dropout with exponentially distributed
absence durations.

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
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class AccessibilityState:
    """Per node, the round a dropped node rejoins as a float: -1 while it
    is accessible, +inf if it never does.  A finite rejoin round is exact
    below 2**53 rounds."""

    rejoin_at: np.ndarray

    @property
    def accessible(self) -> np.ndarray:
        """Mask of the nodes not waiting to rejoin (a fresh array)."""
        return self.rejoin_at < 0


def init_accessibility(n: int) -> AccessibilityState:
    if n < 1:
        raise ValueError("need at least one node")
    return AccessibilityState(np.full(n, -1.0))


def absence_duration(rate: float, rng: np.random.Generator) -> float:
    """One continuous exponential absence draw with the given rate (mean
    1/rate), before discretization to whole rounds."""
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    return float(rng.exponential(1.0 / rate))


def step_accessibility(
    state: AccessibilityState, cfg: ChurnConfig, t: int, rng: np.random.Generator
) -> AccessibilityState:
    """Advance the churn state machine to round ``t``.

    Dropped nodes whose rejoin round has arrived come back first.  Then
    every node that began the round accessible (a node that just rejoined
    is not eligible again until the next round) independently drops with
    probability ``dropout_p``, in ascending node id, and is scheduled to
    rejoin after ceil(Exp(rate)) whole rounds, or never after an infinite
    draw.
    """
    rejoin_at = state.rejoin_at.copy()
    eligible = np.flatnonzero(rejoin_at < 0)
    rejoin_at[rejoin_at <= t] = -1
    if cfg.dropout_p > 0.0:
        for i in eligible:
            if rng.random() < cfg.dropout_p:
                duration = absence_duration(cfg.rate, rng)
                rejoin_at[i] = t + math.ceil(duration) if duration < math.inf else math.inf
    return AccessibilityState(rejoin_at)


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
