"""Random Waypoint mobility over a bounded rectangle and the induced
communication graph.

Every function is a pure state transition: callers own the state and the
RNG stream, so independent simulations can run side by side without any
shared mutable data.  The one exception is a cache: ``connectivity``
keeps a neighbour list on the state it is given, and ``step_mobility``
hands it on, so later rounds skip the KD-tree.  The cache never changes
a result: the links depend only on the positions and the radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

__all__ = [
    "MobilityConfig",
    "MobilityState",
    "Adjacency",
    "init_mobility",
    "step_mobility",
    "connectivity",
    "write_trajectory_csv",
]

# Verlet's skin, as a fraction of the radius: the neighbour list holds the
# pairs within radius * (1 + SKIN) and stays valid until some node has
# moved SKIN * radius / 2 from where it was when the list was built.
SKIN = 0.2


@dataclass(frozen=True)
class MobilityConfig:
    """Movement parameters: area size in meters, speed interval in m/s,
    pause on waypoint arrival in seconds and communication radius in
    meters.  One simulation step moves the nodes for one second."""

    area_width: float = 1000.0
    area_height: float = 1000.0
    speed_min: float = 5.0
    speed_max: float = 7.0
    pause: float = 1.0
    radius: float = 250.0

    def __post_init__(self) -> None:
        if not (self.area_width > 0 and self.area_height > 0):
            raise ValueError("area_width and area_height must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("speeds must satisfy 0 < speed_min <= speed_max")
        if not self.pause >= 0:
            raise ValueError("pause must be nonnegative")
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class NeighbourList:
    """Candidate links for :func:`connectivity`: ``pairs`` is a (2, k)
    array of the node pairs i < j within ``radius * (1 + SKIN)`` of each
    other at ``anchors``, the positions the list was built from, sorted by
    ``(i, j)``."""

    radius: float
    anchors: np.ndarray
    pairs: np.ndarray


@dataclass
class MobilityState:
    """Positions, current waypoints, speeds and remaining pause times for
    all nodes.  Arrays are (n, 2) for coordinates and (n,) otherwise.
    ``near`` is :func:`connectivity`'s cached neighbour list, or None."""

    positions: np.ndarray
    waypoints: np.ndarray
    speeds: np.ndarray
    pause_remaining: np.ndarray
    near: NeighbourList | None = None

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def copy(self) -> "MobilityState":
        """A copy of the arrays; the immutable neighbour list is shared."""
        return MobilityState(
            self.positions.copy(),
            self.waypoints.copy(),
            self.speeds.copy(),
            self.pause_remaining.copy(),
            self.near,
        )


@dataclass(frozen=True)
class Adjacency:
    """Undirected disk-graph links as an edge list: ``pairs`` is a (k, 2)
    integer array of node ids ``i < j``, one row per link.  A node always
    reaches itself; self-links are implied, never listed."""

    n: int
    pairs: np.ndarray

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n
                           or (pairs[:, 0] >= pairs[:, 1]).any()):
            raise ValueError(f"links must be pairs i < j of node ids in [0, {self.n})")
        object.__setattr__(self, "pairs", pairs)

    @cached_property
    def edges(self) -> sparse.csr_array:
        """Symmetric boolean link matrix with a True diagonal, built on
        first read."""
        i, j = self.pairs.T
        diag = np.arange(self.n)
        rows = np.concatenate([i, j, diag])
        cols = np.concatenate([j, i, diag])
        return sparse.csr_array((np.ones(rows.size, dtype=bool), (rows, cols)),
                                shape=(self.n, self.n))


def _uniform_points(n: int, cfg: MobilityConfig, rng: np.random.Generator) -> np.ndarray:
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(0.0, cfg.area_width, size=n)
    pts[:, 1] = rng.uniform(0.0, cfg.area_height, size=n)
    return pts


def init_mobility(n: int, cfg: MobilityConfig, rng: np.random.Generator) -> MobilityState:
    """Place ``n`` nodes uniformly in the area, each with a fresh waypoint
    and a speed drawn uniformly from [speed_min, speed_max]."""
    if n < 1:
        raise ValueError("need at least one node")
    positions = _uniform_points(n, cfg, rng)
    waypoints = _uniform_points(n, cfg, rng)
    speeds = rng.uniform(cfg.speed_min, cfg.speed_max, size=n)
    return MobilityState(positions, waypoints, speeds, np.zeros(n))


def step_mobility(state: MobilityState, cfg: MobilityConfig, rng: np.random.Generator) -> MobilityState:
    """Advance every node by one step, one second of movement.

    Moving nodes head straight for their waypoint at their current speed
    and are clamped at the waypoint, where the pause starts within the
    same step.  Paused nodes burn pause time; once it runs out they draw a
    new uniform waypoint and a new uniform speed.  The moves are array
    operations; the redraws then run in ascending node id, so the stream
    is consumed in the same order as a node-by-node loop.
    """
    out = state.copy()
    to_wp = out.waypoints - out.positions
    dist = np.hypot(to_wp[:, 0], to_wp[:, 1])
    paused = (out.pause_remaining > 0.0) | (dist == 0.0)
    out.pause_remaining[paused] = np.maximum(0.0, out.pause_remaining[paused] - 1.0)
    redraw = paused & (out.pause_remaining == 0.0)

    travel = out.speeds  # meters covered in the step's one second
    arrived = ~paused & (travel >= dist)
    out.positions[arrived] = out.waypoints[arrived]
    out.pause_remaining[arrived] = cfg.pause
    if cfg.pause == 0.0:
        redraw |= arrived
    going = ~paused & ~arrived
    out.positions[going] += to_wp[going] * (travel[going] / dist[going])[:, None]

    for i in np.flatnonzero(redraw):
        out.waypoints[i] = _uniform_points(1, cfg, rng)[0]
        out.speeds[i] = rng.uniform(cfg.speed_min, cfg.speed_max)
    return out


def _neighbour_list(state: MobilityState, radius: float) -> NeighbourList:
    """The state's neighbour list if it still holds every pair within
    ``radius``, else a fresh one, which the state then keeps.

    A list built at ``anchors`` holds every pair within ``radius + skin``
    there.  While no node is more than ``skin / 2`` from its anchor, no
    pair can have closed from beyond ``radius + skin`` to within
    ``radius``, so the list still holds every link."""
    near, positions = state.near, state.positions
    skin = SKIN * radius
    if near is not None and near.radius == radius and near.anchors.shape == positions.shape:
        moved = positions - near.anchors
        if np.einsum("ij,ij->i", moved, moved).max(initial=0.0) <= 0.25 * skin * skin:
            return near
    n = state.n
    # the pairs are sorted below, so the tree's order does not matter and
    # its faster unbalanced build will do
    tree = cKDTree(positions, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs((radius + skin) * (1.0 + 1e-9), output_type="ndarray")
    keys = pairs[:, 0] * n + pairs[:, 1]
    keys.sort()
    i = keys // n
    near = NeighbourList(radius, positions.copy(), np.stack((i, keys - i * n)))
    state.near = near
    return near


def connectivity(state: MobilityState, radius: float) -> Adjacency:
    """Disk model links: nodes are connected iff their Euclidean distance
    is at most ``radius``, i.e. ``dx*dx + dy*dy <= radius*radius``.  The
    links come sorted by ``(i, j)``.

    A KD-tree proposes the pairs within a slightly larger radius, and the
    exact squared-distance test decides, so no pair on the boundary
    depends on the tree's own rounding.  The proposals are kept on the
    state as a Verlet neighbour list (see :data:`SKIN`) and asked for
    again only once some node has moved too far; the links are the same
    either way."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    cand = _neighbour_list(state, radius).pairs
    i, j = cand
    x, y = state.positions.T.copy()
    dx, dy = x[i] - x[j], y[i] - y[j]
    keep = dx * dx + dy * dy <= radius * radius
    # np.compress along the pair axis is several times faster than a
    # boolean index into the (2, k) array
    return Adjacency(state.n, np.compress(keep, cand, axis=1).T)


def write_trajectory_csv(path, snapshots) -> None:
    """Dump a trajectory as CSV rows ``t,node_id,x,y`` with coordinates in
    meters at 6 decimal places.  ``snapshots`` is an iterable of
    ``(t, positions)`` pairs."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,node_id,x,y\n")
        for t, positions in snapshots:
            for i, (x, y) in enumerate(np.asarray(positions)):
                fh.write(f"{t},{i},{x:.6f},{y:.6f}\n")
