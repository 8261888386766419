"""Random Waypoint movement and the connectivity it induces.

Fourteen nodes roam a 1 km square at 5-7 m/s with a 250 m radio range,
the setup the default simulations use.  We watch how many links exist
and how many nodes are isolated as everyone moves, then dump a
trajectory CSV you can plot with any tool.
"""

import numpy as np

from gossipsim import MobilityConfig, connectivity, init_mobility, step_mobility
from gossipsim.mobility import write_trajectory_csv

cfg = MobilityConfig()  # 1000x1000 m, speeds [5, 7], pause 1 s, radius 250 m
rng = np.random.default_rng(7)
state = init_mobility(14, cfg, rng)

snapshots = [(0, state.positions.copy())]
print(f"{'t':>4} {'links':>6} {'isolated':>9} {'mean degree':>12}")
for t in range(1, 201):
    state = step_mobility(state, cfg, rng)
    snapshots.append((t, state.positions.copy()))
    if t % 20 == 0:
        adj = connectivity(state, cfg.radius)  # links as node-id pairs i < j
        degrees = np.bincount(adj.pairs.ravel(), minlength=adj.n)
        print(f"{t:>4} {len(adj.pairs):>6} {(degrees == 0).sum():>9} {degrees.mean():>12.2f}")

write_trajectory_csv("trajectory.csv", snapshots)
print("\nwrote trajectory.csv (columns t,node_id,x,y)")
print("even with no churn, a few nodes are typically out of everyone's range;")
print("those nodes cannot gossip that round and count as inaccessible")
