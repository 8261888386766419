"""Metropolis mixing matrices on a churning geometric graph.

The mixing matrix must stay symmetric doubly stochastic whatever the
graph and the accessibility pattern, give dropped nodes exact identity
rows, and never increase the spread of the models it averages.  The
de-emphasis transform scales a returning node's links while keeping all
of those guarantees.
"""

import numpy as np

from gossipsim import (
    MobilityConfig,
    build_gossip_matrix,
    connectivity,
    deemphasize_rejoined,
    gossip_average,
    init_mobility,
    step_mobility,
    verify_doubly_stochastic,
)
from gossipsim.gossip import active_nodes

cfg = MobilityConfig()
rng = np.random.default_rng(3)
state = init_mobility(14, cfg, rng)
models = rng.normal(size=(14, 5))

print(f"{'t':>3} {'n1':>3} {'doubly stochastic':>18} {'spread before':>14} {'spread after':>13}")
for t in range(8):
    state = step_mobility(state, cfg, rng)
    accessible = rng.random(14) < 0.85  # one-in-seven chance of churn
    matrix = build_gossip_matrix(connectivity(state, cfg.radius), accessible)
    mixed = gossip_average(models, matrix)
    spread = lambda m: np.sum((m - m.mean(axis=0)) ** 2)
    print(
        f"{t:>3} {int(active_nodes(matrix).sum()):>3} "
        f"{str(verify_doubly_stochastic(matrix, 1e-9)):>18} "
        f"{spread(models):>14.4f} {spread(mixed):>13.4f}"
    )
    models = mixed

print("\nde-emphasis of a returning node (id 0) with factor 0.25:")
matrix = build_gossip_matrix(connectivity(state, cfg.radius), np.ones(14, dtype=bool))
scaled = deemphasize_rejoined(matrix, np.arange(14) == 0, 0.25)
print("  still doubly stochastic:", verify_doubly_stochastic(scaled, 1e-9))
print("  node 0 row before:", np.round(matrix.weights.toarray()[0, :5], 4))
print("  node 0 row after: ", np.round(scaled.weights.toarray()[0, :5], 4))
print("  the removed link mass moved onto the diagonals, so averages are preserved")
