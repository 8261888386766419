"""The churn process: Bernoulli dropouts with exponential absences.

An accessible node drops out each round with probability p; the absence
lasts ceil(Exp(rate)) rounds, so the mean continuous duration is 1/rate
and larger rates mean shorter outages.  We check the sampler against its
own theory and count the rounds a single unlucky node stays away.
"""

import numpy as np

from gossipsim import (
    ChurnConfig,
    absence_duration,
    init_accessibility,
    step_accessibility,
)

rng = np.random.default_rng(11)

print("absence duration sampler vs theory (mean = 1/rate):")
for rate in (0.2, 0.5, 1.0):
    draws = np.array([absence_duration(rate, rng) for _ in range(50_000)])
    print(f"  rate {rate:>4}: sample mean {draws.mean():6.3f}  theory {1 / rate:6.3f}")

print("\n14 nodes, p=10%, rate=1, 50 rounds, one seed:")
cfg = ChurnConfig(dropout_p=0.1, rate=1.0)
state = init_accessibility(14)
out_counts = []
for t in range(50):
    state = step_accessibility(state, cfg, t, rng)
    out_counts.append(int((~state.accessible).sum()))
print(f"  inaccessible per round: mean {np.mean(out_counts):.2f}, max {max(out_counts)}")

print("\nnode 0 across one forced outage:")
state = init_accessibility(1)
state = step_accessibility(state, ChurnConfig(dropout_p=1.0, rate=0.3), 0, rng)
rejoin = int(state.rejoin_at[0])
absent = 0
for t in range(0, rejoin + 2):
    if t > 0:
        state = step_accessibility(state, ChurnConfig(dropout_p=0.0), t, rng)
    absent = 0 if state.accessible[0] else absent + 1
    flag = "accessible" if state.accessible[0] else "absent"
    print(f"  t={t}: {flag:>10}, rounds absent (churn) = {absent}")
print("  the counter grows by one per absent round and resets on rejoin")
