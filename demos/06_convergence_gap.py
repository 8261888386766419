"""Node inaccessibility leaves a gap that a decaying rate cannot fix.

We run the gap-reproduction setup (always-connected graph, absent nodes
frozen at their last model, learning rate 0.1/(1+t)) for three dropout
probabilities and watch the final distance to the optimum grow with the
dropout rate.  The per-round recursion terms tell the same story
analytically: the staleness component of the additive noise is linear in
the number of absent nodes, inverse in the rejoin rate, and survives
eta -> 0, so the recursion never settles at zero error under churn.
"""

import numpy as np

from gossipsim import ChurnConfig, EtaSchedule, MobilityConfig, SimConfig, run_simulation
from gossipsim.config import RunConfig, SuiteSpec, build_problem_suite
from gossipsim.dataparts import PartitionConfig
from gossipsim.diagnostics import gap_term

print("final squared distance to the optimum (mean over 5 seeds, 200 rounds):")
for dropout in (0.0, 0.1, 0.2):
    finals = []
    for seed in range(5):
        cfg = RunConfig(
            sim=SimConfig(
                n=14, rounds=200, seed=seed,
                eta=EtaSchedule("decay", 0.1),
                batch_size=512,
                mobility=MobilityConfig(radius=1500.0),
                churn=ChurnConfig(dropout_p=dropout, rate=1.0),
                offline_training=False,
            ),
            partition=PartitionConfig(alpha=10.0),
            suite=SuiteSpec(reg=0.5),
        )
        suite = build_problem_suite(cfg)
        finals.append(run_simulation(cfg.sim, suite)[-1].dist_wbar_sq)
    print(f"  dropout {dropout:4.0%}: {np.mean(finals):.4f}")

print("\nanalytic staleness floor per round, eta=0.001 (late in the decay):")
for rate in (0.2, 0.5, 1.0):
    floors = [gap_term(n2, 0.001, 0.1, 5.0, rate, 14) for n2 in (0, 2, 4, 6)]
    pretty = "  ".join(f"n2={n2}: {f:.4f}" for n2, f in zip((0, 2, 4, 6), floors))
    print(f"  rate {rate:>4}: {pretty}")
print("\nthe floor grows with the absent count and shrinks with the rejoin rate,")
print("and it is not multiplied by eta, so decaying the rate does not remove it")
