"""Round orchestration: move nodes, update churn, mix models through the
gossip matrix, run local SGD, and record per-round diagnostics.

Local SGD runs every training node in lockstep: step s takes one
mini-batch gradient of all the nodes that still have a batch at s, over
the suite's pooled shards (the stacked-model update of Koloskova et al.,
ICML 2020).  The permutations are drawn node by node exactly as a
per-node loop draws them, so the models match that loop up to rounding.

A simulation is one logical thread owning its state and RNG streams, so
sweeps can run many simulations in parallel processes without sharing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .accessibility import (
    AccessibilityState,
    ChurnConfig,
    init_accessibility,
    step_accessibility,
)
from .diagnostics import (
    TraceRow,
    convergence_envelope,
    convergence_terms,
    distance_to_optimum,
    full_average,
    gap_term,
    gradient_gap,
    gradient_gap_bound,
    partial_average,
)
from .gossip import GossipMatrix, active_nodes, build_gossip_matrix, deemphasize_rejoined, gossip_average
from .mobility import MobilityConfig, MobilityState, connectivity, init_mobility, step_mobility
from .objective import (
    PooledShards,
    ProblemSuite,
    global_accuracy,
    global_loss,
    grad_bound_estimate,
    lockstep_gradient,
)

__all__ = [
    "EtaSchedule",
    "SimConfig",
    "SimState",
    "RoundResult",
    "derive_streams",
    "init_state",
    "advance_round",
    "run_simulation",
]

STREAM_NAMES = ("data", "partition", "init", "mobility", "churn", "training")


@dataclass(frozen=True)
class EtaSchedule:
    """Learning rate per round: constant eta0, or eta0 / (1 + t) decay."""

    kind: str = "constant"
    eta0: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "decay"):
            raise ValueError(f"unknown eta schedule {self.kind!r}")
        if self.eta0 <= 0:
            raise ValueError("eta must be positive")

    def __call__(self, t: int) -> float:
        if self.kind == "constant":
            return self.eta0
        return self.eta0 / (1.0 + t)


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description for one simulation run."""

    n: int = 14
    rounds: int = 50
    eta: EtaSchedule = field(default_factory=EtaSchedule)
    local_epochs: int = 2
    batch_size: int = 128
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    seed: int = 0
    offline_training: bool = True
    deemphasis: float = 1.0
    wtilde_mode: str = "literal"
    init_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.deemphasis <= 1.0:
            raise ValueError("deemphasis must lie in [0, 1]")
        if self.wtilde_mode not in ("literal", "weighted"):
            raise ValueError(f"unknown wtilde_mode {self.wtilde_mode!r}")
        if self.init_scale < 0:
            raise ValueError("init_scale must be nonnegative")


@dataclass
class SimState:
    """Mutable simulation state: one model per node, mobility and churn
    state, the round counter, and last round's participating set."""

    models: np.ndarray
    mobility: MobilityState
    access: AccessibilityState
    round: int
    participating: np.ndarray


@dataclass
class RoundResult:
    """State after a round plus the intermediates diagnostics need."""

    state: SimState
    matrix: GossipMatrix
    participating: np.ndarray
    rejoined: np.ndarray
    eta: float
    models_before: np.ndarray
    models_half: np.ndarray


def derive_streams(seed: int) -> dict:
    """Independent named RNG streams for one run, split from one seed."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(seq) for name, seq in zip(STREAM_NAMES, children)}


def init_state(cfg: SimConfig, suite: ProblemSuite, streams: dict) -> SimState:
    """Fresh state: per-node Gaussian initial models of scale
    ``cfg.init_scale`` (zero scale gives identical all-zero models),
    uniform initial placement, everyone accessible."""
    if suite.n != cfg.n:
        raise ValueError("suite size does not match cfg.n")
    models = cfg.init_scale * streams["init"].standard_normal((cfg.n, suite.dimension))
    mobility = init_mobility(cfg.n, cfg.mobility, streams["mobility"])
    return SimState(
        models=models,
        mobility=mobility,
        access=init_accessibility(cfg.n),
        round=0,
        participating=np.ones(cfg.n, dtype=bool),
    )


# the per-step gradient, under the name the benchmark's tracer wraps
local_gradient = lockstep_gradient


def _lockstep_batches(pool: PooledShards, nodes: np.ndarray, epochs: int, batch_size: int, rng):
    """Every node's mini-batches laid out as lockstep steps.

    Node i draws a permutation of its m_i samples once per epoch, nodes in
    the order given, and its epoch e, position j sample lands in step
    ``e * ceil(m_i / B) + j // B`` at slot ``j % B``.  Nodes are ranked by
    step count, most first, so the nodes with a batch at step s are ranks
    ``0 .. active[s] - 1``.  Returns ``(ranked, active, rows, counts)``:
    the nodes in rank order, and per step s its batches ``rows[s]``, an
    (active[s], width) array of pooled row indices whose padding slots
    hold row 0, and ``counts[s]``, each batch's true size.
    """
    sizes = pool.sizes[nodes]
    width = min(batch_size, int(sizes.max()))
    per_epoch = -(-sizes // batch_size)
    steps = epochs * per_epoch
    rank_order = np.argsort(-steps, kind="stable")
    rank = np.empty_like(rank_order)
    rank[rank_order] = np.arange(nodes.size)
    active = nodes.size - np.cumsum(np.bincount(steps))[:-1]
    # one block of draws per node and epoch, node-major; sample by sample,
    # its node, epoch and position j within the epoch
    block_len = np.repeat(sizes, epochs)
    block_end = np.cumsum(block_len)
    block_start = block_end - block_len
    owner, epoch = np.divmod(np.repeat(np.arange(block_len.size), block_len), epochs)
    j = np.arange(block_end[-1]) - np.repeat(block_start, block_len)
    # shuffling each block's arange in place draws what rng.permutation(m_i)
    # draws, without its per-call array set-up
    perms = j.copy()
    for a, b in zip(block_start.tolist(), block_end.tolist()):
        rng.shuffle(perms[a:b])
    step = epoch * per_epoch[owner] + j // batch_size
    batch_at = np.concatenate(([0], np.cumsum(active)))
    cell = batch_at[step] + rank[owner]
    flat = np.zeros(batch_at[-1] * width, dtype=np.intp)
    flat[cell * width + j % batch_size] = perms + pool.offsets[nodes][owner]
    counts = np.bincount(cell, minlength=batch_at[-1])
    spans = list(zip(batch_at[:-1].tolist(), batch_at[1:].tolist()))
    rows = [flat[a * width : b * width].reshape(-1, width) for a, b in spans]
    return nodes[rank_order], active.tolist(), rows, [counts[a:b] for a, b in spans]


def _lockstep_sgd(models: np.ndarray, pool: PooledShards, nodes: np.ndarray, eta: float,
                  epochs: int, batch_size: int, rng) -> None:
    """``epochs`` shuffled passes of mini-batch SGD over each listed
    node's shard, all nodes in lockstep, updating ``models[nodes]`` in
    place.  A node with no batch left at a step is not touched."""
    ranked, active, rows, counts = _lockstep_batches(pool, nodes, epochs, batch_size, rng)
    mats = models[ranked].reshape(ranked.size, pool.whole.outputs, -1)
    for k, step_rows, step_counts in zip(active, rows, counts):
        mats[:k] -= eta * local_gradient(pool, mats[:k], step_rows, step_counts)
    models[ranked] = mats.reshape(ranked.size, -1)


def advance_round(state: SimState, suite: ProblemSuite, cfg: SimConfig, streams: dict) -> RoundResult:
    """Run one full round and return the new state with intermediates.

    Order: mobility and churn advance; the mixing matrix is built from
    connectivity restricted to churn-accessible nodes (returning nodes are
    de-emphasized when configured); models are mixed; every participating
    node, and every other node when offline training is on, runs local
    SGD at this round's learning rate.
    """
    t = state.round
    eta = cfg.eta(t)
    mobility = step_mobility(state.mobility, cfg.mobility, streams["mobility"])
    access = step_accessibility(state.access, cfg.churn, t, streams["churn"])

    adj = connectivity(mobility, cfg.mobility.radius)
    matrix = build_gossip_matrix(adj, access.accessible)
    part_pre = active_nodes(matrix)
    rejoined = part_pre & ~state.participating
    if cfg.deemphasis < 1.0 and rejoined.any():
        matrix = deemphasize_rejoined(matrix, rejoined, cfg.deemphasis)
    participating = active_nodes(matrix)

    models_before = state.models.copy()
    models_half = gossip_average(models_before, matrix)

    models_next = models_half.copy()
    training = np.flatnonzero(participating | cfg.offline_training)
    if training.size:
        _lockstep_sgd(models_next, suite.pooled, training, eta, cfg.local_epochs,
                      cfg.batch_size, streams["training"])

    new_state = SimState(
        models=models_next,
        mobility=mobility,
        access=access,
        round=t + 1,
        participating=participating,
    )
    return RoundResult(
        state=new_state,
        matrix=matrix,
        participating=participating,
        rejoined=rejoined,
        eta=eta,
        models_before=models_before,
        models_half=models_half,
    )


def _round_trace(result: RoundResult, suite: ProblemSuite, cfg: SimConfig,
                 grad_bound_sq: float) -> TraceRow:
    part = result.participating
    n = cfg.n
    n1 = int(part.sum())
    n2 = n - n1
    models_after = result.state.models
    wbar_after = full_average(models_after)
    wtilde_after = partial_average(models_after, part, cfg.wtilde_mode)

    dropped = ~part
    if n2:
        mean_out = result.models_before[dropped].mean(axis=0)
        mean_out_norm_sq = float(mean_out @ mean_out)
    else:
        mean_out_norm_sq = 0.0
    div_rhs_main, div_rhs_appendix = gradient_gap_bound(
        result.models_before, part, suite.L, result.eta
    )
    alpha, beta = convergence_terms(
        n1, n2, mean_out_norm_sq, suite.gamma, result.eta, suite.L, suite.mu,
        grad_bound_sq, cfg.churn.rate, n,
    )
    # each node's model is scored on the whole network's data, then
    # averaged over nodes, mirroring a mean test metric
    mean_loss = float(np.mean(global_loss(suite, models_after)))
    if suite.kind == "softmax":
        mean_acc = float(np.mean(global_accuracy(suite, models_after)))
    else:
        mean_acc = math.nan
    return TraceRow(
        t=result.state.round - 1,
        n1=n1,
        n2=n2,
        dist_wbar_sq=distance_to_optimum(wbar_after, suite.w_star),
        dist_wtilde_sq=distance_to_optimum(wtilde_after, suite.w_star),
        div_lhs=gradient_gap(models_after, part, suite),
        div_rhs_main=div_rhs_main,
        div_rhs_appendix=div_rhs_appendix,
        alpha_t=alpha,
        beta_t=beta,
        gap_term=gap_term(n2, result.eta, suite.mu, grad_bound_sq, cfg.churn.rate, n),
        gamma=suite.gamma,
        mean_loss=mean_loss,
        mean_acc=mean_acc,
    )


def run_simulation(cfg: SimConfig, suite: ProblemSuite, observer=None):
    """Run ``cfg.rounds`` rounds and return the list of TraceRows.

    Fully deterministic for a fixed config: all randomness flows from
    named streams derived from ``cfg.seed``.  ``observer``, when given,
    is called with each RoundResult right after the round completes.
    ``thm1_bound`` is filled in after the last round from
    :func:`convergence_envelope`, started at the initial distance.
    """
    streams = derive_streams(cfg.seed)
    state = init_state(cfg, suite, streams)
    grad_bound_sq = max(
        suite.grad_bound_sq, grad_bound_estimate(suite, list(state.models))
    )
    initial_dist = distance_to_optimum(full_average(state.models), suite.w_star)
    rows = []
    for _ in range(cfg.rounds):
        result = advance_round(state, suite, cfg, streams)
        state = result.state
        rows.append(_round_trace(result, suite, cfg, grad_bound_sq))
        if observer is not None:
            observer(result)
    for row, bound in zip(rows, convergence_envelope(rows, initial_dist)):
        row.thm1_bound = bound
    return rows
