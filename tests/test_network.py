"""The edge-list network layer against the dense n-by-n references in
``oracles``: mobility bit for bit, link sets exactly, weights, active
nodes and mixed models within rounding; and one round at n = 10^4 that
must not need any n-by-n array."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.gossip import (
    GossipMatrix,
    active_nodes,
    build_gossip_matrix,
    deemphasize_rejoined,
    gossip_average,
    verify_doubly_stochastic,
)
from gossipsim.mobility import (
    Adjacency,
    MobilityConfig,
    MobilityState,
    connectivity,
    init_mobility,
    step_mobility,
)
from oracles import (
    dense_deemphasis,
    dense_links,
    dense_metropolis,
    mix_in_row_order,
    step_mobility_loop,
)

SETTINGS = settings(max_examples=60)


@st.composite
def waypoint_runs(draw, pause_zero: bool):
    """(config, start state, seed, steps) in a small area, so arrivals and
    pause expiries happen often.  Some nodes start on their waypoint, and
    some exactly one step's travel away from it."""
    width, height = draw(st.floats(5.0, 300.0)), draw(st.floats(5.0, 300.0))
    speed_min = draw(st.floats(0.5, 10.0))
    cfg = MobilityConfig(
        area_width=width,
        area_height=height,
        speed_min=speed_min,
        speed_max=draw(st.floats(speed_min, 12.0)),
        pause=0.0 if pause_zero else draw(st.floats(0.1, 4.0)),
    )
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = init_mobility(n, cfg, rng)
    kind = rng.integers(0, 3, size=n)
    state.waypoints[kind == 1] = state.positions[kind == 1]
    state.pause_remaining[:] = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 4.0, n))
    exact = kind == 2
    state.positions[exact, 0] = 0.0
    state.waypoints[exact, 0] = state.speeds[exact]
    state.waypoints[exact, 1] = state.positions[exact, 1]
    state.pause_remaining[exact] = 0.0
    return cfg, state, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 60))


def _fields(s: MobilityState):
    return s.positions, s.waypoints, s.speeds, s.pause_remaining


@pytest.mark.parametrize("pause_zero", [False, True])
@SETTINGS
@given(data=st.data())
def test_property_vectorised_mobility_matches_the_loop_bit_for_bit(pause_zero, data):
    cfg, state, seed, steps = data.draw(waypoint_runs(pause_zero))
    fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast, loop = state, state
    for _ in range(steps):
        fast = step_mobility(fast, cfg, fast_rng)
        loop = step_mobility_loop(loop, cfg, loop_rng)
        for a, b in zip(_fields(fast), _fields(loop)):
            assert np.array_equal(a, b)
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


@st.composite
def placements(draw):
    """(positions, radius): uniform points, or lattice points with an
    integer radius so that some pairs sit exactly on the boundary."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        side = draw(st.integers(1, 12))
        return rng.integers(0, side + 1, size=(n, 2)).astype(float), float(draw(st.integers(1, 5)))
    side = draw(st.floats(1.0, 2000.0))
    return rng.uniform(0.0, side, size=(n, 2)), draw(st.floats(0.01, 2000.0))


def _state(positions: np.ndarray) -> MobilityState:
    n = len(positions)
    return MobilityState(positions, positions.copy(), np.ones(n), np.zeros(n))


@SETTINGS
@given(placements())
def test_property_link_set_equals_the_dense_disk_graph(placement):
    positions, radius = placement
    adj = connectivity(_state(positions), radius)
    assert np.all(adj.pairs[:, 0] < adj.pairs[:, 1])
    assert len(np.unique(adj.pairs, axis=0)) == len(adj.pairs)
    assert np.array_equal(adj.edges.toarray(), dense_links(positions, radius))


def _check_links(state: MobilityState, radius: float) -> None:
    n = state.n
    adj = connectivity(state, radius)
    keys = adj.pairs[:, 0] * n + adj.pairs[:, 1]
    assert np.all(adj.pairs[:, 0] < adj.pairs[:, 1]) and np.all(np.diff(keys) > 0)
    assert np.array_equal(adj.edges.toarray(), dense_links(state.positions, radius))
    fresh = connectivity(dataclasses.replace(state, near=None), radius)
    assert np.array_equal(adj.pairs, fresh.pairs)


@SETTINGS
@given(data=st.data())
def test_property_cached_links_equal_the_dense_disk_graph(data):
    """``connectivity`` carried through ``step_mobility``'s states, so its
    neighbour list is reused while it holds.  The radius may change
    between steps, and after a step's call a node may jump in place and
    the same state be asked again: the list's anchors must notice.  The
    links are the disk graph's, sorted by (i, j), and equal a call with
    no cached list."""
    cfg, state, seed, steps = data.draw(waypoint_runs(pause_zero=False))
    radii = data.draw(st.lists(st.floats(0.5, 400.0), min_size=1, max_size=2))
    rng = np.random.default_rng(seed)
    for _ in range(min(steps, 30)):
        state = step_mobility(state, cfg, rng)
        radius = data.draw(st.sampled_from(radii))
        _check_links(state, radius)
        if data.draw(st.booleans()):
            state.positions[data.draw(st.integers(0, state.n - 1))] = rng.uniform(
                0.0, cfg.area_width, 2)
            _check_links(state, radius)


@st.composite
def mixing_rounds(draw):
    """(positions, radius, accessible mask, rejoining mask, factor, models)."""
    positions, radius = draw(placements())
    n = len(positions)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rejoined = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    factor = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = rng.normal(scale=10.0, size=(n, draw(st.integers(1, 4))))
    return positions, radius, mask, rejoined, factor, models


@SETTINGS
@given(mixing_rounds())
def test_property_matrices_and_mixing_match_the_dense_reference(net):
    positions, radius, mask, rejoined, factor, models = net
    adj = connectivity(_state(positions), radius)
    ref = dense_metropolis(dense_links(positions, radius), mask)
    G = build_gossip_matrix(adj, mask)
    scaled = deemphasize_rejoined(G, rejoined, factor)
    ref_scaled = dense_deemphasis(ref, rejoined, factor)
    scale = max(1.0, float(np.abs(models).max()))
    for matrix, dense in ((G, ref), (scaled, ref_scaled)):
        assert np.array_equal(active_nodes(matrix), dense.diagonal() < 1.0 - 1e-12)
        assert np.abs(matrix.weights.toarray() - dense).max() <= 1e-12
        mixed = gossip_average(models, matrix)
        assert np.abs(mixed - dense @ models).max() <= 1e-12 * scale


@st.composite
def shuffled_matrices(draw):
    """(built matrix, its de-emphasised copy, models): a random link set on
    1-12 nodes listed in shuffled order, and 1-6 model coordinates whose
    magnitudes span several decades."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < draw(st.floats(0.0, 1.0))
    pairs = rng.permutation(np.column_stack([i[keep], j[keep]]))
    G = build_gossip_matrix(Adjacency(n, pairs), rng.random(n) < 0.8)
    scaled = deemphasize_rejoined(G, rng.random(n) < 0.4, draw(st.floats(0.0, 1.0)))
    models = rng.normal(size=(n, draw(st.integers(1, 6)))) * 10.0 ** rng.integers(-3, 4, (n, 1))
    return G, scaled, models


@SETTINGS
@given(shuffled_matrices())
def test_property_mixing_sums_each_row_in_link_order(drawn):
    G, scaled, models = drawn
    for matrix in (G, scaled):
        assert np.array_equal(gossip_average(models, matrix), mix_in_row_order(models, matrix))


@SETTINGS
@given(shuffled_matrices())
def test_property_verification_agrees_across_input_forms(drawn):
    G, scaled, _ = drawn
    for matrix in (G, scaled):
        forms = (matrix, matrix.weights, matrix.weights.toarray())
        assert [verify_doubly_stochastic(f) for f in forms] == [True] * 3
        if matrix.w.size:
            w = matrix.w.copy()
            w[len(w) // 2] += 1e-6
            bent = GossipMatrix(matrix.n, matrix.i, matrix.j, w, matrix.diag)
            forms = (bent, bent.weights, bent.weights.toarray())
            assert [verify_doubly_stochastic(f) for f in forms] == [False] * 3


def test_network_round_at_ten_thousand_nodes_stays_sparse():
    # net-n2000's density (2000 nodes in 5 km x 5 km) at n = 10^4; a dense
    # boolean n-by-n alone would take 100 MB.  Two rounds: the first builds
    # connectivity's neighbour list, the second reads it
    n, side = 10_000, 5000.0 * math.sqrt(5.0)
    cfg = MobilityConfig(area_width=side, area_height=side, radius=250.0)
    rng = np.random.default_rng(0)
    state = init_mobility(n, cfg, rng)
    accessible = rng.random(n) < 0.9
    rejoining = accessible & (rng.random(n) < 0.05)
    models = rng.normal(size=(n, 10))

    tracemalloc.start()
    try:
        for _ in range(2):
            state = step_mobility(state, cfg, rng)
            near = state.near
            adj = connectivity(state, cfg.radius)
            matrix = deemphasize_rejoined(build_gossip_matrix(adj, accessible), rejoining, 0.5)
            mixed = gossip_average(models, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert near is not None and state.near is near  # the second round read the list
    assert len(adj.pairs) > n  # about 16 neighbours per node
    assert verify_doubly_stochastic(matrix, 1e-12)
    assert np.allclose(mixed.mean(axis=0), models.mean(axis=0), rtol=0.0, atol=1e-12)
