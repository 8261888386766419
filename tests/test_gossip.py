from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.diagnostics import partial_average
from gossipsim.gossip import (
    GossipMatrix,
    active_nodes,
    build_gossip_matrix,
    deemphasize_rejoined,
    gossip_average,
    verify_doubly_stochastic,
)
from gossipsim.mobility import Adjacency


def _adj(matrix) -> Adjacency:
    """The links of a symmetric boolean matrix (its diagonal is ignored)."""
    matrix = np.asarray(matrix, dtype=bool)
    return Adjacency(len(matrix), np.argwhere(np.triu(matrix, 1)))


def _matrix(weights) -> GossipMatrix:
    """A GossipMatrix holding a dense symmetric weight matrix."""
    weights = np.asarray(weights, dtype=float)
    i, j = np.nonzero(np.triu(weights, 1))
    return GossipMatrix(len(weights), i, j, weights[i, j], weights.diagonal().copy())


def _dense(G: GossipMatrix) -> np.ndarray:
    return G.weights.toarray()


def _random_adjacency(rng, n):
    edges = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    return _adj(edges | edges.T)


def test_two_connected_nodes_average_evenly():
    G = build_gossip_matrix(_adj([[1, 1], [1, 1]]), np.ones(2, dtype=bool))
    assert np.allclose(_dense(G), [[0.5, 0.5], [0.5, 0.5]])


def test_triangle_gives_uniform_thirds():
    G = build_gossip_matrix(_adj(np.ones((3, 3))), np.ones(3, dtype=bool))
    assert np.allclose(_dense(G), np.full((3, 3), 1.0 / 3.0))


def test_inaccessible_node_gets_identity_row():
    rng = np.random.default_rng(0)
    for _ in range(50):
        adj = _random_adjacency(rng, 6)
        accessible = np.ones(6, dtype=bool)
        accessible[2] = False
        G = build_gossip_matrix(adj, accessible)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.array_equal(_dense(G)[2], expected)
        assert np.array_equal(_dense(G)[:, 2], expected)


def test_asymmetric_adjacency_rejected():
    # a link is one pair i < j and stands for both directions; a pair
    # listed the other way round, a self-link or an unknown node is refused
    for pairs in ([[1, 0]], [[1, 1]], [[0, 3]], [[-1, 2]]):
        with pytest.raises(ValueError):
            build_gossip_matrix(Adjacency(3, pairs), np.ones(3, dtype=bool))


def test_verify_identity_matrix():
    assert verify_doubly_stochastic(_matrix(np.eye(4)), 1e-9)


def test_verify_rejects_bad_row_sums():
    assert not verify_doubly_stochastic(_matrix([[0.6, 0.5], [0.5, 0.6]]), 1e-9)


def test_built_matrices_pass_verification_on_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(1, 15))
        adj = _random_adjacency(rng, n)
        accessible = rng.random(n) < 0.8
        G = build_gossip_matrix(adj, accessible)
        assert verify_doubly_stochastic(G, 1e-9)


def test_zero_pattern_respects_graph_and_accessibility():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 15))
        adj = _random_adjacency(rng, n)
        accessible = rng.random(n) < 0.7
        G = build_gossip_matrix(adj, accessible)
        off = ~np.eye(n, dtype=bool)
        positive = (_dense(G) > 0) & off
        allowed = adj.edges.toarray() & np.outer(accessible, accessible) & off
        assert not np.any(positive & ~allowed)


def test_identity_matrix_keeps_models():
    models = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gossip_average(models, _matrix(np.eye(2)))
    assert np.array_equal(out, models)


def test_even_mixing_of_two_models():
    G = _matrix([[0.5, 0.5], [0.5, 0.5]])
    models = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
    out = gossip_average(models, G)
    assert np.allclose(out, np.ones((2, 3)))


def test_dimension_mismatch_rejected():
    G = _matrix(np.eye(2))
    with pytest.raises(ValueError):
        gossip_average([np.zeros(3), np.zeros(2)], G)
    with pytest.raises(ValueError):
        gossip_average(np.zeros((3, 2)), G)


def test_average_preserved_under_random_doubly_stochastic_mixing():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        adj = _random_adjacency(rng, n)
        G = build_gossip_matrix(adj, rng.random(n) < 0.8)
        models = rng.normal(size=(n, 4))
        out = gossip_average(models, G)
        assert np.allclose(out.mean(axis=0), models.mean(axis=0), atol=1e-9)


def test_mixing_never_increases_variance():
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        adj = _random_adjacency(rng, n)
        G = build_gossip_matrix(adj, np.ones(n, dtype=bool))
        models = rng.normal(size=(n, 3))
        out = gossip_average(models, G)
        var_in = np.sum((models - models.mean(axis=0)) ** 2)
        var_out = np.sum((out - out.mean(axis=0)) ** 2)
        assert var_out <= var_in + 1e-9


def test_active_nodes_reflects_diagonal():
    adj = _adj([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    G = build_gossip_matrix(adj, np.ones(3, dtype=bool))
    # node 2 is in range of nobody, so it cannot exchange
    assert list(active_nodes(G)) == [True, True, False]


def test_deemphasis_keeps_double_stochasticity_and_scales_links():
    rng = np.random.default_rng(31)
    adj = _random_adjacency(rng, 8)
    G = build_gossip_matrix(adj, np.ones(8, dtype=bool))
    rejoined = np.isin(np.arange(8), [2, 5])
    scaled = deemphasize_rejoined(G, rejoined, 0.25)
    assert verify_doubly_stochastic(scaled, 1e-9)
    for j in range(8):
        if j not in (2, 5):
            assert _dense(scaled)[2, j] == pytest.approx(0.25 * _dense(G)[2, j])
    # factor 1 is a no-op
    same = deemphasize_rejoined(G, rejoined, 1.0)
    assert np.array_equal(_dense(same), _dense(G))


def test_deemphasis_zero_isolates_the_rejoined_node():
    adj = _adj(np.ones((4, 4)))
    G = build_gossip_matrix(adj, np.ones(4, dtype=bool))
    scaled = deemphasize_rejoined(G, np.arange(4) == 1, 0.0)
    assert _dense(scaled)[1, 1] == pytest.approx(1.0)
    assert verify_doubly_stochastic(scaled, 1e-9)
    assert not active_nodes(scaled)[1]


@pytest.mark.parametrize("bad", [-1, 4, 1.5])
def test_out_of_range_node_ids_are_rejected(bad):
    # a raw index would wrap -1 around to node n-1 instead of failing, and
    # a cast to int would truncate 1.5 to node 1
    with pytest.raises(ValueError, match="node ids"):
        partial_average(np.arange(8.0).reshape(4, 2), np.array([bad]))
    with pytest.raises(ValueError, match="node ids"):
        build_gossip_matrix(_adj(np.ones((4, 4))), {bad, 0})


SETTINGS = settings(max_examples=60)


@st.composite
def networks(draw):
    """(adjacency, accessible mask, rejoining mask, factor, models) on 1-10
    nodes: a random symmetric graph and a random split."""
    n = draw(st.integers(1, 10))
    cells = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    edges = cells.reshape(n, n)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rejoined = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    factor = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = rng.normal(scale=10.0, size=(n, draw(st.integers(1, 4))))
    return _adj(edges | edges.T), mask, rejoined, factor, models


@SETTINGS
@given(networks())
def test_property_mixing_matrix_is_doubly_stochastic(net):
    adj, mask, rejoined, factor, _ = net
    G = deemphasize_rejoined(build_gossip_matrix(adj, mask), rejoined, factor)
    assert verify_doubly_stochastic(G, 1e-12)


@SETTINGS
@given(networks())
def test_property_mixing_preserves_the_mean_model(net):
    adj, mask, rejoined, factor, models = net
    G = deemphasize_rejoined(build_gossip_matrix(adj, mask), rejoined, factor)
    mixed = gossip_average(models, G)
    assert np.allclose(mixed.mean(axis=0), models.mean(axis=0), rtol=0.0, atol=1e-12)

