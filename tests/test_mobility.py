from __future__ import annotations

import numpy as np
import pytest

from gossipsim.mobility import (
    MobilityConfig,
    MobilityState,
    connectivity,
    init_mobility,
    step_mobility,
    write_trajectory_csv,
)


def test_init_places_fourteen_nodes_inside_km_square():
    cfg = MobilityConfig(area_width=1000, area_height=1000)
    st = init_mobility(14, cfg, np.random.default_rng(0))
    assert st.positions.shape == (14, 2)
    assert np.all(st.positions >= 0) and np.all(st.positions[:, 0] <= 1000)
    assert np.all(st.positions[:, 1] <= 1000)
    assert np.all((st.speeds >= cfg.speed_min) & (st.speeds <= cfg.speed_max))


def test_init_single_node_is_valid():
    st = init_mobility(1, MobilityConfig(), np.random.default_rng(3))
    assert st.positions.shape == (1, 2)
    assert st.pause_remaining[0] == 0.0


def test_init_same_seed_same_positions():
    cfg = MobilityConfig()
    a = init_mobility(5, cfg, np.random.default_rng(42))
    b = init_mobility(5, cfg, np.random.default_rng(42))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.waypoints, b.waypoints)
    assert np.array_equal(a.speeds, b.speeds)


@pytest.mark.parametrize("bad", [
    dict(area_width=0.0),
    dict(area_height=-10.0),
    dict(speed_min=0.0),
    dict(speed_min=8.0, speed_max=7.0),
    dict(radius=0.0),
    dict(radius=float("nan")),
    dict(pause=-1.0),
])
def test_invalid_config_rejected(bad):
    with pytest.raises(ValueError):
        MobilityConfig(**bad)


def test_straight_line_step():
    cfg = MobilityConfig(speed_min=5, speed_max=5)
    st = MobilityState(
        positions=np.array([[0.0, 0.0]]),
        waypoints=np.array([[100.0, 0.0]]),
        speeds=np.array([5.0]),
        pause_remaining=np.array([0.0]),
    )
    out = step_mobility(st, cfg, np.random.default_rng(0))
    assert np.allclose(out.positions[0], [5.0, 0.0])


def test_pause_consumed_then_new_waypoint():
    cfg = MobilityConfig(pause=1.0)
    st = MobilityState(
        positions=np.array([[10.0, 10.0]]),
        waypoints=np.array([[10.0, 10.0]]),
        speeds=np.array([6.0]),
        pause_remaining=np.array([1.0]),
    )
    out = step_mobility(st, cfg, np.random.default_rng(7))
    assert out.pause_remaining[0] == 0.0
    assert not np.array_equal(out.waypoints[0], st.waypoints[0])
    assert np.array_equal(out.positions[0], st.positions[0])


def test_arrival_clamps_at_waypoint_and_starts_pause():
    cfg = MobilityConfig(pause=1.0)
    st = MobilityState(
        positions=np.array([[0.0, 0.0]]),
        waypoints=np.array([[3.0, 0.0]]),
        speeds=np.array([6.0]),
        pause_remaining=np.array([0.0]),
    )
    out = step_mobility(st, cfg, np.random.default_rng(0))
    assert np.array_equal(out.positions[0], [3.0, 0.0])
    assert out.pause_remaining[0] == 1.0


def test_speeds_stay_in_interval_over_many_steps():
    cfg = MobilityConfig(area_width=200, area_height=200, speed_min=5, speed_max=7)
    rng = np.random.default_rng(11)
    st = init_mobility(4, cfg, rng)
    for _ in range(10_000):
        st = step_mobility(st, cfg, rng)
        assert np.all((st.speeds >= 5.0) & (st.speeds <= 7.0))


def test_positions_stay_in_bounds_and_step_bounded():
    for seed in range(5):
        cfg = MobilityConfig(area_width=300, area_height=150, pause=0.0)
        rng = np.random.default_rng(seed)
        st = init_mobility(6, cfg, rng)
        for _ in range(500):
            prev = st.positions.copy()
            st = step_mobility(st, cfg, rng)
            assert np.all(st.positions[:, 0] >= 0) and np.all(st.positions[:, 0] <= 300)
            assert np.all(st.positions[:, 1] >= 0) and np.all(st.positions[:, 1] <= 150)
            moved = np.linalg.norm(st.positions - prev, axis=1)
            assert np.all(moved <= cfg.speed_max + 1e-9)


def test_trajectory_is_reproducible_for_fixed_seed():
    cfg = MobilityConfig()

    def roll(seed):
        rng = np.random.default_rng(seed)
        st = init_mobility(8, cfg, rng)
        hist = []
        for _ in range(100):
            st = step_mobility(st, cfg, rng)
            hist.append(st.positions.copy())
        return np.array(hist)

    assert np.array_equal(roll(123), roll(123))


def test_connectivity_within_radius():
    st = MobilityState(
        positions=np.array([[0.0, 0.0], [0.0, 200.0]]),
        waypoints=np.zeros((2, 2)),
        speeds=np.ones(2),
        pause_remaining=np.zeros(2),
    )
    adj = connectivity(st, 250.0)
    assert adj.edges[0, 1] and adj.edges[1, 0]


def test_connectivity_beyond_radius():
    st = MobilityState(
        positions=np.array([[0.0, 0.0], [0.0, 300.0]]),
        waypoints=np.zeros((2, 2)),
        speeds=np.ones(2),
        pause_remaining=np.zeros(2),
    )
    adj = connectivity(st, 250.0)
    assert not adj.edges[0, 1]
    assert adj.edges[0, 0] and adj.edges[1, 1]


def test_connectivity_symmetric_and_reflexive_on_random_states():
    rng = np.random.default_rng(5)
    cfg = MobilityConfig()
    for _ in range(1000):
        st = init_mobility(6, cfg, rng)
        adj = connectivity(st, 250.0)
        edges = adj.edges.toarray()
        assert np.array_equal(edges, edges.T)
        assert edges.diagonal().all()


def test_trajectory_csv_format(tmp_path):
    snapshots = [(0, np.array([[1.0, 2.0]])), (1, np.array([[1.5, 2.25]]))]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, snapshots)
    text = path.read_text()
    assert text.splitlines()[0] == "t,node_id,x,y"
    assert text.splitlines()[1] == "0,0,1.000000,2.000000"
    assert text.splitlines()[2] == "1,0,1.500000,2.250000"
