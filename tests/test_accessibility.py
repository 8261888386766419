from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gossipsim.accessibility import (
    NEVER,
    ChurnConfig,
    absence_duration,
    init_accessibility,
    rounds_since_accessible,
    step_accessibility,
)
from oracles import step_accessibility_dict


def test_config_validation():
    with pytest.raises(ValueError):
        ChurnConfig(dropout_p=-0.1)
    with pytest.raises(ValueError):
        ChurnConfig(dropout_p=1.5)
    with pytest.raises(ValueError):
        ChurnConfig(rate=0.0)


def test_zero_dropout_keeps_everyone_accessible():
    cfg = ChurnConfig(dropout_p=0.0, rate=1.0)
    st = init_accessibility(10)
    rng = np.random.default_rng(0)
    for t in range(200):
        st = step_accessibility(st, cfg, t, rng)
        assert st.accessible.all()
        assert (st.rejoin_at == -1).all()


def test_duration_mean_matches_rate():
    rng = np.random.default_rng(2024)
    draws = np.array([absence_duration(0.5, rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 2.0) < 3 * se


def test_duration_distribution_ks_against_exponential():
    rng = np.random.default_rng(7)
    draws = np.array([absence_duration(0.5, rng) for _ in range(100_000)])
    result = stats.kstest(draws, "expon", args=(0.0, 2.0))
    assert result.pvalue > 0.01


def test_dropped_node_returns_after_scheduled_round():
    cfg = ChurnConfig(dropout_p=1.0, rate=10.0)
    st = init_accessibility(1)
    rng = np.random.default_rng(1)
    st = step_accessibility(st, cfg, 0, rng)
    assert not st.accessible[0]
    rejoin = st.rejoin_at[0]
    assert rejoin >= 1
    for t in range(1, rejoin):
        st = step_accessibility(st, ChurnConfig(dropout_p=0.0), t, rng)
        assert not st.accessible[0]
    st = step_accessibility(st, ChurnConfig(dropout_p=0.0), rejoin, rng)
    assert st.accessible[0]


def test_just_rejoined_node_not_dropped_same_round():
    # with dropout_p=1 a node rejoining at round t stays accessible at t
    # and is only eligible again at t+1
    cfg = ChurnConfig(dropout_p=1.0, rate=100.0)  # durations ~ceil to 1 round
    st = init_accessibility(1)
    rng = np.random.default_rng(3)
    st = step_accessibility(st, cfg, 0, rng)
    assert not st.accessible[0]
    st = step_accessibility(st, cfg, 1, rng)
    assert st.accessible[0]
    st = step_accessibility(st, cfg, 2, rng)
    assert not st.accessible[0]


def test_rounds_since_accessible_zero_when_accessible():
    st = init_accessibility(3)
    rng = np.random.default_rng(0)
    st = step_accessibility(st, ChurnConfig(dropout_p=0.0), 4, rng)
    assert rounds_since_accessible(st, 4, 1) == 0


def test_rounds_since_accessible_counts_gap():
    st = init_accessibility(2)
    st.last_accessible[0] = 5
    assert rounds_since_accessible(st, 8, 0) == 3


def test_rounds_since_accessible_resets_on_rejoin():
    st = init_accessibility(1)
    rng = np.random.default_rng(0)
    st = step_accessibility(st, ChurnConfig(dropout_p=1.0, rate=0.5), 0, rng)
    rejoin = st.rejoin_at[0]
    for t in range(1, rejoin + 1):
        st = step_accessibility(st, ChurnConfig(dropout_p=0.0), t, rng)
    assert st.accessible[0]
    assert rounds_since_accessible(st, rejoin, 0) == 0


def test_rounds_since_accessible_increases_by_one_per_absent_round():
    st = init_accessibility(1)
    rng = np.random.default_rng(5)
    st = step_accessibility(st, ChurnConfig(dropout_p=1.0, rate=0.2), 0, rng)
    rejoin = st.rejoin_at[0]
    previous = rounds_since_accessible(st, 0, 0)
    for t in range(1, rejoin):
        st = step_accessibility(st, ChurnConfig(dropout_p=0.0), t, rng)
        current = rounds_since_accessible(st, t, 0)
        assert current == previous + 1
        assert current >= 0
        previous = current


def test_unknown_node_rejected():
    st = init_accessibility(3)
    with pytest.raises(ValueError):
        rounds_since_accessible(st, 0, 3)


def test_mean_inaccessible_count_near_reported_setting():
    # n=14, p=10%, rate=1: churn alone keeps roughly 1.5-2 nodes out per round
    cfg = ChurnConfig(dropout_p=0.1, rate=1.0)
    total = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        st = init_accessibility(14)
        for t in range(50):
            st = step_accessibility(st, cfg, t, rng)
            total += 14 - st.accessible.sum()
    mean_out = total / (20 * 50)
    assert 1.0 < mean_out < 3.0


def test_invariant_rejoin_map_matches_flags():
    cfg = ChurnConfig(dropout_p=0.3, rate=0.7)
    rng = np.random.default_rng(21)
    st = init_accessibility(10)
    for t in range(100):
        st = step_accessibility(st, cfg, t, rng)
        dropped = ~st.accessible
        assert (st.rejoin_at[dropped] > t).all()
        assert (st.rejoin_at[~dropped] == -1).all()
        assert np.all(st.last_accessible <= t)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 30),
    dropout_p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    # the tiny rates draw absences near and past int64, and 5e-324 an infinite one
    rate=st.one_of(st.floats(0.05, 10.0), st.sampled_from([1e-18, 1e-19, 1e-300, 5e-324])),
    rounds=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_array_state_matches_dict_reference(n, dropout_p, rate, rounds, seed):
    cfg = ChurnConfig(dropout_p=dropout_p, rate=rate)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state = init_accessibility(n)
    accessible, rejoin_at, last = np.ones(n, dtype=bool), {}, np.full(n, -1, dtype=np.int64)
    for t in range(rounds):
        state = step_accessibility(state, cfg, t, rng)
        accessible, rejoin_at, last = step_accessibility_dict(
            accessible, rejoin_at, last, cfg, t, ref_rng
        )
        assert np.array_equal(state.accessible, accessible)
        scheduled = np.flatnonzero(state.rejoin_at >= 0)
        assert {int(i): int(state.rejoin_at[i]) for i in scheduled} == {
            i: min(r, NEVER) for i, r in rejoin_at.items()}
        assert np.array_equal(state.last_accessible, last)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("rate", [1e-300, 5e-324])
def test_absence_past_int64_never_rejoins(rate):
    cfg = ChurnConfig(dropout_p=1.0, rate=rate)
    state = step_accessibility(init_accessibility(3), cfg, 0, np.random.default_rng(0))
    assert (state.rejoin_at == NEVER).all()
    for t in range(1, 5):
        state = step_accessibility(state, cfg, t, np.random.default_rng(t))
        assert not state.accessible.any()
        assert np.array_equal(state.last_accessible, [-1, -1, -1])
