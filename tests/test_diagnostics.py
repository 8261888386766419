from __future__ import annotations

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.diagnostics import (
    TRACE_COLUMNS,
    TraceRow,
    convergence_envelope,
    convergence_terms,
    distance_to_optimum,
    full_average,
    gap_term,
    gradient_gap,
    gradient_gap_bound,
    partial_average,
    read_trace_csv,
    write_trace_csv,
)
from gossipsim.config import build_problem_suite, run_config_from_dict
from gossipsim.gossip import build_gossip_matrix, deemphasize_rejoined
from gossipsim.mobility import Adjacency
from gossipsim.objective import NodeProblem, build_suite, local_gradient
from oracles import gap_bound_loop, gap_monotonicity_check


def _two_node_suite():
    a = NodeProblem(np.array([[1.0, 0.0]]), np.array([0.0]), reg=0.1)
    b = NodeProblem(np.array([[1.0, 1.0]]), np.array([2.0]), reg=0.1)
    return build_suite(
        np.vstack([a.features, b.features]),
        np.array([0.0, 2.0]),
        [np.array([0]), np.array([1])],
        kind="ridge",
        reg=0.1,
    )


def test_full_average_of_identical_models():
    models = np.tile([1.0, -2.0], (5, 1))
    assert np.array_equal(full_average(models), [1.0, -2.0])


def test_full_average_of_basis_vectors():
    assert np.allclose(full_average(np.eye(2)), [0.5, 0.5])


def test_full_average_is_linear():
    rng = np.random.default_rng(0)
    models = rng.normal(size=(6, 3))
    assert np.allclose(full_average(3.5 * models), 3.5 * full_average(models))


def test_partial_average_all_accessible_equals_full():
    rng = np.random.default_rng(1)
    models = rng.normal(size=(7, 4))
    out = partial_average(models, np.ones(7, dtype=bool))
    assert np.allclose(out, full_average(models))


def test_partial_average_literal_adds_group_means():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 3.0])
    out = partial_average(np.vstack([u, v]), np.array([True, False]))
    assert np.allclose(out, u + v)


def test_partial_average_rejects_empty_input():
    with pytest.raises(ValueError):
        partial_average(np.zeros((0, 3)), np.zeros(0, dtype=bool))


def test_accessibility_argument_forms_agree():
    rng = np.random.default_rng(6)
    models = rng.normal(size=(4, 3))
    as_mask = partial_average(models, np.array([True, False, True, False]))
    as_bool_list = partial_average(models, [True, False, True, False])
    assert np.array_equal(as_mask, as_bool_list)


def _mask_takers(suite):
    """Every function that takes a round's accessible or rejoining split,
    applied on two linked nodes to a candidate split."""
    models = np.array([[1.0, 0.0], [0.0, 1.0]])
    adj = Adjacency(2, np.array([[0, 1]]))
    matrix = build_gossip_matrix(adj, np.ones(2, dtype=bool))
    return {
        "build_gossip_matrix": lambda split: build_gossip_matrix(adj, split),
        "deemphasize_rejoined": lambda split: deemphasize_rejoined(matrix, split, 0.5),
        "partial_average": lambda split: partial_average(models, split),
        "gradient_gap": lambda split: gradient_gap(models, split, suite),
        "gradient_gap_bound": lambda split: gradient_gap_bound(models, split, 1.0, 0.1),
    }


@pytest.mark.parametrize("split", [[0], {0}, np.array([0, 1]), np.ones(3, dtype=bool)],
                         ids=["id list", "id set", "int array", "wrong length"])
@pytest.mark.parametrize("taker", ["build_gossip_matrix", "deemphasize_rejoined",
                                   "partial_average", "gradient_gap", "gradient_gap_bound"])
def test_only_a_boolean_mask_of_length_n_is_a_split(taker, split):
    take = _mask_takers(_two_node_suite())[taker]
    assert take(np.array([True, False])) is not None
    with pytest.raises(ValueError, match="boolean mask of shape \\(2,\\)"):
        take(split)


def test_gradient_gap_zero_when_everyone_participates():
    suite = _two_node_suite()
    rng = np.random.default_rng(3)
    models = rng.normal(size=(2, 2))
    assert gradient_gap(models, np.array([True, True]), suite) <= 1e-12


def test_gradient_gap_zero_for_identical_models():
    suite = _two_node_suite()
    w = np.array([0.3, -0.7])
    models = np.vstack([w, w])
    assert gradient_gap(models, np.array([True, False]), suite) <= 1e-12


def test_gradient_gap_matches_hand_computation():
    suite = _two_node_suite()
    models = np.array([[1.0, 0.0], [0.0, 1.0]])
    mask = np.array([True, False])
    wbar = models.mean(axis=0)
    # split side: node 0's gradient at its own group mean (itself),
    # node 1's gradient at its own model, each weighted 1/2
    g_split = 0.5 * (
        local_gradient(suite.problems[0], models[0])
        + local_gradient(suite.problems[1], models[1])
    )
    g_full = 0.5 * (
        local_gradient(suite.problems[0], wbar) + local_gradient(suite.problems[1], wbar)
    )
    expected = float(np.linalg.norm(g_split - g_full))
    assert gradient_gap(models, mask, suite) == pytest.approx(expected, rel=1e-12)


def test_gradient_gap_bound_zero_for_identical_models():
    models = np.tile([0.5, 0.5], (4, 1))
    mask = np.array([True, True, True, False])
    main, appendix = gradient_gap_bound(models, mask, 1.0, 0.1)
    assert main == 0.0
    assert appendix == 0.0


def test_gradient_gap_bound_constant_ratio_exact():
    rng = np.random.default_rng(4)
    models = rng.normal(size=(5, 3))
    mask = rng.random(5) < 0.6
    smooth, eta = 1.7, 0.3
    main, appendix = gradient_gap_bound(models, mask, smooth, eta)
    assert appendix / main == pytest.approx((1 + smooth * eta**2) / (smooth * eta**2))


def test_gradient_gap_bound_bracket_hand_value():
    # the models average to zero; one accessible node 0.5 away from it,
    # two dropped nodes 0.65 away each: bracket = 1 * 0.5 + 0.65 + 0.65
    models = np.array([[0.5, 0.0], [-0.25, 0.6], [-0.25, -0.6]])
    mask = np.array([True, False, False])
    smooth, eta = 2.0, 0.1
    main, appendix = gradient_gap_bound(models, mask, smooth, eta)
    assert main == pytest.approx((smooth * eta**2 / 3) * 1.8)
    assert appendix == pytest.approx(((1 + smooth * eta**2) / 3) * 1.8)


@settings(max_examples=60)
@given(n=st.integers(1, 12), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       smooth=st.floats(0.01, 100.0), eta=st.floats(0.0, 1.0))
def test_property_gradient_gap_bound_matches_node_loop(n, d, seed, smooth, eta):
    rng = np.random.default_rng(seed)
    models = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, d))
    mask = rng.random(n) < rng.random()
    got = gradient_gap_bound(models, mask, smooth, eta)
    want = gap_bound_loop(models, mask, smooth, eta)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@cache
def _smoothness_suite(kind, curvature, n):
    return build_problem_suite(run_config_from_dict({
        "n": n, "partition": {"alpha": 1.0},
        "suite": {"kind": kind, "classes": 3, "dim": 3, "total": 60,
                  "target_curvature": curvature},
    }))


@settings(max_examples=120)
@given(kind=st.sampled_from(["ridge", "softmax"]), curvature=st.sampled_from([0.9, None]),
       n=st.sampled_from([3, 7]), seed=st.integers(0, 2**32 - 1))
def test_property_gradient_gap_within_smoothness_bound(kind, curvature, n, seed):
    # L-smoothness of every node gives ||grad f_i(a) - grad f_i(b)|| <= L ||a - b||,
    # so the gap is at most (L / n) * bracket: the main bound at eta = 1.
    suite = _smoothness_suite(kind, curvature, n)
    rng = np.random.default_rng(seed)
    models = rng.normal(scale=rng.uniform(0.01, 10.0), size=(n, suite.dimension))
    mask = rng.random(n) < rng.random()
    lipschitz, _ = gap_bound_loop(models, mask, suite.L, 1.0)
    assert gradient_gap(models, mask, suite) <= lipschitz * (1 + 1e-9) + 1e-12


def test_convergence_terms_alpha_identity():
    alpha, _ = convergence_terms(3, 1, 0.0, 0.0, eta=0.5, smoothness=1.0,
                                 strong_convexity=1.0, grad_bound_sq=1.0, rate=1.0, n=4)
    assert alpha == pytest.approx(1.0)


def test_convergence_terms_beta_vanishes_without_dropouts_and_rate():
    _, beta = convergence_terms(4, 0, 0.0, 0.0, eta=1e-6, smoothness=1.0,
                                strong_convexity=0.1, grad_bound_sq=5.0, rate=1.0, n=4)
    assert beta == pytest.approx(0.0, abs=1e-10)


def test_eta_free_component_survives_decay():
    mu, g2, rate, n, n2 = 0.1, 5.0, 0.5, 14, 3
    eta = 1e-6
    component = gap_term(n2, eta, mu, g2, rate, n)
    limit = 4 * mu * n2 * g2 / (n * rate)
    assert component == pytest.approx(limit, rel=1e-4)
    _, beta = convergence_terms(n - n2, n2, 0.0, 0.0, eta, 1.0, mu, g2, rate, n)
    assert beta >= component - 1e-12


def test_envelope_geometric_decay():
    rows = [(0.5, 0.0)] * 10
    env = convergence_envelope(rows, 1.0)
    assert np.allclose(env, [0.5 ** (k + 1) for k in range(10)])


def test_envelope_arithmetic_growth():
    c = 0.25
    rows = [(1.0, c)] * 8
    env = convergence_envelope(rows, 1.0)
    assert np.allclose(env, [1.0 + (k + 1) * c for k in range(8)])


def test_envelope_decreases_at_rate_point_eight():
    rows = [(2 * (1 - 0.6), 0.0)] * 20
    env = convergence_envelope(rows, 1.0)
    for k, v in enumerate(env):
        assert v == pytest.approx(0.8 ** (k + 1), abs=1e-12)
    assert all(b < a for a, b in zip(env, env[1:]))


def test_envelope_rejects_empty_trace():
    with pytest.raises(ValueError):
        convergence_envelope([], 1.0)


def test_gap_term_strictly_increasing_in_dropped_count():
    vals = [gap_term(k, 0.1, 0.1, 5.0, 1.0, 14) for k in range(15)]
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_gap_term_halves_when_rate_doubles():
    a = gap_term(3, 0.1, 0.1, 5.0, 1.0, 14)
    b = gap_term(3, 0.1, 0.1, 5.0, 2.0, 14)
    assert b == pytest.approx(a / 2)


def test_gap_monotonicity_check_passes_on_grid():
    assert gap_monotonicity_check(0.1, 0.1, 5.0, 14, [0.2, 0.3, 0.5, 1.0])


def test_distance_examples():
    assert distance_to_optimum(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert distance_to_optimum(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 1.0
    with pytest.raises(ValueError):
        distance_to_optimum(np.zeros(2), np.zeros(3))


def test_distance_triangle_inequality_squared():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u, v, w = rng.normal(size=(3, 4))
        duw = distance_to_optimum(u, w)
        assert duw <= 2 * distance_to_optimum(u, v) + 2 * distance_to_optimum(v, w) + 1e-12


def test_trace_csv_roundtrip_and_header(tmp_path):
    rows = [
        TraceRow(t=0, n1=13, n2=1, dist_wbar_sq=1.25, dist_wtilde_sq=2.5,
                 div_lhs=0.01, div_rhs_main=0.02, div_rhs_appendix=0.2,
                 alpha_t=1.8, beta_t=0.3, thm1_bound=2.1, gap_term=0.05,
                 gamma=0.4, mean_loss=0.9, mean_acc=float("nan")),
        TraceRow(t=1, n1=14, n2=0),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, rows)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(TRACE_COLUMNS)
    assert "\r" not in text
    back = read_trace_csv(path)
    assert back[0].dist_wbar_sq == 1.25
    assert np.isnan(back[0].mean_acc)
    assert back[1].t == 1 and back[1].n1 == 14


@pytest.mark.parametrize("keep", [12, 6])
def test_read_trace_rejects_a_truncated_row(tmp_path, keep):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [TraceRow(t=0, n1=2), TraceRow(t=1, n1=2)])
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:keep])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 3 has {keep} cells, expected 15"):
        read_trace_csv(path)


def test_trace_header_is_the_pinned_schema():
    assert ",".join(TRACE_COLUMNS) == (
        "t,n1,n2,dist_wbar_sq,dist_wtilde_sq,div_lhs,div_rhs_main,"
        "div_rhs_appendix,alpha_t,beta_t,thm1_bound,gap_term,gamma,"
        "mean_loss,mean_acc"
    )
