import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import brute_force_qp, condensation_gaps
from lti2mpc.linalg import NumericalError, spectral_radius
from lti2mpc.models import (
    pendulum_controller,
    pendulum_plant,
    satellite_controller,
    satellite_plant,
)
from lti2mpc.mpc import (
    MpcConfig,
    StageCost,
    build_condensed_qp,
    effect_weight,
    matching_cost,
    zero_dare_residual,
)
from lti2mpc.qp import solve_qp
from lti2mpc.statespace import DtStateSpace


def _random_plant_gain(rng, n=3, m=2):
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.6, 1.2) / max(spectral_radius(A), 1e-9)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((1, n))
    G = DtStateSpace(A, B, C, np.zeros((1, m)), 1.0)
    # any gain will do for cost-structure tests; stabilising not required
    K_c = 0.3 * rng.standard_normal((m, n))
    return G, K_c


def test_matching_cost_blocks():
    K_c = np.array([[1.0, -2.0]])
    W = np.array([[3.0]])
    c = matching_cost(K_c, W)
    assert_allclose(c.Q, K_c.T * 3.0 @ K_c, atol=1e-14)
    assert_allclose(c.S, -K_c.T * 3.0, atol=1e-14)
    assert_allclose(c.R, W, atol=1e-14)
    assert zero_dare_residual(c) < 1e-14


def test_matching_cost_rejects_indefinite_weight():
    with pytest.raises(ValueError):
        matching_cost(np.ones((1, 2)), np.array([[-1.0]]))


def test_matching_cost_rejects_a_weight_of_the_wrong_size():
    with pytest.raises(ValueError, match="1x1, not 2x2"):
        matching_cost(np.ones((2, 3)), np.array([[1.0]]))


def test_zero_dare_residual_detects_generic_cost():
    c = StageCost(Q=np.eye(2), S=np.zeros((2, 1)), R=np.eye(1))
    assert zero_dare_residual(c) > 0.5


def test_effect_weight_formula():
    G = satellite_plant()
    W = effect_weight(G, 1e3, 1e-3)
    assert_allclose(W, 1e-3 * np.eye(2) + G.B.T @ (1e3 * np.eye(3)) @ G.B,
                    rtol=1e-12)
    # redundant torque columns make it near rank one, still PD
    ev = np.linalg.eigvalsh(W)
    assert ev[0] > 0.0
    assert ev[1] / ev[0] > 100.0


def test_unconstrained_optimum_is_the_linear_law():
    rng = np.random.default_rng(41)
    for _ in range(10):
        G, K_c = _random_plant_gain(rng)
        cfg = MpcConfig(N=8, cost=matching_cost(K_c))
        qp = build_condensed_qp(G, cfg)
        assert qp.A_ineq.shape == (0, 8 * 2)
        x0 = rng.standard_normal(3)
        sol = solve_qp(qp.H, qp.f(x0))
        assert sol.status == "optimal"
        # objective offset: the condensation drops the x-only constant
        U = qp.input_sequence(sol.x_star)
        x = x0.copy()
        for k in range(8):
            assert_allclose(U[k], K_c @ x, atol=1e-7)
            x = G.A @ x + G.B @ U[k]
        # total cost along the trajectory is zero
        J = 0.0
        x = x0.copy()
        for k in range(8):
            e = U[k] - K_c @ x
            J += float(e @ e)
            x = G.A @ x + G.B @ U[k]
        assert J < 1e-14


def test_tracking_optimum_follows_the_reference_state():
    rng = np.random.default_rng(42)
    G, K_c = _random_plant_gain(rng, n=4, m=1)
    cfg = MpcConfig(N=6, cost=matching_cost(K_c))
    qp = build_condensed_qp(G, cfg)
    x0 = rng.standard_normal(4)
    x_r = rng.standard_normal(4)
    sol = solve_qp(qp.H, qp.f(x0, x_r=x_r))
    U = qp.input_sequence(sol.x_star)
    x = x0.copy()
    for k in range(6):
        assert_allclose(U[k], K_c @ (x - x_r), atol=1e-7)
        x = G.A @ x + G.B @ U[k]


def test_known_input_enters_the_prediction():
    rng = np.random.default_rng(43)
    G, K_c = _random_plant_gain(rng, n=3, m=1)
    B_w = rng.standard_normal((3, 1))
    cfg = MpcConfig(N=5, cost=matching_cost(K_c), known_input=B_w)
    qp = build_condensed_qp(G, cfg)
    x0 = rng.standard_normal(3)
    x_r = np.zeros(3)
    w = np.array([0.7])
    sol = solve_qp(qp.H, qp.f(x0, x_r=x_r, w=w))
    U = qp.input_sequence(sol.x_star)
    x = x0.copy()
    for k in range(5):
        assert_allclose(U[k], K_c @ x, atol=1e-7)
        x = G.A @ x + G.B @ U[k] + (B_w @ w)
    assert sol.objective < 1e-12


def _convex_cost(rng, n, m, cross):
    """A positive definite joint weight on (x, u); S = 0 unless ``cross``."""
    L = rng.standard_normal((n + m, n + m))
    M = L @ L.T + 0.1 * np.eye(n + m)
    return StageCost(Q=M[:n, :n], S=M[:n, n:] if cross else np.zeros((n, m)), R=M[n:, n:])


def test_condensation_matches_plain_simulation():
    # matching costs, then costs that are not zero along any linear law
    # (S = 0 and S != 0), each without and with tracking and a known input;
    # the state bounds add one-sided and unbounded rows
    rng = np.random.default_rng(44)
    cases = [("matching", False)] * 8 + [(kind, extra) for kind in ("no-cross", "cross")
                                         for extra in (False, True) for _ in range(4)]
    inf = np.inf
    for kind, extra in cases:
        G, K_c = _random_plant_gain(rng, n=3, m=1)
        cfg = MpcConfig(
            N=6,
            cost=matching_cost(K_c) if kind == "matching"
            else _convex_cost(rng, 3, 1, kind == "cross"),
            u_bounds=(-0.4 * np.ones(1), 0.4 * np.ones(1)),
            y_bounds=(-2.0 * np.ones(1), 2.0 * np.ones(1)),
            x_bounds=([-inf, -inf, -3.0], [inf, 3.0, inf]),
            known_input=rng.standard_normal((3, 1)) if extra else None,
        )
        qp = build_condensed_qp(G, cfg)
        x0 = 2.0 * rng.standard_normal(3)
        x_r, w = (rng.standard_normal(3), rng.standard_normal(1)) if extra else (None, None)
        obj_gap, row_gap = condensation_gaps(G, cfg, qp, x0, x_r, w)
        assert obj_gap <= 1e-9 and row_gap <= 1e-9, \
            f"{kind} cost, extra terms {extra}: gaps {obj_gap:.1e}, {row_gap:.1e}"
        sol = solve_qp(qp.H, qp.f(x0, x_r, w), qp.A_ineq, qp.b(x0, w))
        assert sol.status == "optimal"
        assert np.max(np.abs(qp.input_sequence(sol.x_star))) <= 0.4 + 1e-9


def test_near_singular_hessian_is_refused_not_regularised():
    # the redundant satellite torque pair with a vanishing own-input
    # weight: cond(H) ~ 1.7e12; a regularised H would move each actuator's
    # first move away from K_c x while their sum still matched
    G = satellite_plant()
    cost = matching_cost(np.zeros((2, 3)), effect_weight(G, 1e3, 1e-12))
    with pytest.raises(NumericalError, match=r"cond\(H\) = 1\.7e\+12"):
        build_condensed_qp(G, MpcConfig(N=15, cost=cost))
    # the library's own effect weight (R1 = 1e-3) stays well conditioned
    cost = matching_cost(np.zeros((2, 3)), effect_weight(G, 1e3, 1e-3))
    assert np.linalg.cond(build_condensed_qp(G, MpcConfig(N=15, cost=cost)).H) < 1e12


def test_single_step_constraint_rows_by_hand():
    # scalar plant, N = 1, softened |c x1| <= y_max with one shared slack
    a, bq, c = 0.8, 0.5, 2.0
    G = DtStateSpace([[a]], [[bq]], [[c]], [[0.0]], 1.0)
    cfg = MpcConfig(N=1, cost=matching_cost(np.array([[-0.3]])),
                    y_bounds=([-1.0], [1.0]), soft_output_weight=1e4)
    qp = build_condensed_qp(G, cfg)
    assert qp.H.shape == (2, 2)
    assert_allclose(qp.H[1, 1], 2e4, atol=1e-9)
    assert_allclose(qp.A_ineq, [[c * bq, -1.0], [-c * bq, -1.0]], atol=1e-12)
    x0 = np.array([0.9])
    assert_allclose(qp.b(x0), [1.0 - c * a * 0.9, 1.0 + c * a * 0.9], atol=1e-12)


def test_soft_constraint_matches_oracle():
    # infeasible hard output bound: slack absorbs exactly the overshoot
    G = DtStateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    cfg = MpcConfig(N=2, cost=matching_cost(np.array([[-0.5]])),
                    u_bounds=([-0.1], [0.1]),
                    y_bounds=([-0.2], [0.2]), soft_output_weight=1e3)
    qp = build_condensed_qp(G, cfg)
    x0 = np.array([1.0])  # cannot reach |x| <= 0.2 with |u| <= 0.1 in 2 steps
    sol = solve_qp(qp.H, qp.f(x0), qp.A_ineq, qp.b(x0))
    assert sol.status == "optimal"
    ref = brute_force_qp(qp.H, qp.f(x0), qp.A_ineq, qp.b(x0))
    assert_allclose(sol.objective, ref[1], rtol=1e-9, atol=1e-9)
    s = qp.slack_values(sol.x_star)
    assert np.all(s >= -1e-9)
    assert s.max() > 0.1  # genuinely active softening


def test_satellite_qp_dimensions():
    # 15-step horizon, 4 hard input rows + 2 softened output rows per step
    # sharing one slack: 45 decisions, 90 inequalities
    G = satellite_plant()
    K_c = np.zeros((2, 3))  # only the dimensions matter here
    cfg = MpcConfig(N=15, cost=matching_cost(K_c),
                    u_bounds=(-np.ones(2), np.ones(2)),
                    y_bounds=([-0.01], [0.01]))
    qp = build_condensed_qp(G, cfg)
    assert qp.H.shape == (45, 45)
    assert qp.A_ineq.shape == (90, 45)


def test_pendulum_qp_dimensions():
    # three softened state bounds, no input bounds: 60 decisions, 90 rows
    G = pendulum_plant()
    K_c = np.zeros((1, 4))
    inf = np.inf
    cfg = MpcConfig(N=15, cost=matching_cost(K_c),
                    x_bounds=([-inf, -0.7, -0.175, -0.3],
                              [inf, 0.7, 0.175, 0.3]))
    qp = build_condensed_qp(G, cfg)
    assert qp.H.shape == (60, 60)
    assert qp.A_ineq.shape == (90, 60)


def test_config_validation():
    c = matching_cost(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        MpcConfig(N=0, cost=c)
    with pytest.raises(ValueError):
        MpcConfig(N=3, cost=c, u_bounds=([1.0], [-1.0]))
    with pytest.raises(ValueError, match="soft_output_weight must be finite, not inf"):
        MpcConfig(N=3, cost=c, soft_output_weight=np.inf)
    # a bound that no value can meet, on either side
    for bounds in (([np.inf], [np.inf]), ([-np.inf], [-np.inf])):
        with pytest.raises(ValueError, match="cannot be met"):
            MpcConfig(N=3, cost=c, u_bounds=bounds)


def test_infinite_weights_are_refused():
    G = DtStateSpace(0.5 * np.eye(2), np.eye(2), np.eye(1, 2), np.zeros((1, 2)), 1.0)
    with pytest.raises(ValueError, match="matching-cost weight W must be finite"):
        matching_cost(np.zeros((2, 2)), np.diag([np.inf, 1.0]))
    for Q1, R1, name in ((np.inf, 1.0, "Q1"), (1.0, np.diag([1.0, np.nan]), "R1")):
        with pytest.raises(ValueError, match=f"effect weight {name} must be finite"):
            effect_weight(G, Q1, R1)


def test_horizon_must_be_an_integer():
    c = matching_cost(np.zeros((1, 2)))
    for N in (1.5, 15.0, "15", True):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            MpcConfig(N=N, cost=c)
    assert MpcConfig(N=np.int64(3), cost=c).N == 3


@pytest.mark.parametrize("key", ["u_bounds", "y_bounds", "x_bounds"])
def test_bounds_refuse_nan_but_take_infinities(key):
    c = matching_cost(np.zeros((1, 2)))
    for bounds in (([np.nan], [1.0]), ([-1.0], [np.nan])):
        with pytest.raises(ValueError, match="no NaN"):
            MpcConfig(N=3, cost=c, **{key: bounds})
    # an infinite side disables that side of the row
    MpcConfig(N=3, cost=c, **{key: ([-np.inf], [1.0])})


@pytest.mark.parametrize("key, size", [("u_bounds", 1), ("y_bounds", 2), ("x_bounds", 2)])
def test_condensed_qp_refuses_bounds_of_the_wrong_size(key, size):
    G, K_c = _random_plant_gain(np.random.default_rng(5))  # n = 3, n_u = 2, n_y = 1
    cfg = MpcConfig(N=3, cost=matching_cost(K_c), **{key: (-np.ones(size), np.ones(size))})
    with pytest.raises(ValueError, match=f"{key} have {size} entries per side"):
        build_condensed_qp(G, cfg)
