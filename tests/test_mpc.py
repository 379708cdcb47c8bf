import dataclasses

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
from lti2mpc.mpc import MpcConfig, build_condensed_qp, effect_weight
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
    # one step: the first state is x0 itself, so H = 2R = 2W, and the
    # gradient maps are 2S' = -2WK_c in x0 and -2S' in x_r
    K_c = np.array([[1.0, -2.0]])
    W = np.array([[3.0]])
    G = DtStateSpace(np.eye(2), np.ones((2, 1)), np.eye(1, 2), np.zeros((1, 1)), 1.0)
    qp = build_condensed_qp(G, K_c, MpcConfig(N=1, W=W))
    assert_allclose(qp.H, 2.0 * W, atol=1e-14)
    assert_allclose(qp.F[:, :2], -2.0 * W @ K_c, atol=1e-14)
    assert_allclose(qp.F[:, 2:], 2.0 * W @ K_c, atol=1e-14)
    assert np.array_equal(qp.K_c, K_c) and qp.u_bounds is None


def test_config_rejects_a_weight_that_is_not_positive_definite():
    for W in ([[-1.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="matching-cost weight must be positive definite"):
            MpcConfig(N=1, W=W)


def test_a_weight_counts_by_its_symmetric_part():
    # (u - K_c x)'W(u - K_c x) sees only (W + W')/2; a builder that used
    # W itself in the cross term moved the unconstrained first move off K_c x
    rng = np.random.default_rng(7)
    G, K_c = _random_plant_gain(rng)
    cfg = MpcConfig(N=5, W=[[1.0, 0.8], [0.0, 1.0]])
    assert np.array_equal(cfg.W, [[1.0, 0.4], [0.4, 1.0]])
    qp = build_condensed_qp(G, K_c, cfg)
    x0 = rng.standard_normal(3)
    assert_allclose(-np.linalg.solve(qp.H, qp.F @ qp.theta(x0))[:2], K_c @ x0, atol=1e-12)


def test_config_rejects_a_weight_that_is_not_square():
    for W, shape in (([[1.0, 0.0]], "1x2"), (np.ones((2, 2, 2)), "2x2x2")):
        with pytest.raises(ValueError, match=f"matching-cost weight is {shape}, not square"):
            MpcConfig(N=1, W=W)


def test_build_refuses_a_gain_or_weight_of_the_wrong_size():
    G, K_c = _random_plant_gain(np.random.default_rng(6))  # n = 3, n_u = 2
    with pytest.raises(ValueError, match="matching-cost weight is 1x1, not 2x2"):
        build_condensed_qp(G, K_c, MpcConfig(N=3, W=[[1.0]]))
    for gain, shape in ((K_c.T, "3x2"), (K_c[:1], "1x3"), (np.ones(3), "1x3")):
        with pytest.raises(ValueError, match=f"K_c is {shape}, not 2x3"):
            build_condensed_qp(G, gain, MpcConfig(N=3))


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
        qp = build_condensed_qp(G, K_c, MpcConfig(N=8))
        assert qp.A_ineq.shape == (0, 8 * 2)
        x0 = rng.standard_normal(3)
        sol = solve_qp(qp.H, qp.F @ qp.theta(x0))
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
    qp = build_condensed_qp(G, K_c, MpcConfig(N=6))
    x0 = rng.standard_normal(4)
    x_r = rng.standard_normal(4)
    sol = solve_qp(qp.H, qp.F @ qp.theta(x0, x_r=x_r))
    U = qp.input_sequence(sol.x_star)
    x = x0.copy()
    for k in range(6):
        assert_allclose(U[k], K_c @ (x - x_r), atol=1e-7)
        x = G.A @ x + G.B @ U[k]


def test_known_input_enters_the_prediction():
    # a model that records a loop-shift D_K sees the known input through -B D_K
    rng = np.random.default_rng(43)
    G, K_c = _random_plant_gain(rng, n=3, m=1)
    G = dataclasses.replace(G, D_K=rng.standard_normal((1, 1)))
    B_w = -G.B @ G.D_K
    qp = build_condensed_qp(G, K_c, MpcConfig(N=5))
    x0 = rng.standard_normal(3)
    x_r = np.zeros(3)
    w = np.array([0.7])
    sol = solve_qp(qp.H, qp.F @ qp.theta(x0, x_r=x_r, w=w))
    U = qp.input_sequence(sol.x_star)
    x = x0.copy()
    for k in range(5):
        assert_allclose(U[k], K_c @ x, atol=1e-7)
        x = G.A @ x + G.B @ U[k] + (B_w @ w)
    assert sol.objective < 1e-12


def test_a_condensed_qps_law_is_its_optimum_on_the_solvers_active_set():
    # a known input, hard input bounds and a softened output: on the set the
    # solver ends on, the memoised law reproduces the solve from theta
    rng = np.random.default_rng(47)
    G, K_c = _random_plant_gain(rng, n=3, m=1)
    G = dataclasses.replace(G, D_K=rng.standard_normal((1, 1)))
    qp = build_condensed_qp(G, K_c, MpcConfig(N=5, u_bounds=([-0.3], [0.3]),
                                              y_bounds=([-0.5], [0.5])))
    assert qp.law_memo is None
    assert_allclose(qp.theta([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0])
    # the bounds act on the states themselves, so no row sees x_r, and the
    # slacks carry no linear cost
    assert qp.F.shape[1] == qp.B.shape[1] == 7 and qp.A_ineq.shape[0] > 0
    assert not qp.B[:, 3:6].any() and not qp.F[qp.N * qp.n_u:].any()
    sets = set()
    for _ in range(40):
        x0, x_r, w = rng.choice([0.01, 3.0]) * rng.standard_normal((3, 3))
        w = w[:1]
        theta = qp.theta(x0, x_r, w)
        sol = solve_qp(qp.H, qp.F @ theta, qp.A_ineq, qp.b0 + qp.B @ theta,
                       factor=qp.factor)
        law = qp.law(sol.active_set)
        assert qp.law_memo == (sol.active_set, law) and qp.law(sol.active_set) is law
        hit = law.solve(qp.H, theta)
        assert hit is not None and hit.active_set == sol.active_set
        assert_allclose(hit.x_star, sol.x_star, atol=1e-9 * (1.0 + np.abs(sol.x_star).max()))
        sets.add(sol.active_set)
    assert () in sets and len(sets) > 2
    with pytest.raises(ValueError, match="read-only"):
        qp.b0[0] = 0.0
    # without a known input, w is no part of theta
    plain = build_condensed_qp(dataclasses.replace(G, D_K=None), K_c, MpcConfig(N=5))
    assert plain.theta(np.ones(3), w=np.ones(1)).size == 6


def _pd_weight(rng, m):
    """A random m x m weight with a positive definite symmetric part, not
    itself symmetric."""
    L = rng.standard_normal((m, m))
    return L @ L.T + 0.1 * np.eye(m) + 0.05 * (L - L.T)


def test_condensation_matches_plain_simulation():
    # identity-weighted matching costs on one input, then random positive
    # definite weights on one and on two inputs, each without and with
    # tracking and a known input (a random loop-shift D_K on the design
    # model); the state bounds add one-sided and unbounded rows
    rng = np.random.default_rng(44)
    cases = [("identity", 1, False)] * 8 + [("weighted", m, extra) for m in (1, 2)
                                            for extra in (False, True) for _ in range(4)]
    inf = np.inf
    for kind, m, extra in cases:
        G, K_c = _random_plant_gain(rng, n=3, m=m)
        if extra:
            G = dataclasses.replace(G, D_K=rng.standard_normal((m, 1)))
        W = _pd_weight(rng, m) if kind == "weighted" else None
        cfg = MpcConfig(
            N=6, W=W,
            u_bounds=(-0.4 * np.ones(m), 0.4 * np.ones(m)),
            y_bounds=(-2.0 * np.ones(1), 2.0 * np.ones(1)),
            x_bounds=([-inf, -inf, -3.0], [inf, 3.0, inf]),
        )
        qp = build_condensed_qp(G, K_c, cfg)
        x0 = 2.0 * rng.standard_normal(3)
        x_r, w = (rng.standard_normal(3), rng.standard_normal(1)) if extra else (None, None)
        obj_gap, row_gap = condensation_gaps(G, K_c, W, cfg, qp, x0, x_r, w)
        assert obj_gap <= 1e-9 and row_gap <= 1e-9, \
            f"{kind} cost on {m} inputs, extra terms {extra}: gaps {obj_gap:.1e}, {row_gap:.1e}"
        theta = qp.theta(x0, x_r, w)
        sol = solve_qp(qp.H, qp.F @ theta, qp.A_ineq, qp.b0 + qp.B @ theta)
        assert sol.status == "optimal"
        assert np.max(np.abs(qp.input_sequence(sol.x_star))) <= 0.4 + 1e-9


def test_near_singular_hessian_is_refused_not_regularised():
    # the redundant satellite torque pair with a vanishing own-input
    # weight: cond(H) ~ 1.7e12; a regularised H would move each actuator's
    # first move away from K_c x while their sum still matched
    G = satellite_plant()
    cfg = MpcConfig(N=15, W=effect_weight(G, 1e3, 1e-12))
    with pytest.raises(NumericalError, match=r"cond\(H\) = 1\.7e\+12"):
        build_condensed_qp(G, np.zeros((2, 3)), cfg)
    # the library's own effect weight (R1 = 1e-3) stays well conditioned
    cfg = MpcConfig(N=15, W=effect_weight(G, 1e3, 1e-3))
    assert np.linalg.cond(build_condensed_qp(G, np.zeros((2, 3)), cfg).H) < 1e12


def test_single_step_constraint_rows_by_hand():
    # scalar plant, N = 1, softened |c x1| <= y_max with one shared slack
    a, bq, c = 0.8, 0.5, 2.0
    G = DtStateSpace([[a]], [[bq]], [[c]], [[0.0]], 1.0)
    cfg = MpcConfig(N=1, y_bounds=([-1.0], [1.0]), soft_output_weight=1e4)
    qp = build_condensed_qp(G, np.array([[-0.3]]), cfg)
    assert qp.H.shape == (2, 2)
    assert_allclose(qp.H[1, 1], 2e4, atol=1e-9)
    assert_allclose(qp.A_ineq, [[c * bq, -1.0], [-c * bq, -1.0]], atol=1e-12)
    x0 = np.array([0.9])
    assert_allclose(qp.b0 + qp.B @ qp.theta(x0), [1.0 - c * a * 0.9, 1.0 + c * a * 0.9], atol=1e-12)


def test_soft_constraint_matches_oracle():
    # infeasible hard output bound: slack absorbs exactly the overshoot
    G = DtStateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    cfg = MpcConfig(N=2, u_bounds=([-0.1], [0.1]),
                    y_bounds=([-0.2], [0.2]), soft_output_weight=1e3)
    qp = build_condensed_qp(G, np.array([[-0.5]]), cfg)
    x0 = np.array([1.0])  # cannot reach |x| <= 0.2 with |u| <= 0.1 in 2 steps
    f, b = qp.F @ qp.theta(x0), qp.b0 + qp.B @ qp.theta(x0)
    sol = solve_qp(qp.H, f, qp.A_ineq, b)
    assert sol.status == "optimal"
    ref = brute_force_qp(qp.H, f, qp.A_ineq, b)
    assert_allclose(sol.objective, ref[1], rtol=1e-9, atol=1e-9)
    s = qp.slack_values(sol.x_star)
    assert np.all(s >= -1e-9)
    assert s.max() > 0.1  # genuinely active softening


def test_satellite_qp_dimensions():
    # 15-step horizon, 4 hard input rows + 2 softened output rows per step
    # sharing one slack: 45 decisions, 90 inequalities
    G = satellite_plant()
    K_c = np.zeros((2, 3))  # only the dimensions matter here
    cfg = MpcConfig(N=15, u_bounds=(-np.ones(2), np.ones(2)),
                    y_bounds=([-0.01], [0.01]))
    qp = build_condensed_qp(G, K_c, cfg)
    assert qp.H.shape == (45, 45)
    assert qp.A_ineq.shape == (90, 45)


def test_pendulum_qp_dimensions():
    # three softened state bounds, no input bounds: 60 decisions, 90 rows
    G = pendulum_plant()
    K_c = np.zeros((1, 4))
    inf = np.inf
    cfg = MpcConfig(N=15, x_bounds=([-inf, -0.7, -0.175, -0.3],
                                    [inf, 0.7, 0.175, 0.3]))
    qp = build_condensed_qp(G, K_c, cfg)
    assert qp.H.shape == (60, 60)
    assert qp.A_ineq.shape == (90, 60)


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(N=0)
    with pytest.raises(ValueError):
        MpcConfig(N=3, u_bounds=([1.0], [-1.0]))
    with pytest.raises(ValueError, match="soft_output_weight must be finite, not inf"):
        MpcConfig(N=3, soft_output_weight=np.inf)
    # a bound that no value can meet, on either side
    for bounds in (([np.inf], [np.inf]), ([-np.inf], [-np.inf])):
        with pytest.raises(ValueError, match="cannot be met"):
            MpcConfig(N=3, u_bounds=bounds)


def test_infinite_weights_are_refused():
    G = DtStateSpace(0.5 * np.eye(2), np.eye(2), np.eye(1, 2), np.zeros((1, 2)), 1.0)
    with pytest.raises(ValueError, match="matching-cost weight W must be finite"):
        MpcConfig(N=3, W=np.diag([np.inf, 1.0]))
    for Q1, R1, name in ((np.inf, 1.0, "Q1"), (1.0, np.diag([1.0, np.nan]), "R1")):
        with pytest.raises(ValueError, match=f"effect weight {name} must be finite"):
            effect_weight(G, Q1, R1)


def test_horizon_must_be_an_integer():
    for N in (1.5, 15.0, "15", True):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            MpcConfig(N=N)
    assert MpcConfig(N=np.int64(3)).N == 3


@pytest.mark.parametrize("key", ["u_bounds", "y_bounds", "x_bounds"])
def test_bounds_refuse_nan_but_take_infinities(key):
    for bounds in (([np.nan], [1.0]), ([-1.0], [np.nan])):
        with pytest.raises(ValueError, match="no NaN"):
            MpcConfig(N=3, **{key: bounds})
    # an infinite side disables that side of the row
    MpcConfig(N=3, **{key: ([-np.inf], [1.0])})


@pytest.mark.parametrize("key, size", [("u_bounds", 1), ("y_bounds", 2), ("x_bounds", 2)])
def test_condensed_qp_refuses_bounds_of_the_wrong_size(key, size):
    G, K_c = _random_plant_gain(np.random.default_rng(5))  # n = 3, n_u = 2, n_y = 1
    cfg = MpcConfig(N=3, **{key: (-np.ones(size), np.ones(size))})
    with pytest.raises(ValueError, match=f"{key} have {size} entries per side"):
        build_condensed_qp(G, K_c, cfg)
