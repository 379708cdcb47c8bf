"""Observer stepping, the shaped reference prefilter and the per-sample
MPC call."""

import copy

import numpy as np
import numpy.testing as npt
import pytest

from lti2mpc.models import pendulum_controller, pendulum_plant
from lti2mpc.mpc import MpcConfig, build_condensed_qp, matching_cost
from lti2mpc.realisation import make_observer, search_realisations
from lti2mpc.runtime import build_prefilter, mpc_step
from lti2mpc.statespace import DtStateSpace, loop_shift


def _sys(A, B, C, D=None, Ts=1.0):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    C = np.atleast_2d(np.asarray(C, float))
    if D is None:
        D = np.zeros((C.shape[0], B.shape[1]))
    return DtStateSpace(A, B, C, np.atleast_2d(np.asarray(D, float)), Ts)


class _Real:
    """Minimal stand-in with the fields make_observer and build_prefilter
    need."""

    def __init__(self, K_f, form="filter", K_c=None):
        self.K_f = np.atleast_2d(np.asarray(K_f, float))
        self.form = form
        self.K_c = K_c


def test_filter_observer_with_zero_gain_is_a_pure_model_rollout():
    G = _sys([[0.9, 0.2], [0.0, 0.7]], [[0.0], [1.0]], [[1.0, 0.0]])
    obs = make_observer(_Real(np.zeros((2, 1))), G)
    rng = np.random.default_rng(11)
    x_model = np.zeros(2)
    for _ in range(20):
        u = rng.standard_normal(1)
        y = rng.standard_normal(1)
        xc = obs.estimate(y)
        npt.assert_allclose(xc, x_model, atol=1e-12)
        obs.advance(u, y)
        x_model = G.A @ x_model + G.B @ u
        npt.assert_allclose(obs.x_hat, x_model, atol=1e-12)


def test_filter_observer_with_identity_gain_snaps_to_the_measurement():
    # C = I and K_f = I make the corrected estimate equal the measurement
    G = _sys([[0.5, 0.1], [0.0, 0.3]], [[1.0], [0.5]], np.eye(2))
    obs = make_observer(_Real(np.eye(2)), G)
    y = np.array([0.7, -0.4])
    xc = obs.estimate(y)
    npt.assert_allclose(xc, y, atol=1e-14)
    obs.advance(np.array([0.2]), y)
    npt.assert_allclose(obs.x_hat, G.A @ y + G.B @ [0.2], atol=1e-14)


def test_filter_estimate_has_no_side_effects_and_advance_stands_alone():
    G = _sys([[0.9, 0.2], [-0.1, 0.7]], [[0.0], [1.0]], [[1.0, 0.5]])
    x0, y, u = np.array([0.4, -1.1]), np.array([0.6]), np.array([-0.2])

    def observer():
        obs = make_observer(_Real([[0.3], [0.2]]), G)
        obs.x_hat[:] = x0
        return obs

    obs = observer()
    before = copy.deepcopy(vars(obs))
    x_read = obs.estimate(y)
    npt.assert_array_equal(obs.estimate(y), x_read)
    assert vars(obs).keys() == before.keys()
    assert all(np.array_equal(vars(obs)[k], v) for k, v in before.items())
    npt.assert_allclose(x_read, x0 + [[0.3], [0.2]] @ (y - G.C @ x0), atol=1e-15)
    # advance on a fresh observer, with no estimate read first, still
    # steps from x-hat(k|k)
    fresh = observer()
    fresh.advance(u, y)
    npt.assert_allclose(fresh.x_hat, G.A @ x_read + G.B @ u, atol=1e-14)


def test_predictor_observer_with_deadbeat_gain():
    # C = I, K_f = A gives x_hat(k+1) = A y + B u regardless of the estimate
    A = np.array([[0.8, 0.3], [-0.1, 0.6]])
    G = _sys(A, [[1.0], [0.0]], np.eye(2))
    obs = make_observer(_Real(A, "predictor"), G)
    obs.x_hat[:] = [5.0, -3.0]
    y = np.array([0.2, 0.9])
    u = np.array([0.4])
    # the control reads the stored x-hat(k|k-1), a copy the step leaves alone
    x_read = obs.estimate(y)
    obs.advance(u, y)
    npt.assert_allclose(x_read, [5.0, -3.0], atol=0.0)
    npt.assert_allclose(obs.x_hat, A @ y + G.B @ u, atol=1e-13)


def test_make_observer_rejects_a_plant_with_feedthrough():
    G = _sys([[0.5]], [[1.0]], [[1.0]], D=[[0.3]])
    with pytest.raises(ValueError, match="strictly proper"):
        make_observer(_Real([[0.1]]), G)


# -- prefilters --------------------------------------------------------------


def _pendulum_pieces():
    G = pendulum_plant()
    K = pendulum_controller()
    Gs, Ks = loop_shift(G, K)
    found = search_realisations(Gs, Ks, form="predictor", rank_by="noise")
    real = found.ranked[0][0]
    return G, K, Gs, real


def _L1():
    return np.array([[0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def _position_L1():
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def _position_L2():
    return np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


def test_loop_shift_nominal_prefilter_matrices():
    # the prefilter state runs the loop-shift-corrected observer driven by r
    G, K, Gs, real = _pendulum_pieces()
    pre = build_prefilter(real, Gs, _L1(), np.zeros((3, 2)))
    K_f = np.atleast_2d(real.K_f)
    BDK = G.B @ K.D
    npt.assert_allclose(pre.sys.A, G.A + (BDK - K_f) @ G.C, atol=1e-12)
    npt.assert_allclose(pre.sys.B, K_f - BDK, atol=1e-12)


def test_shaped_prefilter_invariants_hold_along_a_trajectory():
    # L1 x_r = L2 r and K_c x_r = K_c x_pre at every step
    _, K, Gs, real = _pendulum_pieces()
    L1, L2 = _L1(), np.zeros((3, 2))
    pre = build_prefilter(real, Gs, L1, L2)
    K_c = np.atleast_2d(real.K_c)
    rng = np.random.default_rng(3)
    for _ in range(40):
        r = rng.standard_normal(2)
        x_pre = pre.x.copy()
        x_r = pre.step(r)
        npt.assert_allclose(L1 @ x_r, L2 @ r, atol=1e-9)
        npt.assert_allclose(K_c @ x_r, K_c @ x_pre, atol=1e-9)
        # with L2 = 0 the shaped velocity and angle references vanish
        npt.assert_allclose(x_r[1:], np.zeros(3), atol=1e-9)


def test_shaped_prefilter_position_variant_passes_the_setpoint_through():
    _, K, Gs, real = _pendulum_pieces()
    L1, L2 = _position_L1(), _position_L2()
    pre = build_prefilter(real, Gs, L1, L2)
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.standard_normal(2)
        x_r = pre.step(r)
        npt.assert_allclose(x_r[0], r[0], atol=1e-9)
        npt.assert_allclose(x_r[2], 0.0, atol=1e-9)
        npt.assert_allclose(x_r[3], 0.0, atol=1e-9)


def test_shaped_prefilter_rejects_a_singular_selection():
    _, K, Gs, real = _pendulum_pieces()
    # rows of L1 plus K_c fail to span R^4 when L1 repeats a row
    L1 = np.array([[0.0, 1.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        build_prefilter(real, Gs, L1, np.zeros((3, 2)))


def test_shaped_prefilter_rejects_an_L2_not_shaped_rows_of_L1_by_n_y():
    # a one-column L2 would broadcast over the n_y columns of the
    # prefilter's feedthrough without the shape check
    _, K, Gs, real = _pendulum_pieces()
    with pytest.raises(ValueError, match="L2"):
        build_prefilter(real, Gs, _L1(), np.zeros((3, 1)))


def test_prefilter_is_the_observer_driven_by_the_reference():
    # x_r = Mc estimate + Ml r on make_observer stepped with
    # u = -D_K r and y = r, as simulate drives the real observer
    _, K, Gs, real = _pendulum_pieces()
    L1, L2 = _position_L1(), _position_L2()
    pre = build_prefilter(real, Gs, L1, L2)
    obs = make_observer(real, Gs)
    K_c = np.atleast_2d(real.K_c)
    M = np.vstack([L1, K_c])
    Mc = np.linalg.solve(M, np.vstack([np.zeros_like(L1), K_c]))
    Ml = np.linalg.solve(M, np.vstack([L2, np.zeros((1, 2))]))
    rng = np.random.default_rng(5)
    for _ in range(40):
        r = rng.standard_normal(2)
        expected = Mc @ obs.estimate(r) + Ml @ r
        npt.assert_allclose(pre.step(r), expected, rtol=0.0, atol=1e-12)
        obs.advance(-K.D @ r, r)


def test_prefilter_needs_a_strictly_proper_plant():
    G = _sys([[0.5]], [[1.0]], [[1.0]], D=[[1.0]])
    with pytest.raises(ValueError, match="strictly proper"):
        build_prefilter(_Real([[0.1]], K_c=np.array([[0.2]])), G, np.zeros((0, 1)),
                        np.zeros((0, 1)))


# -- the per-sample MPC call -------------------------------------------------


def test_mpc_step_unconstrained_returns_the_linear_law():
    A = np.array([[0.9, 0.2], [0.0, 0.7]])
    B = np.array([[0.0], [1.0]])
    G = _sys(A, B, [[1.0, 0.0]])
    K_c = np.array([[-0.4, -0.6]])
    cfg = MpcConfig(N=8, cost=matching_cost(K_c))
    qp = build_condensed_qp(G, cfg)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(2)
        res = mpc_step(qp, x, fallback_gain=K_c)
        assert not res.fallback
        assert res.status == "optimal"
        npt.assert_allclose(res.u, K_c @ x, atol=1e-8)


def test_mpc_step_tracking_offsets_the_law():
    A = np.array([[0.9, 0.2], [0.0, 0.7]])
    B = np.array([[0.0], [1.0]])
    G = _sys(A, B, [[1.0, 0.0]])
    K_c = np.array([[-0.4, -0.6]])
    cfg = MpcConfig(N=8, cost=matching_cost(K_c))
    qp = build_condensed_qp(G, cfg)
    x = np.array([0.3, -0.2])
    x_r = np.array([1.0, 0.1])
    res = mpc_step(qp, x, x_r=x_r, fallback_gain=K_c)
    npt.assert_allclose(res.u, K_c @ (x - x_r), atol=1e-8)


def test_mpc_step_falls_back_on_an_infeasible_qp():
    # contradictory hard input bounds cannot be satisfied
    A = np.array([[1.2]])
    B = np.array([[1.0]])
    G = _sys(A, B, [[1.0]])
    K_c = np.array([[-0.9]])
    cfg = MpcConfig(N=3, cost=matching_cost(K_c), u_bounds=([0.2], [0.4]))
    qp = build_condensed_qp(G, cfg)
    # shift the lower bound above the upper to force infeasibility
    qp.b_const[qp.b_const.size // 2:] = -1.0
    res = mpc_step(qp, np.array([2.0]), fallback_gain=K_c,
                   u_bounds=([-0.5], [0.5]))
    assert res.fallback
    assert res.status == "fallback"
    npt.assert_allclose(res.u, [-0.5], atol=1e-12)  # clipped K_c x


def test_mpc_step_reports_active_set_size_and_slack():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    G = _sys(A, B, [[1.0, 0.0]])
    K_c = np.array([[-5.0, -3.0]])
    cfg = MpcConfig(N=5, cost=matching_cost(K_c),
                    u_bounds=([-0.1], [0.1]),
                    y_bounds=([-0.05], [0.05]),
                    soft_output_weight=1e5)
    qp = build_condensed_qp(G, cfg)
    res = mpc_step(qp, np.array([1.0, 0.5]), fallback_gain=K_c)
    assert res.status == "optimal"
    assert res.active_count > 0
    # the output bound cannot be met from here
    assert np.max(qp.slack_values(res.solution.x_star)) > 0.0

