"""Closed-loop simulation harness: plants, scenarios, traces, CSV export."""

import csv
import dataclasses
import math
import re
import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

from lti2mpc import sim
from lti2mpc.models import (
    SATELLITE_TS,
    PendulumParams,
    pendulum_controller,
    pendulum_plant,
    pendulum_plant_ct,
    satellite_controller,
    satellite_plant,
    satellite_plant_ct,
)
from lti2mpc.mpc import MpcConfig, build_condensed_qp
from lti2mpc.qp import factor_qp, solve_qp
from lti2mpc.realisation import ObserverState, search_realisations
from lti2mpc.sim import (
    BaselineController,
    MpcController,
    SATELLITE_DIST_TORQUE,
    Scenario,
    _lagged_satellite_truth,
    _rk4,
    inject_fault,
    scenario_library,
    simulate,
)
from lti2mpc.statespace import DtStateSpace, add_dipole, c2d_zoh, loop_shift

from conftest import record_steps
from test_qp import assert_kkt


@pytest.fixture(scope="module")
def library():
    return scenario_library()


@pytest.fixture(scope="module")
def traces(library):
    wanted = ["satellite-baseline", "satellite-case-1", "satellite-case-2",
              "satellite-case-3", "satellite-case-4", "satellite-case-5",
              "pendulum-case-1", "pendulum-case-2"]
    return {name: simulate(library[name]) for name in wanted}


_PEND = PendulumParams()


def pendulum_dynamics(state, force) -> np.ndarray:
    """Frictionless cart-pendulum equations of motion, pendulum upright at
    theta = 0:  xdd = (m l w^2 s - m g s c + u)/(M + m s^2),
    thdd = (g s - xdd c)/l.  The oracle of the linearisation and of _rk4."""
    _, xd, th, thd = state
    return np.array(_pendulum_rhs(xd, th, thd, force))


def _pendulum_rhs(xd, th, thd, force):
    """pendulum_dynamics on scalars: (xd, xdd, thd, thdd)."""
    M, m, l, g = _PEND.cart_mass, _PEND.pend_mass, _PEND.length, _PEND.gravity
    s, c = math.sin(th), math.cos(th)
    xdd = (m * l * thd * thd * s - m * g * s * c + force) / (M + m * s * s)
    return xd, xdd, thd, (g * s - xdd * c) / l


def test_pendulum_dynamics_linearise_to_the_continuous_model():
    ct = pendulum_plant_ct()
    eps = 1e-7
    J = np.zeros((4, 4))
    for j in range(4):
        dx = np.zeros(4)
        dx[j] = eps
        J[:, j] = (pendulum_dynamics(dx, 0.0) - pendulum_dynamics(-dx, 0.0)) / (2 * eps)
    npt.assert_allclose(J, ct.A, atol=1e-6)
    dB = (pendulum_dynamics(np.zeros(4), eps) - pendulum_dynamics(np.zeros(4), -eps)) / (2 * eps)
    npt.assert_allclose(dB, ct.B[:, 0], atol=1e-6)


def pendulum_energy(state):
    """Total mechanical energy (drift gauge for the integrator tests)."""
    _, xd, th, thd = state
    p = PendulumParams()
    M, m, l, g = p.cart_mass, p.pend_mass, p.length, p.gravity
    ke = 0.5 * (M + m) * xd * xd + m * l * xd * thd * np.cos(th) \
        + 0.5 * m * l * l * thd * thd
    return float(ke + m * g * l * np.cos(th))


def test_pendulum_energy_is_conserved_by_the_integrator():
    # free fall from near-upright swings through large angles; the RK4
    # sub-stepping used by the simulator must hold energy to 1e-6 over 10 s
    x = np.array([0.0, 0.0, 0.1, 0.0])
    e0 = pendulum_energy(x)
    h = 0.1 / 20.0
    for _ in range(100):
        x = _rk4(x, 0.0, h, 20)
    drift = abs(pendulum_energy(x) - e0) / max(1.0, abs(e0))
    assert drift <= 1e-6


def _rk4_on_arrays(x, u, h, nsub):
    """Reference: classical RK4 on 4-element arrays of pendulum_dynamics."""
    for _ in range(nsub):
        k1 = pendulum_dynamics(x, u)
        k2 = pendulum_dynamics(x + 0.5 * h * k1, u)
        k3 = pendulum_dynamics(x + 0.5 * h * k2, u)
        k4 = pendulum_dynamics(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def test_rk4_matches_the_array_reference_over_a_swing():
    # 200 control steps of 20 substeps under a varying force: the cart
    # swings the pendulum through large angles
    h = 0.1 / 20.0
    x = x_ref = np.array([0.0, 0.0, 0.3, 0.0])
    theta_max = 0.0
    for k in range(200):
        u = 5.0 * np.sin(0.37 * k)
        x, x_ref = _rk4(x, u, h, 20), _rk4_on_arrays(x_ref, u, h, 20)
        assert isinstance(x, np.ndarray) and x.shape == (4,)
        npt.assert_allclose(x, x_ref, rtol=1e-15, atol=1e-15)
        theta_max = max(theta_max, abs(x_ref[2]))
    assert theta_max > 1.0


def _staged_rk4(x, u, h, nsub):
    """Reference: the RK4 of _rk4 with every stage a call of _pendulum_rhs."""
    p, v, th, w = (float(s) for s in x)
    h2, h6 = 0.5 * h, h / 6.0
    for _ in range(nsub):
        a1, b1, c1, d1 = _pendulum_rhs(v, th, w, u)
        a2, b2, c2, d2 = _pendulum_rhs(v + h2 * b1, th + h2 * c1, w + h2 * d1, u)
        a3, b3, c3, d3 = _pendulum_rhs(v + h2 * b2, th + h2 * c2, w + h2 * d2, u)
        a4, b4, c4, d4 = _pendulum_rhs(v + h * b3, th + h * c3, w + h * d3, u)
        p += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        v += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        th += h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        w += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    return np.array([p, v, th, w])


def test_inlined_rk4_is_bitwise_the_staged_rk4():
    rng = np.random.default_rng(45)
    for _ in range(500):
        x = rng.uniform(-1.0, 1.0, 4) * [2.0, 3.0, np.pi, 5.0]
        u = rng.uniform(-20.0, 20.0)
        nsub = int(rng.integers(1, 41))
        h = 0.1 / nsub
        assert np.array_equal(_rk4(x, u, h, nsub), _staged_rk4(x, u, h, nsub))


def test_inject_fault_locks_channels_from_the_fault_time():
    faults = ((3.0, 0, 0.0), (5.0, 1, -0.2))
    u = np.array([0.4, 0.6])
    npt.assert_allclose(inject_fault(u, 2.9, faults), [0.4, 0.6])
    npt.assert_allclose(inject_fault(u, 3.0, faults), [0.0, 0.6])
    npt.assert_allclose(inject_fault(u, 7.0, faults), [0.0, -0.2])
    npt.assert_allclose(u, [0.4, 0.6])  # input untouched
    with pytest.raises(ValueError):
        inject_fault(u, 10.0, ((1.0, 5, 0.0),))
    # a bool would index as a mask and lock every actuator; a float index
    # is no actuator either
    for idx in (True, 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"fault names actuator {idx!r}, not an integer in [0, 2)")):
            inject_fault(u, 10.0, ((0.0, idx, 0.0),))


def test_lagged_satellite_truth_composes_to_the_zoh_model():
    # with the same input on both pieces the lag must be invisible
    G = satellite_plant()
    step = _lagged_satellite_truth(SATELLITE_TS, 10)
    rng = np.random.default_rng(0)
    x = np.array([0.3, -0.1, 0.2])
    for _ in range(10):
        u = rng.standard_normal(2)
        x_next = G.A @ x + G.B @ u
        npt.assert_allclose(step(x, u, u), x_next, atol=1e-12)
        x = x_next


def test_lagged_satellite_truth_is_its_two_zoh_pieces():
    # the composed step against the two pieces stepped one after the other:
    # u_prev over the first Ts/10, u_now over the rest, the disturbance
    # torque d entering like the first input over both
    ct = satellite_plant_ct()
    pieces = [c2d_zoh(ct, tau) for tau in (SATELLITE_TS / 10, SATELLITE_TS - SATELLITE_TS / 10)]
    step = _lagged_satellite_truth(SATELLITE_TS, 10)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, u_prev, u_now = rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(2)
        xp = x[:2]
        for P, u in zip(pieces, (u_prev, u_now)):
            xp = P.A @ xp + P.B @ (u + [x[2], 0.0])
        npt.assert_allclose(step(x, u_prev, u_now), [*xp, x[2]], rtol=0.0, atol=1e-12)


def test_undivided_satellite_replay_steps_the_zoh_model(traces):
    G = satellite_plant()
    tr = traces["satellite-baseline"]
    for k in range(len(tr) - 1):
        assert np.array_equal(tr.x[k + 1], G.A @ tr.x[k] + G.B @ tr.u_applied[k]), k


@pytest.mark.parametrize("name, setpoint, match", [
    ("satellite-baseline", [0.1, 5.0], "setpoint has 2 entries"),
    ("pendulum-case-1", [1.0], "setpoint has 1 entries"),
    ("pendulum-case-1", [1.0, np.nan], "finite"),
    ("satellite-case-1", [0.1], "prefilter"),
])
def test_a_setpoint_of_the_wrong_size_or_that_nothing_reads_is_refused(
        library, name, setpoint, match):
    with pytest.raises(ValueError, match=match):
        simulate(dataclasses.replace(library[name], setpoint=np.array(setpoint)))


@pytest.mark.parametrize("fault, match", [
    ((100.0, 7, 0.0), "actuator 7"),
    ((1.0, -1, 0.0), "actuator -1"),
    ((1.0, 1.0, 0.0), "actuator 1.0"),
    ((1.0, True, 0.0), "actuator True"),
    ((np.nan, 0, 0.0), "time"),
    ((-1.0, 0, 0.0), "time"),
    ((1.0, 0, np.nan), "value"),
    ((1.0, 0, np.inf), "value"),
])
def test_a_fault_that_nothing_honours_is_refused_before_the_first_step(
        library, monkeypatch, fault, match):
    def no_step(*args):
        raise AssertionError("a step was simulated")

    monkeypatch.setattr(sim, "inject_fault", no_step)
    with pytest.raises(ValueError, match=match):
        simulate(dataclasses.replace(library["satellite-baseline"], faults=(fault,)))


@pytest.mark.parametrize("disturbance, match", [
    ((1.0, [0.5]), "jump has 1 entries, not n_x = 3"),
    ((1.0, [0.5, 0.5]), "jump has 2 entries, not n_x = 3"),
    ((1.0, [0.5, np.nan, 0.0]), "finite"),
    ((1.0, [0.5, np.inf, 0.0]), "finite"),
    ((np.nan, [0.5, 0.0, 0.0]), "time"),
    ((np.inf, [0.5, 0.0, 0.0]), "time"),
    ((-1.0, [0.5, 0.0, 0.0]), "time"),
])
def test_a_disturbance_that_nothing_honours_is_refused_before_the_first_step(
        library, monkeypatch, disturbance, match):
    def no_step(*args, **kwargs):
        raise AssertionError("a step was simulated")

    monkeypatch.setattr(sim, "mpc_step", no_step)
    with pytest.raises(ValueError, match=match):
        simulate(dataclasses.replace(library["satellite-case-1"], disturbances=(disturbance,)))


@pytest.mark.parametrize("kind", ["baseline", "mpc"])
def test_a_controller_of_another_sample_time_is_refused(library, monkeypatch, kind):
    # such a run used to take the plant's steps with the controller's
    # matrices, without a word
    def no_step(*args, **kwargs):
        raise AssertionError("a step was simulated")

    monkeypatch.setattr(sim, "inject_fault", no_step)
    if kind == "baseline":
        ctrl = BaselineController(dataclasses.replace(satellite_controller(), Ts=0.1))
        sc = Scenario(name="b", plant=satellite_plant(), controller=ctrl, duration=5.0)
    else:
        sc = library["satellite-case-1"]
        G_d = sc.controller.design_model
        sc = dataclasses.replace(sc, controller=dataclasses.replace(
            sc.controller, design_model=dataclasses.replace(G_d, Ts=0.1)))
    with pytest.raises(ValueError, match="controller sample time 0.1 is not the plant's 0.25"):
        simulate(sc)


@pytest.mark.parametrize("name, edits, match", [
    ("satellite-baseline", {"sample_time": 0.1, "setpoint": [0.1, 5.0]},
     "controller sample time 0.1"),
    ("satellite-case-1", {"setpoint": [0.1], "faults": ((1.0, 7, 0.0),)}, "prefilter"),
    ("satellite-baseline", {"noise_sigma": [1e-3, 1e-3, 1e-3], "disturbances": ((1.0, [0.5]),)},
     "noise_sigma has 3 entries"),
    ("pendulum-case-1", {"prefilter": (np.eye(4)[1:], np.zeros((3, 1))), "setpoint": [1.0]},
     "L2 must be 3 x 2"),
], ids=["sample time before setpoint", "prefilter before fault",
        "noise before disturbance", "prefilter design before setpoint"])
def test_of_two_defects_the_first_refusal_in_the_docstring_wins(
        library, monkeypatch, name, edits, match):
    def no_step(*args, **kwargs):
        raise AssertionError("a step was simulated")

    monkeypatch.setattr(sim, "inject_fault", no_step)
    monkeypatch.setattr(sim, "mpc_step", no_step)
    sc, edits = library[name], dict(edits)
    if "sample_time" in edits:
        K = sc.controller.K
        sc = dataclasses.replace(sc, controller=BaselineController(
            dataclasses.replace(K, Ts=edits.pop("sample_time"))))
    if "prefilter" in edits:
        sc = dataclasses.replace(sc, controller=dataclasses.replace(
            sc.controller, prefilter=edits.pop("prefilter")))
    if "setpoint" in edits:
        edits["setpoint"] = np.array(edits["setpoint"])
    with pytest.raises(ValueError, match=match):
        simulate(dataclasses.replace(sc, **edits))


def test_a_sample_time_within_1e_12_of_the_plants_is_accepted():
    K = satellite_controller()
    ctrl = BaselineController(dataclasses.replace(K, Ts=K.Ts + 5e-13))
    tr = simulate(Scenario(name="b", plant=satellite_plant(), controller=ctrl, duration=1.0))
    assert len(tr) == 4


def test_an_mpc_moves_first_by_its_own_realisations_gain(library, traces):
    # the unconstrained first move (the first n_u rows of -H^-1 F's x0
    # columns) is the realisation's K_c, for every library MPC and for case
    # 1 re-served by each ranked satellite realisation; the QP used to keep
    # the gain of the realisation its cost was built for, 120 % off rank
    # 3's, without a word
    def first_move_gap(ctrl):
        qp, K_c = ctrl.qp, ctrl.realisation.K_c
        move = -np.linalg.solve(qp.H, qp.F[:, :K_c.shape[1]])[:qp.n_u]
        return float(np.max(np.abs(move - K_c)) / np.max(np.abs(K_c)))

    case_1 = library["satellite-case-1"]
    ranked = [r for r, _ in sim._case_search("satellite")[3].ranked]
    swapped = [dataclasses.replace(case_1.controller, realisation=r) for r in ranked]
    mpcs = [sc.controller for sc in library.values() if isinstance(sc.controller, MpcController)]
    assert len(mpcs) == 7 and len(swapped) == 4
    for ctrl in mpcs + swapped:
        assert first_move_gap(ctrl) <= 1e-9
    # rank 3's replay tracks the baseline as closely as rank 1's does
    # (it used to be 23 times further off)
    base = traces["satellite-baseline"].y
    rms = [float(np.sqrt(np.mean((tr.y - base) ** 2))) for tr in (
        traces["satellite-case-1"],
        simulate(dataclasses.replace(case_1, controller=swapped[2])))]
    assert rms[1] <= 1.01 * rms[0], rms


@pytest.fixture(scope="module")
def ranked():
    """Each built-in's design model G_d and ranked realisations."""
    return {family: (found[2], [r for r, _ in found[3].ranked])
            for family, found in ((f, sim._case_search(f)) for f in ("satellite", "pendulum"))}


@pytest.mark.parametrize("name", ["satellite-case-1", "pendulum-case-1"])
def test_every_ranked_realisation_applies_the_library_inputs_while_no_bound_binds(
        library, traces, ranked, name):
    # the paper's claim, end to end: with no bound the MPC serves the
    # baseline's law whichever realisation it runs on, so the swap the
    # docs name applies the library trace's inputs.  The pendulum's
    # prefilter used to stay built on rank 1's observer: ranks 2 and 3
    # applied inputs 1.12 and 4.10 times max|u| off
    sc, want = library[name], traces[name].u_applied
    reals = ranked[name.split("-")[0]][1]
    assert len(reals) >= 3
    for i, r in enumerate(reals):
        tr = simulate(dataclasses.replace(
            sc, controller=dataclasses.replace(sc.controller, realisation=r)))
        gap = np.max(np.abs(tr.u_applied - want)) / np.max(np.abs(want))
        assert gap <= 1e-9, (i, gap)


def test_a_swapped_realisation_is_the_controller_built_on_it(library, ranked):
    # under the pendulum's bounds the realisations differ, and the swapped
    # controller is _pendulum_mpc's on the same realisation, bit for bit
    sc = library["pendulum-case-2"]
    G_d, reals = ranked["pendulum"]
    for i, r in enumerate(reals):
        swapped = simulate(dataclasses.replace(
            sc, controller=dataclasses.replace(sc.controller, realisation=r)))
        built = simulate(dataclasses.replace(sc, controller=sim._pendulum_mpc(r, G_d, True)))
        for field in dataclasses.fields(swapped):
            if field.name != "qp_ms":
                assert np.array_equal(getattr(swapped, field.name),
                                      getattr(built, field.name)), (i, field.name)


def test_loop_shift_records_its_feedthrough_on_the_design_model(library):
    G, K = pendulum_plant(), pendulum_controller()
    Gs, _ = loop_shift(G, K)
    assert G.D_K is None and np.array_equal(Gs.D_K, K.D)
    # the shifted pendulum predicts the setpoint through -B D_K; the
    # satellite's design model records no shift and its QP no known input
    for name, columns in (("pendulum-case-2", G.n_y), ("satellite-case-2", 0)):
        ctrl = library[name].controller
        qp = build_condensed_qp(ctrl.design_model, ctrl.realisation.K_c, ctrl.config)
        n = ctrl.design_model.n
        assert qp.F.shape[1] - 2 * n == qp.B.shape[1] - 2 * n == columns, name
    # refused: a feedthrough the shift would drop, and a second shift
    with pytest.raises(ValueError, match="strictly proper"):
        loop_shift(dataclasses.replace(G, D=np.full((G.n_y, G.n_u), 1e-9)), K)
    with pytest.raises(ValueError, match="already loop-shifted"):
        loop_shift(Gs, K)


def test_baseline_satellite_disturbance_calibration(traces):
    tr = traces["satellite-baseline"]
    assert not tr.diverged
    peak = np.max(np.abs(tr.u))
    npt.assert_allclose(peak, 0.15, atol=1e-3)
    npt.assert_allclose(tr.u[:, 1], 0.0, atol=1e-12)  # second torque unused
    assert abs(tr.y[-1, 0]) < 2e-4  # pointing recovered


def test_unconstrained_filter_mpc_matches_the_baseline_loop():
    # no injected lag (the satellite's own model, not the named satellite):
    # the reconstruction reproduces the original controller
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    real = search_realisations(G, K1, form="filter").ranked[0][0]
    x0 = np.array([0.02, -0.01, 0.0])
    base = simulate(Scenario(name="b", plant=satellite_plant(), duration=100.0,
                             controller=BaselineController(K1), x0=x0))
    mpc = MpcController(realisation=real, design_model=G,
                        config=MpcConfig(N=15))
    test = simulate(Scenario(name="m", plant=satellite_plant(), duration=100.0,
                             controller=mpc, x0=x0))
    assert np.max(np.abs(base.u - test.u)) < 1e-9
    assert np.max(np.abs(base.y - test.y)) < 1e-9


def test_unconstrained_predictor_mpc_matches_the_baseline_loop():
    # linear plant model so the match is exact, not just close
    G = pendulum_plant()
    K0 = pendulum_controller()
    Gs, Ks = loop_shift(G, K0)
    real = search_realisations(Gs, Ks, form="predictor", rank_by="noise").ranked[0][0]
    x0 = np.array([0.05, 0.0, 0.02, 0.0])
    base = simulate(Scenario(name="b", plant=G, duration=40.0,
                             controller=BaselineController(K0), x0=x0))
    mpc = MpcController(realisation=real, design_model=Gs,
                        config=MpcConfig(N=15))
    test = simulate(Scenario(name="m", plant=G, duration=40.0,
                             controller=mpc, x0=x0))
    assert np.max(np.abs(base.u - test.u)) < 1e-9
    assert np.max(np.abs(base.y - test.y)) < 1e-9


@pytest.mark.parametrize("form", ["filter", "predictor"])
def test_qp_ms_times_the_mpc_step_alone(monkeypatch, form):
    def slow(fn):
        def wrapped(*args):
            time.sleep(0.05)
            return fn(*args)
        return wrapped

    # the observer steps itself, outside the timed mpc_step
    for name in ("estimate", "advance"):
        monkeypatch.setattr(ObserverState, name, slow(getattr(ObserverState, name)))
    if form == "filter":
        G, K, plant = satellite_plant(), add_dipole(satellite_controller(), W=50.0), "satellite"
    else:
        G, K = loop_shift(pendulum_plant(), pendulum_controller())
        plant = pendulum_plant()
    real = search_realisations(G, K, form=form, rank_by="noise").ranked[0][0]
    mpc = MpcController(realisation=real, design_model=G,
                        config=MpcConfig(N=15))
    tr = simulate(Scenario(name="m", plant=plant, duration=4 * G.Ts, controller=mpc,
                           x0=np.full(G.n, 0.01)))
    assert len(tr) >= 4
    assert np.all(tr.qp_ms > 0.0) and np.all(tr.qp_ms < 25.0)


def test_deterministic_transfer_lag_keeps_the_loops_close(traces):
    # the Ts/10 input lag perturbs the match but only slightly
    base = traces["satellite-baseline"]
    mpc = traces["satellite-case-1"]
    peak = np.max(np.abs(base.y))
    dev = np.max(np.abs(base.y - mpc.y))
    assert dev < 0.05 * peak
    assert dev > 0.0  # the lag is real


def test_input_bounds_clamp_the_commanded_torque(traces):
    tr = traces["satellite-case-2"]
    assert np.max(np.abs(tr.u)) <= 0.11 + 1e-8
    saturated = np.abs(tr.u).max(axis=1) > 0.11 - 1e-9
    assert saturated.sum() >= 5
    npt.assert_allclose(tr.u, tr.u_applied, atol=1e-15)
    assert set(tr.qp_status) == {"optimal"}


def test_effect_cost_redistributes_torque_without_output_change(traces):
    unc = traces["satellite-case-1"]
    tr = traces["satellite-case-3"]
    assert np.max(np.abs(tr.u)) <= 0.11 + 1e-8
    # second torque takes up the load while the first rides the bound
    saturated = np.abs(tr.u[:, 0]) > 0.11 - 1e-9
    assert saturated.sum() >= 5
    assert np.max(np.abs(tr.u[saturated, 1])) > 0.005
    # output unchanged from the unconstrained run
    assert np.max(np.abs(tr.y - unc.y)) < 1e-4
    # per-step net torque deviation is small, its run total much smaller
    net_dev = tr.u.sum(axis=1) - unc.u.sum(axis=1)
    assert np.max(np.abs(net_dev)) < 2e-5
    assert abs(net_dev.sum()) < 1e-6


def test_soft_output_bound_scenario_stays_within_the_bound(traces):
    tr = traces["satellite-case-4"]
    assert not tr.diverged
    assert set(tr.qp_status) == {"optimal"}
    assert np.max(np.abs(tr.y)) <= 0.01
    assert np.max(tr.slack) <= 1e-9  # bound never activates at this level


def test_fault_recovery_switches_to_the_healthy_torque(traces):
    tr = traces["satellite-case-5"]
    after = tr.t >= 3.0
    npt.assert_allclose(tr.u_applied[after, 0], 0.0, atol=1e-15)
    assert np.max(np.abs(tr.u[after, 0])) > 0.1  # commanded, not applied
    assert np.max(np.abs(tr.u_applied)) <= 0.15 + 1e-8
    assert np.max(np.abs(tr.y)) <= 0.012
    assert abs(tr.y[-1, 0]) < 2e-4  # pointing recovered on torque 2
    assert np.max(np.abs(tr.u_applied[after, 1])) > 0.05


def test_pendulum_tracking_respects_the_softened_bounds(traces):
    tr = traces["pendulum-case-2"]
    assert not tr.diverged
    assert set(tr.qp_status) == {"optimal"}
    pos, vel, ang, rate = tr.x.T
    # 5% soft overshoot budget on each softened quantity, after t = 0.1
    late = tr.t >= 0.1
    assert np.max(np.abs(vel[late])) <= 0.7 * 1.05
    assert np.max(np.abs(ang[late])) <= 0.175 * 1.05
    assert np.max(np.abs(rate[late])) <= 0.3 * 1.05
    assert abs(pos[-1] - 1.0) < 0.01


def test_pendulum_bounds_reshape_the_unconstrained_response(traces):
    unc = traces["pendulum-case-1"]
    bnd = traces["pendulum-case-2"]
    # the unconstrained loop overshoots hard; the bounded one does not
    assert np.max(unc.y[:, 0]) > 1.2
    assert np.max(bnd.y[:, 0]) < 1.05
    assert abs(unc.y[-1, 0] - 1.0) < 0.01
    ref_cols = bnd.x_ref
    npt.assert_allclose(ref_cols[:, 1:], 0.0, atol=1e-9)  # shaped refs vanish


def test_trace_csv_round_trip(tmp_path, traces):
    tr = traces["satellite-case-4"]
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:4] == ["t", "y.0", "u.0", "u.1"]
    assert header[4:7] == ["x.0", "x.1", "x.2"]
    assert header[7:10] == ["xhat.0", "xhat.1", "xhat.2"]
    assert header[10:13] == ["qp.status", "qp.obj", "qp.nact"]
    assert header[13:] == ["slack.0"]
    assert len(rows) == len(tr) + 1
    k = 37
    row = rows[1 + k]
    assert float(row[0]) == tr.t[k]
    assert float(row[1]) == tr.y[k, 0]
    assert float(row[2]) == tr.u[k, 0]
    assert row[10] == "optimal"
    assert int(row[12]) == tr.qp_nact[k]


def _csv_per_element(tr, path):
    """Reference writer: every value through repr(float(v)), row by row."""
    header = (["t"]
              + [f"y.{i}" for i in range(tr.y.shape[1])]
              + [f"u.{i}" for i in range(tr.u.shape[1])]
              + [f"x.{i}" for i in range(tr.x.shape[1])]
              + [f"xhat.{i}" for i in range(tr.x_hat.shape[1])]
              + ["qp.status", "qp.obj", "qp.nact"]
              + [f"slack.{i}" for i in range(tr.slack.shape[1])])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(len(tr)):
            w.writerow([repr(float(tr.t[k]))]
                       + [repr(float(v)) for v in tr.y[k]]
                       + [repr(float(v)) for v in tr.u[k]]
                       + [repr(float(v)) for v in tr.x[k]]
                       + [repr(float(v)) for v in tr.x_hat[k]]
                       + [tr.qp_status[k], repr(float(tr.qp_obj[k])), str(int(tr.qp_nact[k]))]
                       + [repr(float(v)) for v in tr.slack[k]])


@pytest.mark.parametrize("name", ["satellite-case-5", "pendulum-case-2", "satellite-baseline"])
def test_trace_csv_bytes_equal_the_per_element_writer(tmp_path, traces, name):
    tr = traces[name]
    tr.to_csv(tmp_path / "fast.csv")
    _csv_per_element(tr, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # slack columns on both MPC traces, none (and no estimate) on the baseline
    assert (tr.slack.shape[1] > 0) == (name != "satellite-baseline")


def test_noisy_simulation_is_deterministic_per_seed(library):
    base = library["satellite-case-1"]
    noisy = Scenario(
        name="noisy", plant="satellite", duration=10.0,
        controller=base.controller, disturbances=base.disturbances,
        noise_sigma=[1e-5], seed=42,
    )
    a = simulate(noisy)
    b = simulate(noisy)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.u, b.u)
    other = Scenario(
        name="noisy2", plant="satellite", duration=10.0,
        controller=base.controller, disturbances=base.disturbances,
        noise_sigma=[1e-5], seed=43,
    )
    c = simulate(other)
    assert not np.array_equal(a.y, c.y)


def test_a_library_scenario_replays_identically(library, traces):
    # the controller holds the prefilter's (L1, L2), not a running filter:
    # each simulate builds a fresh one on its realisation, and its QP
    # (factor and warm-start QR memo included) is shared by every run, so a
    # second run repeats the first, and so does a run on a copy of the
    # controller with a fresh QP
    assert np.any(traces["pendulum-case-2"].x_ref)
    for name, sc in library.items():
        if not isinstance(sc.controller, MpcController):
            continue
        first, again = traces[name], simulate(sc)
        fresh = simulate(dataclasses.replace(
            sc, controller=dataclasses.replace(sc.controller)))
        for tr in (again, fresh):
            for field in ("t", "y", "u", "u_applied", "x", "x_hat", "x_ref", "qp_obj",
                          "qp_nact", "slack", "qp_iters", "qp_warm"):
                assert np.array_equal(getattr(first, field), getattr(tr, field)), (name, field)
            assert first.qp_status == tr.qp_status, name


def test_a_controller_is_frozen_and_builds_its_qp_once(library, monkeypatch):
    ctrl = library["satellite-case-5"].controller
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctrl.config = ctrl.config
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctrl.config.N = 10
    qp = ctrl.qp
    assert ctrl.qp is qp
    ref = build_condensed_qp(ctrl.design_model, ctrl.realisation.K_c, ctrl.config)
    for field in dataclasses.fields(ref):
        assert np.array_equal(getattr(qp, field.name), getattr(ref, field.name)), field.name
    # a copy of the controller builds its own, once for all its runs
    calls = []
    monkeypatch.setattr(sim, "build_condensed_qp",
                        lambda *a: calls.append(a) or build_condensed_qp(*a))
    sc = dataclasses.replace(library["satellite-case-5"],
                             controller=dataclasses.replace(ctrl))
    simulate(sc), simulate(sc)
    assert len(calls) == 1 and sc.controller.qp is not qp


def test_a_controllers_arrays_are_read_only(library):
    sat, pend = library["satellite-case-3"].controller, library["pendulum-case-2"].controller
    assert [f.name for f in dataclasses.fields(MpcController)] == [
        "realisation", "design_model", "config", "prefilter"]
    assert sat.prefilter is None and len(pend.prefilter) == 2
    for M in (sat.config.u_bounds[0], sat.design_model.A, sat.config.W, sat.qp.K_c,
              pend.config.x_bounds[1], pend.design_model.D_K, pendulum_plant_ct().B,
              *pend.prefilter):
        assert M.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            M[0] = 0.0


def test_edits_of_the_callers_arrays_reach_neither_the_qp_nor_a_replay(library, traces):
    # a controller built from arrays its caller keeps, which the caller then
    # edits before the first run: the QP and the replay are those of the
    # library's own controller with the same numbers.  The pendulum's are
    # its bounds and prefilter pair (L1, L2)
    for name in ("satellite-case-3", "pendulum-case-2"):
        base = library[name]
        ctrl = base.controller
        G, cfg = ctrl.design_model, ctrl.config
        A = G.A.copy()
        W = None if cfg.W is None else cfg.W.copy()
        bounds = {k: tuple(v.copy() for v in getattr(cfg, k))
                  for k in ("u_bounds", "y_bounds", "x_bounds") if getattr(cfg, k) is not None}
        pre = None if ctrl.prefilter is None else tuple(L.copy() for L in ctrl.prefilter)
        mine = MpcController(ctrl.realisation, dataclasses.replace(G, A=A),
                             MpcConfig(cfg.N, W, **bounds,
                                       soft_output_weight=cfg.soft_output_weight), pre)
        for M in (A, W, *(v for b in bounds.values() for v in b), *(pre or ())):
            if M is not None:
                M += 1.0
        for field in dataclasses.fields(ctrl.qp):
            assert np.array_equal(getattr(mine.qp, field.name), getattr(ctrl.qp, field.name))
        tr, want = simulate(dataclasses.replace(base, controller=mine)), traces[name]
        for field in ("y", "u_applied", "x", "x_hat", "x_ref", "qp_obj", "qp_nact"):
            assert np.array_equal(getattr(tr, field), getattr(want, field)), (name, field)
        assert tr.qp_status == want.qp_status, name


def test_concurrent_replays_share_one_controller_safely(library, traces):
    # four threads replay satellite-case-5 on one controller, so they share
    # its QP and the QR memo on its factor, switching every microsecond: a
    # memo read that paired one working set with another's QR would show
    sc = library["satellite-case-5"]
    out = [None] * 4

    def run(i):
        out[i] = simulate(sc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for tr in out:
        assert np.array_equal(tr.u_applied, traces["satellite-case-5"].u_applied)
        assert np.array_equal(tr.qp_iters, traces["satellite-case-5"].qp_iters)


def test_a_replay_reuses_its_warm_start_qr(library, monkeypatch):
    # satellite-case-5 on a copy of its controller, so the QP, its law memo
    # and its factor's QR memo are fresh: 155 complete QRs without the QR
    # memo.  The replay's law builds and solves share the QR memo and take
    # 29, and solve_qp fed every step's (f, b, warm) on a fresh factor,
    # the work the replay did before it kept laws, takes as many.
    sc = library["satellite-case-5"]
    sc = dataclasses.replace(sc, controller=dataclasses.replace(sc.controller))
    qr, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or qr(*a, **k))
    _, steps = record_steps(sc)
    assert len(calls) == 29
    qp = sc.controller.qp
    factor = factor_qp(qp.H, qp.A_ineq)
    calls.clear()
    for _, f, b, warm, _ in steps:
        solve_qp(qp.H, f, qp.A_ineq, b, factor=factor, warm=warm)
    assert len(calls) == 29


def test_divergence_is_flagged_and_the_trace_truncated():
    plant = DtStateSpace(np.array([[10.0]]), np.array([[1.0]]),
                         np.array([[1.0]]), np.array([[0.0]]), 1.0)
    dead = DtStateSpace(np.array([[0.0]]), np.array([[1.0]]),
                        np.array([[0.0]]), np.array([[0.0]]), 1.0)
    sc = Scenario(name="boom", plant=plant, duration=1000.0,
                  controller=BaselineController(dead), x0=[1.0])
    tr = simulate(sc)
    assert tr.diverged
    assert len(tr) < 1000
    assert np.all(np.isfinite(tr.x))


def test_scenario_library_names(library):
    assert set(library) == {
        "satellite-baseline",
        "satellite-case-1", "satellite-case-2", "satellite-case-3",
        "satellite-case-4", "satellite-case-5",
        "pendulum-case-1", "pendulum-case-2",
    }


def test_scenario_library_refuses_an_unknown_family(monkeypatch):
    monkeypatch.setattr(sim, "search_realisations", None)  # refused before any search
    with pytest.raises(ValueError, match="unknown scenario family 'bogus'"):
        scenario_library("bogus")


def test_scenario_library_runs_one_search_per_loop(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return search_realisations(*args, **kwargs)

    monkeypatch.setattr(sim, "search_realisations", spy)
    scenario_library()
    assert len(calls) == 2
    assert sorted(c["form"] for c in calls) == ["filter", "predictor"]


@pytest.fixture(scope="module")
def recorded(library):
    """(trace, steps) of every library MPC replay, from ``record_steps``."""
    return {name: record_steps(sc) for name, sc in library.items()
            if isinstance(sc.controller, MpcController)}


def test_warm_started_replays_match_cold_solves(recorded):
    # every control step's QP data solved again, warm-started from the set
    # the step was handed and cold: the step's own answer (from its law or
    # from solve_qp) and the warm re-solve both match the cold solve
    hits = warm_iters = cold_iters = 0
    for name, (_, steps) in recorded.items():
        gaps, scale = [], 1e-300
        for qp, f, b, warm, res in steps:
            again = solve_qp(qp.H, f, qp.A_ineq, b, factor=qp.factor, warm=warm)
            cold = solve_qp(qp.H, f, qp.A_ineq, b, factor=qp.factor)
            assert (res.solution.iterations, res.solution.warm_start) == (
                again.iterations, again.warm_start), name
            for sol in (res.solution, again):
                assert sol.status == cold.status, name
                assert len(sol.active_set) == len(cold.active_set), name
                gaps.append(np.max(np.abs(sol.x_star[:qp.n_u] - cold.x_star[:qp.n_u])))
            scale = max(scale, float(np.max(np.abs(cold.x_star[:qp.n_u]))))
            assert not cold.warm_start
            hits += again.warm_start
            warm_iters += again.iterations
            cold_iters += cold.iterations
        assert max(gaps) <= 1e-9 * scale, name
    assert hits >= 100 and warm_iters < cold_iters


def test_every_law_served_step_meets_the_kkt_conditions(recorded):
    # which path serves each step, per scenario: (law hits, summed solver
    # iterations, largest active set); a change to the QP's representation
    # that moves a step between the law and the solver fails here
    paths = {"satellite-case-1": (160, 0, 0), "satellite-case-2": (151, 16, 15),
             "satellite-case-3": (155, 15, 15), "satellite-case-4": (160, 0, 0),
             "satellite-case-5": (139, 53, 26), "pendulum-case-1": (200, 0, 0),
             "pendulum-case-2": (195, 6, 5)}
    assert sorted(recorded) == sorted(paths)
    served = 0
    for name, (tr, steps) in recorded.items():
        for qp, f, b, warm, res in steps:
            if res.from_law:
                served += 1
                assert res.solution.status == "optimal" and res.solution.iterations == 0
                assert_kkt(qp.H, f, qp.A_ineq, b, res.solution)
        assert np.array_equal(tr.qp_law, [res.from_law for *_, res in steps]), name
        got = (int(tr.qp_law.sum()), int(tr.qp_iters.sum()), int(tr.qp_nact.max()))
        assert got == paths[name], name
    assert served >= 1000


def test_a_scenario_without_faults_injects_none(library, traces, monkeypatch):
    # a fault that never fires gives the fault-free trace bit for bit, and a
    # scenario without faults never calls inject_fault
    for name in ("satellite-case-2", "pendulum-case-2"):
        sc = library[name]
        late = simulate(dataclasses.replace(sc, faults=((1e3, 0, 0.0),)))
        for field in ("u_applied", "x", "y", "qp_obj"):
            assert np.array_equal(getattr(late, field), getattr(traces[name], field)), name
    monkeypatch.setattr(sim, "inject_fault", None)
    tr = simulate(library["satellite-case-2"])
    assert np.array_equal(tr.u_applied, traces["satellite-case-2"].u_applied)
