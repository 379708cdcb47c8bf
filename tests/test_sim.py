"""Closed-loop simulation harness: plants, scenarios, traces, CSV export."""

import csv
import dataclasses
import time

import numpy as np
import numpy.testing as npt
import pytest

from lti2mpc import runtime, sim
from lti2mpc.models import (
    SATELLITE_TS,
    pendulum_controller,
    pendulum_plant,
    pendulum_plant_ct,
    satellite_controller,
    satellite_plant,
)
from lti2mpc.mpc import MpcConfig, build_condensed_qp, matching_cost
from lti2mpc.qp import solve_qp
from lti2mpc.realisation import ObserverState, search_realisations
from lti2mpc.sim import (
    BaselineController,
    MpcController,
    SATELLITE_DIST_TORQUE,
    Scenario,
    _lagged_satellite_truth,
    _rk4,
    inject_fault,
    pendulum_dynamics,
    pendulum_energy,
    scenario_library,
    simulate,
)
from lti2mpc.statespace import DtStateSpace, add_dipole, loop_shift


@pytest.fixture(scope="module")
def library():
    return scenario_library()


@pytest.fixture(scope="module")
def traces(library):
    wanted = ["satellite-baseline", "satellite-case-1", "satellite-case-2",
              "satellite-case-3", "satellite-case-4", "satellite-case-5",
              "pendulum-case-1", "pendulum-case-2"]
    return {name: simulate(library[name]) for name in wanted}


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


def test_inject_fault_locks_channels_from_the_fault_time():
    faults = ((3.0, 0, 0.0), (5.0, 1, -0.2))
    u = np.array([0.4, 0.6])
    npt.assert_allclose(inject_fault(u, 2.9, faults), [0.4, 0.6])
    npt.assert_allclose(inject_fault(u, 3.0, faults), [0.0, 0.6])
    npt.assert_allclose(inject_fault(u, 7.0, faults), [0.0, -0.2])
    npt.assert_allclose(u, [0.4, 0.6])  # input untouched
    with pytest.raises(ValueError):
        inject_fault(u, 10.0, ((1.0, 5, 0.0),))


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


def test_loop_shift_records_its_feedthrough_on_the_design_model(library):
    G, K = pendulum_plant(), pendulum_controller()
    Gs, _ = loop_shift(G, K)
    assert G.D_K is None and np.array_equal(Gs.D_K, K.D)
    # the shifted pendulum predicts the setpoint through -B D_K; the
    # satellite's design model records no shift and its QP no known input
    for name, columns in (("pendulum-case-2", G.n_y), ("satellite-case-2", 0)):
        ctrl = library[name].controller
        qp = build_condensed_qp(ctrl.design_model, ctrl.config)
        assert qp.f_w.shape[1] == qp.b_w.shape[1] == columns, name
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
                        config=MpcConfig(N=15, cost=matching_cost(real.K_c)))
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
                        config=MpcConfig(N=15, cost=matching_cost(real.K_c)))
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
                        config=MpcConfig(N=15, cost=matching_cost(real.K_c)))
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
    # the controller holds the prefilter's system, not a running filter:
    # each simulate steps a fresh one, so a second run repeats the first
    first, again = traces["pendulum-case-2"], simulate(library["pendulum-case-2"])
    assert np.any(first.x_ref)
    for field in ("t", "y", "u", "u_applied", "x", "x_hat", "x_ref", "qp_obj",
                  "qp_nact", "slack", "qp_iters", "qp_warm"):
        assert np.array_equal(getattr(first, field), getattr(again, field)), field
    assert first.qp_status == again.qp_status


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


def test_scenario_library_runs_one_search_per_loop(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return search_realisations(*args, **kwargs)

    monkeypatch.setattr(sim, "search_realisations", spy)
    scenario_library()
    assert len(calls) == 2
    assert sorted(c["form"] for c in calls) == ["filter", "predictor"]


def test_warm_started_replays_match_cold_solves(monkeypatch, library, traces):
    def cold(H, f, A=None, b=None, *, factor=None, warm=()):
        return solve_qp(H, f, A, b, factor=factor)

    monkeypatch.setattr(runtime, "solve_qp", cold)
    hits = warm_iters = cold_iters = 0
    for name, warm in traces.items():
        ref = simulate(library[name])
        scale = max(float(np.max(np.abs(ref.u_applied))), 1e-300)
        assert np.max(np.abs(warm.u_applied - ref.u_applied)) <= 1e-9 * scale, name
        assert warm.qp_status == ref.qp_status, name
        assert np.array_equal(warm.qp_nact, ref.qp_nact), name
        assert not ref.qp_warm.any()
        hits += int(warm.qp_warm.sum())
        warm_iters += int(warm.qp_iters.sum())
        cold_iters += int(ref.qp_iters.sum())
    assert hits >= 100 and warm_iters < cold_iters
