"""Closed-loop experiment harness.

Drives a plant (discrete linear, the exact piecewise-ZOH satellite, or the
nonlinear cart-pendulum) against either the original output-feedback
controller or its observer + MPC reconstruction, with reference programs,
state-jump disturbances, measurement noise, actuator faults and full trace
capture.  Everything is deterministic given the scenario seeds.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .models import (
    PENDULUM_TS,
    PendulumParams,
    SATELLITE_TS,
    pendulum_controller,
    pendulum_plant,
    satellite_controller,
    satellite_plant,
    satellite_plant_ct,
)
from .mpc import MpcConfig, build_condensed_qp, effect_weight, matching_cost
from .realisation import SearchResult, _form, search_realisations
from .runtime import Prefilter, build_prefilter, make_observer, mpc_step
from .statespace import DtStateSpace, add_dipole, c2d_zoh, loop_shift

__all__ = [
    "ReferenceProgram",
    "BaselineController",
    "MpcController",
    "Scenario",
    "Trace",
    "pendulum_dynamics",
    "pendulum_energy",
    "inject_fault",
    "simulate",
    "scenario_library",
    "SATELLITE_DIST_TORQUE",
]

# Disturbance torque used by the satellite scenarios.  The value is
# calibrated, not taken from a table: it makes the baseline controller's
# peak commanded torque 0.15, so the 0.11 input bound of the constrained
# cases genuinely saturates during the transient.
SATELLITE_DIST_TORQUE = 0.104325


@dataclass
class ReferenceProgram:
    """Piecewise-linear per-output reference r(t).

    points is a sequence of (time, vector); between points the value is
    interpolated linearly, before the first and after the last it holds.
    """

    points: tuple

    def __post_init__(self):
        pts = [(float(t), np.atleast_1d(np.asarray(v, float))) for t, v in self.points]
        pts.sort(key=lambda p: p[0])
        if not pts:
            raise ValueError("reference program needs at least one point")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def dim(self):
        return self.points[0][1].size

    def __call__(self, t: float) -> np.ndarray:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts[:-1], pts[1:]):
            if t0 <= t <= t1:
                if t1 == t0:
                    return v1
                a = (t - t0) / (t1 - t0)
                return (1.0 - a) * v0 + a * v1
        return pts[-1][1]


@dataclass
class BaselineController:
    """The original dynamic output feedback u = K(y - r)."""

    K: DtStateSpace


@dataclass
class MpcController:
    """Observer + constrained MPC reconstruction of a baseline controller.

    design_model is the model the observer and predictions run on: the
    disturbance-augmented plant for the filter form, the loop-shifted plant
    for the predictor form.  D_K is the original controller feedthrough
    when loop-shifting is used (the runtime then wires
    u_plant = u_mpc + D_K y and subtracts D_K r from the command, in
    either form).  N_div activates the deterministic-transfer lag of one
    Ts/N_div subdivision (filter form only).
    """

    realisation: object
    design_model: DtStateSpace
    config: MpcConfig
    D_K: np.ndarray | None = None
    N_div: int | None = None
    prefilter_kind: str | None = None
    prefilter_plant: DtStateSpace | None = None
    L1: np.ndarray | None = None
    L2: np.ndarray | None = None


@dataclass
class Scenario:
    name: str
    plant: object  # "satellite" | "pendulum" | DtStateSpace
    duration: float
    controller: object  # BaselineController | MpcController
    Ts: float | None = None
    x0: np.ndarray | None = None
    references: ReferenceProgram | None = None
    disturbances: tuple = ()  # (time, state-jump vector) pairs
    noise_sigma: np.ndarray | None = None
    seed: int = 0
    faults: tuple = ()  # (time, actuator index, locked value)

    def sample_time(self) -> float:
        if self.plant == "satellite":
            return SATELLITE_TS
        if self.plant == "pendulum":
            return PENDULUM_TS
        if self.Ts is not None:
            return self.Ts
        return self.plant.Ts


@dataclass
class Trace:
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray          # commanded inputs
    u_applied: np.ndarray  # after fault overrides
    x: np.ndarray
    x_hat: np.ndarray
    x_ref: np.ndarray
    qp_status: list
    qp_obj: np.ndarray
    qp_nact: np.ndarray
    slack: np.ndarray
    qp_iters: np.ndarray = None
    qp_ms: np.ndarray = None  # wall time of mpc_step alone, observer excluded
    qp_warm: np.ndarray = None  # the previous step's active set was optimal
    diverged: bool = False

    def __post_init__(self):
        if self.qp_iters is None:
            self.qp_iters = np.zeros(self.t.size, dtype=int)
        if self.qp_ms is None:
            self.qp_ms = np.zeros(self.t.size)
        if self.qp_warm is None:
            self.qp_warm = np.zeros(self.t.size, dtype=bool)

    def __len__(self):
        return self.t.size

    def to_csv(self, path):
        """Stable column order: t, y.*, u.*, x.*, xhat.*, qp.status,
        qp.obj, qp.nact, slack.*."""
        header = (["t"]
                  + [f"y.{i}" for i in range(self.y.shape[1])]
                  + [f"u.{i}" for i in range(self.u.shape[1])]
                  + [f"x.{i}" for i in range(self.x.shape[1])]
                  + [f"xhat.{i}" for i in range(self.x_hat.shape[1])]
                  + ["qp.status", "qp.obj", "qp.nact"]
                  + [f"slack.{i}" for i in range(self.slack.shape[1])])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for k in range(len(self)):
                row = ([repr(float(self.t[k]))]
                       + [repr(float(v)) for v in self.y[k]]
                       + [repr(float(v)) for v in self.u[k]]
                       + [repr(float(v)) for v in self.x[k]]
                       + [repr(float(v)) for v in self.x_hat[k]]
                       + [self.qp_status[k],
                          repr(float(self.qp_obj[k])),
                          str(int(self.qp_nact[k]))]
                       + [repr(float(v)) for v in self.slack[k]])
                w.writerow(row)


_PEND = PendulumParams()


def pendulum_dynamics(state, force) -> np.ndarray:
    """Frictionless cart-pendulum equations of motion, pendulum upright at
    theta = 0:  xdd = (m l w^2 s - m g s c + u)/(M + m s^2),
    thdd = (g s - xdd c)/l."""
    _, xd, th, thd = state
    return np.array(_pendulum_rhs(xd, th, thd, force))


def _pendulum_rhs(xd, th, thd, force):
    """pendulum_dynamics on scalars: (xd, xdd, thd, thdd)."""
    M, m, l, g = _PEND.cart_mass, _PEND.pend_mass, _PEND.length, _PEND.gravity
    s, c = math.sin(th), math.cos(th)
    xdd = (m * l * thd * thd * s - m * g * s * c + force) / (M + m * s * s)
    return xd, xdd, thd, (g * s - xdd * c) / l


def pendulum_energy(state) -> float:
    """Total mechanical energy (drift gauge for the integrator tests)."""
    _, xd, th, thd = state
    M, m, l, g = _PEND.cart_mass, _PEND.pend_mass, _PEND.length, _PEND.gravity
    ke = 0.5 * (M + m) * xd * xd + m * l * xd * thd * np.cos(th) \
        + 0.5 * m * l * l * thd * thd
    return float(ke + m * g * l * np.cos(th))


def _rk4(x, u, h, nsub):
    """nsub classical RK4 steps of pendulum_dynamics with the force held at u,
    on Python floats; each stage and the update x + h/6 (k1 + 2 k2 + 2 k3 + k4)
    are evaluated in the order numpy would evaluate them on arrays.  The cart
    position enters no stage, so only the other three states are staged."""
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


def inject_fault(u_applied: np.ndarray, t: float, faults) -> np.ndarray:
    """Override actuator channels that are locked at time t."""
    out = np.asarray(u_applied, float).copy()
    for f_time, idx, value in faults:
        if t >= f_time:
            if not 0 <= idx < out.size:
                raise ValueError(f"fault names unknown actuator {idx}")
            out[idx] = value
    return out


class _SatelliteTruth:
    """Exact piecewise-ZOH integration of the rigid satellite.

    State (theta, theta-dot, d): the physical double integrator plus the
    constant disturbance torque.  With a multi-rate controller the input
    switches Ts/N_div into the period; both segments are exact ZOH pieces
    of the continuous model.
    """

    def __init__(self, Ts, N_div=None):
        ct = satellite_plant_ct()
        if N_div:
            tau = Ts / N_div
            d1, d2 = c2d_zoh(ct, tau), c2d_zoh(ct, Ts - tau)
            self.pieces = ((d1.A, d1.B), (d2.A, d2.B))
        else:
            d = c2d_zoh(ct, Ts)
            self.pieces = ((d.A, d.B),)

    def step(self, x, u_prev, u_now):
        xp, d = x[:2].copy(), x[2]
        us = (u_prev, u_now) if len(self.pieces) == 2 else (u_now,)
        for (A, B), u in zip(self.pieces, us):
            xp = A @ xp + B @ u + B[:, 0] * d
        return np.concatenate([xp, [d]])


def _initial_state(scenario, n):
    if scenario.x0 is None:
        return np.zeros(n)
    x0 = np.asarray(scenario.x0, float).ravel()
    if x0.size != n:
        raise ValueError("x0 dimension does not match the plant")
    return x0.copy()


def simulate(scenario: Scenario) -> Trace:
    """Run one closed-loop experiment and capture the full trace."""
    Ts = scenario.sample_time()
    steps = int(round(scenario.duration / Ts))
    rng = np.random.default_rng(scenario.seed)

    ctrl = scenario.controller
    is_mpc = isinstance(ctrl, MpcController)

    # plant-side setup -----------------------------------------------------
    if scenario.plant == "satellite":
        N_div = ctrl.N_div if is_mpc else None
        advance = _SatelliteTruth(Ts, N_div).step
        n_x, n_y, n_u = 3, 1, 2
        C_true = satellite_plant().C

    elif scenario.plant == "pendulum":
        n_x, n_y, n_u = 4, 2, 1
        C_true = pendulum_plant().C
        nsub = 20
        h = Ts / nsub

        def advance(x, u_prev, u_now):
            # the commanded force is held over the whole period
            return _rk4(x, float(u_now[0]), h, nsub)

    else:
        G_true: DtStateSpace = scenario.plant
        n_x, n_y, n_u = G_true.n, G_true.n_y, G_true.n_u
        C_true = G_true.C

        def advance(x, u_prev, u_now):
            return G_true.A @ x + G_true.B @ u_now

    # controller-side setup ------------------------------------------------
    if is_mpc:
        G_d = ctrl.design_model
        qp = build_condensed_qp(G_d, ctrl.config)
        obs = make_observer(ctrl.realisation, G_d)
        K_c = np.atleast_2d(ctrl.realisation.K_c)
        form = _form(ctrl.realisation.form)
        D_K = None if ctrl.D_K is None else np.atleast_2d(ctrl.D_K)
        pre: Prefilter | None = None
        if ctrl.prefilter_kind is not None:
            pre = build_prefilter(
                ctrl.prefilter_kind,
                ctrl.prefilter_plant if ctrl.prefilter_plant is not None else G_d,
                obs.K_f, K_c=K_c, D_K=ctrl.D_K, L1=ctrl.L1, L2=ctrl.L2,
            )
        n_slack_q = qp.n_slack // ctrl.config.N if ctrl.config.N else 0
        n_xh = G_d.n
    else:
        K = ctrl.K
        xi = np.zeros(K.n)
        n_slack_q = 0
        n_xh = 0

    refs = scenario.references
    n_r = refs.dim if refs is not None else n_y
    sigma = None
    if scenario.noise_sigma is not None:
        sigma = np.asarray(scenario.noise_sigma, float).ravel()

    dist = sorted(((float(t), np.asarray(v, float).ravel())
                   for t, v in scenario.disturbances), key=lambda p: p[0])
    d_idx = 0

    x = _initial_state(scenario, n_x)
    u_prev = np.zeros(n_u)

    T = np.zeros(steps)
    Y = np.zeros((steps, n_y))
    U = np.zeros((steps, n_u))
    UA = np.zeros((steps, n_u))
    X = np.zeros((steps, n_x))
    XH = np.zeros((steps, n_xh))
    XR = np.zeros((steps, n_xh))
    ST: list = []
    OBJ = np.zeros(steps)
    NACT = np.zeros(steps, dtype=int)
    SL = np.zeros((steps, n_slack_q))
    IT = np.zeros(steps, dtype=int)
    MS = np.zeros(steps)
    QW = np.zeros(steps, dtype=bool)
    warm = ()  # working-set guess: the last optimal step's active set
    diverged = False

    for k in range(steps):
        t = k * Ts
        while d_idx < len(dist) and dist[d_idx][0] <= t + 1e-12:
            x = x + dist[d_idx][1]
            d_idx += 1

        y = C_true @ x
        if sigma is not None:
            y = y + sigma * rng.standard_normal(n_y)
        r = refs(t) if refs is not None else np.zeros(n_r)

        if not is_mpc:
            e = y - r[:n_y]
            u_cmd = K.C @ xi + K.D @ e
            xi = K.A @ xi + K.B @ e
            ST.append("")
            obj, nact = 0.0, 0
        else:
            x_ref = pre.step(r) if pre is not None else None
            x_hat_row = form.estimate(obs, y)
            t_solve = time.perf_counter()
            res = mpc_step(qp, x_hat_row,
                           x_r=x_ref if ctrl.config.tracking == "reference" else None,
                           w=r if ctrl.config.known_input is not None else None,
                           fallback_gain=K_c, u_bounds=ctrl.config.u_bounds,
                           warm=warm)
            MS[k] = 1e3 * (time.perf_counter() - t_solve)
            warm = res.solution.active_set if res.status == "optimal" else ()
            u_cmd = res.u - D_K @ r if D_K is not None else res.u
            form.advance(obs, u_cmd, y)
            if D_K is not None:
                u_cmd = u_cmd + D_K @ y
            x_ref_row = x_ref if x_ref is not None else np.zeros(n_xh)
            IT[k] = 0 if res.solution is None else res.solution.iterations
            QW[k] = res.solution is not None and res.solution.warm_start
            ST.append(res.status)
            obj = res.solution.objective if res.solution is not None else np.nan
            nact = res.active_count
            if n_slack_q and res.solution is not None and not res.fallback:
                s_all = qp.slack_values(res.solution.x_star).reshape(
                    ctrl.config.N, n_slack_q)
                slack_row = s_all.max(axis=0)
            else:
                slack_row = np.zeros(n_slack_q)

        u_app = inject_fault(u_cmd, t, scenario.faults)

        T[k] = t
        Y[k] = y
        U[k] = u_cmd
        UA[k] = u_app
        X[k] = x
        if n_xh:
            XH[k] = x_hat_row
            XR[k] = x_ref_row
        OBJ[k] = obj
        NACT[k] = nact
        if n_slack_q:
            SL[k] = slack_row

        with np.errstate(over="ignore", invalid="ignore"):
            x = advance(x, inject_fault(u_prev, t, scenario.faults), u_app)
        u_prev = u_app
        if not np.all(np.isfinite(x)):
            diverged = True
            k += 1
            break

    n = k if diverged else steps
    return Trace(T[:n], Y[:n], U[:n], UA[:n], X[:n], XH[:n], XR[:n], ST[:n],
                 OBJ[:n], NACT[:n], SL[:n], IT[:n], MS[:n], QW[:n],
                 diverged=diverged)


# -- canned experiments ------------------------------------------------------

def _satellite_mpc(found: SearchResult, rank: int, cost_kind: str,
                   u_bound=None, y_bound=None, N_div=10, N=15):
    """Satellite MPC controller using the rank-th best realisation (1-based)
    of ``found``, the product-ranked filter-form search of the satellite
    loop with the W = 50 dipole."""
    G = satellite_plant()
    real = found.ranked[rank - 1][0]
    if cost_kind == "matching":
        cost = matching_cost(real.K_c)
    elif cost_kind == "effect":
        cost = matching_cost(real.K_c, effect_weight(G, 1e3, 1e-3))
    else:
        raise ValueError(f"unknown cost kind {cost_kind!r}")
    cfg = MpcConfig(
        N=N, cost=cost,
        u_bounds=None if u_bound is None else (-u_bound * np.ones(2),
                                               u_bound * np.ones(2)),
        y_bounds=None if y_bound is None else ([-y_bound], [y_bound]),
        soft_output_weight=1e5,
    )
    return MpcController(realisation=real, design_model=G, config=cfg,
                         N_div=N_div)


def _pendulum_mpc(found: SearchResult, bounded: bool, N=15):
    """Pendulum MPC controller on the best realisation of ``found``, the
    noise-ranked predictor-form search of the loop-shifted pendulum loop."""
    G = pendulum_plant()
    K = pendulum_controller()
    Gs, _ = loop_shift(G, K)
    real = found.ranked[0][0]
    inf = np.inf
    cfg = MpcConfig(
        N=N,
        cost=matching_cost(real.K_c),
        x_bounds=([-inf, -0.7, -0.175, -0.3],
                  [inf, 0.7, 0.175, 0.3]) if bounded else None,
        soft_output_weight=1e5,
        tracking="reference",
        known_input=-Gs.B @ K.D,
    )
    L1 = np.array([[0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0]])
    L2 = np.zeros((3, 2))
    return MpcController(
        realisation=real, design_model=Gs, config=cfg, D_K=K.D,
        prefilter_kind="shaped", prefilter_plant=G, L1=L1, L2=L2,
    )


def scenario_library() -> dict:
    """The named experiments: satellite Cases 1-5 and pendulum Cases 1-2."""
    dist = ((0.0, np.array([0.0, 0.0, SATELLITE_DIST_TORQUE])),)
    K_sat = add_dipole(satellite_controller(), W=50.0)
    sat = search_realisations(satellite_plant(), K_sat, form="filter",
                              rank_by="product")
    pend = search_realisations(*loop_shift(pendulum_plant(), pendulum_controller()),
                               form="predictor", rank_by="noise")
    lib = {}
    lib["satellite-baseline"] = Scenario(
        name="satellite-baseline", plant="satellite", duration=40.0,
        controller=BaselineController(K_sat), disturbances=dist,
    )
    lib["satellite-case-1"] = Scenario(
        name="satellite-case-1", plant="satellite", duration=40.0,
        controller=_satellite_mpc(sat, 1, "matching"), disturbances=dist,
    )
    lib["satellite-case-2"] = Scenario(
        name="satellite-case-2", plant="satellite", duration=40.0,
        controller=_satellite_mpc(sat, 1, "matching", u_bound=0.11),
        disturbances=dist,
    )
    lib["satellite-case-3"] = Scenario(
        name="satellite-case-3", plant="satellite", duration=40.0,
        controller=_satellite_mpc(sat, 1, "effect", u_bound=0.11),
        disturbances=dist,
    )
    lib["satellite-case-4"] = Scenario(
        name="satellite-case-4", plant="satellite", duration=40.0,
        controller=_satellite_mpc(sat, 3, "matching", u_bound=1.0, y_bound=0.01),
        disturbances=dist,
    )
    lib["satellite-case-5"] = Scenario(
        name="satellite-case-5", plant="satellite", duration=40.0,
        controller=_satellite_mpc(sat, 1, "effect", u_bound=0.15, y_bound=0.01),
        disturbances=dist,
        faults=((3.0, 0, 0.0),),
    )
    step_ref = ReferenceProgram(((0.0, np.array([1.0, 0.0])),))
    lib["pendulum-case-1"] = Scenario(
        name="pendulum-case-1", plant="pendulum", duration=20.0,
        controller=_pendulum_mpc(pend, bounded=False), references=step_ref,
    )
    lib["pendulum-case-2"] = Scenario(
        name="pendulum-case-2", plant="pendulum", duration=20.0,
        controller=_pendulum_mpc(pend, bounded=True), references=step_ref,
    )
    return lib
