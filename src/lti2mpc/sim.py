"""Closed-loop experiment harness.

Drives a plant (discrete linear, the satellite with its input lagged by a
fraction of the period, or the nonlinear cart-pendulum) against either the
original output-feedback controller or its observer + MPC reconstruction,
with a constant output setpoint, state-jump disturbances, measurement
noise, actuator faults and full trace capture.  Everything is
deterministic given the scenario seeds.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .models import CASE_STUDIES, PendulumParams, satellite_plant_ct
from .mpc import MpcConfig, build_condensed_qp, effect_weight, matching_cost
from .realisation import make_observer, search_realisations
from .runtime import Prefilter, build_prefilter, mpc_step
from .statespace import DtStateSpace, c2d_zoh

__all__ = [
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

# An MPC's input reaches the named satellite's truth Ts/_SATELLITE_LAG_DIV
# into the period: the deterministic transfer lag of the satellite cases.
_SATELLITE_LAG_DIV = 10


@dataclass
class BaselineController:
    """The original dynamic output feedback u = K(y - r)."""

    K: DtStateSpace


@dataclass
class MpcController:
    """Observer + constrained MPC reconstruction of a baseline controller.

    design_model is the model the observer and predictions run on: the
    disturbance-augmented plant for the filter form, the loop-shifted plant
    for the predictor form.  When it records a loop-shift feedthrough D_K
    (``design_model.D_K``) the simulation wires u_plant = u_mpc - D_K r +
    D_K y.  With a ``prefilter`` (the system ``runtime.build_prefilter``
    builds from ``realisation`` on ``design_model``, stepped afresh each
    run) the MPC tracks the state reference it emits for the scenario's
    setpoint; without one it regulates to 0 and takes no setpoint.
    """

    realisation: object
    design_model: DtStateSpace
    config: MpcConfig
    prefilter: DtStateSpace | None = None


@dataclass
class Scenario:
    """One closed-loop experiment.

    ``setpoint`` is the n_y output reference, held from t = 0; None
    regulates to 0.
    """

    name: str
    plant: object  # a CASE_STUDIES name or a DtStateSpace
    duration: float
    controller: object  # BaselineController | MpcController
    x0: np.ndarray | None = None
    setpoint: np.ndarray | None = None
    disturbances: tuple = ()  # (time, state-jump vector) pairs
    noise_sigma: np.ndarray | None = None
    seed: int = 0
    faults: tuple = ()  # (time, actuator index, locked value)

    def sample_time(self) -> float:
        if isinstance(self.plant, str):
            return CASE_STUDIES[self.plant].Ts
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
    qp_iters: np.ndarray
    qp_ms: np.ndarray  # wall time of mpc_step alone, observer excluded
    qp_warm: np.ndarray  # the previous step's active set was optimal
    diverged: bool = False

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


def _lagged_satellite_truth(Ts, div):
    """Exact step of the rigid satellite whose input switches Ts/div into
    the period: the previous input held over the first piece, the new one
    over the rest, each piece an exact ZOH step of the continuous model.

    State (theta, theta-dot, d): the physical double integrator plus the
    constant disturbance torque, which enters like the first input.
    """
    ct = satellite_plant_ct()
    tau = Ts / div
    pieces = [(d.A, d.B) for d in (c2d_zoh(ct, tau), c2d_zoh(ct, Ts - tau))]

    def advance(x, u_prev, u_now):
        xp, d = x[:2], x[2]
        for (A, B), u in zip(pieces, (u_prev, u_now)):
            xp = A @ xp + B @ u + B[:, 0] * d
        return np.concatenate([xp, [d]])

    return advance


def _initial_state(scenario, n):
    if scenario.x0 is None:
        return np.zeros(n)
    x0 = np.asarray(scenario.x0, float).ravel()
    if x0.size != n:
        raise ValueError("x0 dimension does not match the plant")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 entries must be finite")
    return x0.copy()


def simulate(scenario: Scenario) -> Trace:
    """Run one closed-loop experiment and capture the full trace.

    The truth is the plant's discrete model stepped as A x + B u, except
    the named pendulum (integrated nonlinearly) and the named satellite
    under an MPC (its input lagged by Ts/10).  An MPC whose design model
    records a loop-shift D_K commands u_mpc - D_K r + D_K y.  Refused
    (ValueError) before the first step: a duration that is not finite and
    >= 0; a mis-sized or non-finite x0, noise_sigma or setpoint; a
    setpoint for an MPC without a prefilter; a fault whose actuator index
    is not an integer in [0, n_u), whose time is not finite and >= 0, or
    whose value is not finite.
    """
    if not (math.isfinite(scenario.duration) and scenario.duration >= 0.0):
        raise ValueError(f"duration must be finite and at least 0, not {scenario.duration}")
    Ts = scenario.sample_time()
    steps = int(round(scenario.duration / Ts))
    rng = np.random.default_rng(scenario.seed)

    ctrl = scenario.controller
    is_mpc = isinstance(ctrl, MpcController)

    # plant-side setup: a built-in's design model sizes and measures its truth
    G_true: DtStateSpace = (CASE_STUDIES[scenario.plant].plant()
                            if isinstance(scenario.plant, str) else scenario.plant)
    n_x, n_y, n_u, C_true = G_true.n, G_true.n_y, G_true.n_u, G_true.C
    if is_mpc and scenario.plant == "satellite":
        advance = _lagged_satellite_truth(Ts, _SATELLITE_LAG_DIV)

    elif scenario.plant == "pendulum":
        nsub = 20
        h = Ts / nsub

        def advance(x, u_prev, u_now):
            # the commanded force is held over the whole period
            return _rk4(x, float(u_now[0]), h, nsub)

    else:
        def advance(x, u_prev, u_now):
            return G_true.A @ x + G_true.B @ u_now

    # controller-side setup ------------------------------------------------
    if is_mpc:
        G_d = ctrl.design_model
        qp = build_condensed_qp(G_d, ctrl.config)
        obs = make_observer(ctrl.realisation, G_d)
        K_c = np.atleast_2d(ctrl.realisation.K_c)
        D_K = G_d.D_K
        pre = None if ctrl.prefilter is None else Prefilter(ctrl.prefilter)
        n_slack_q = qp.n_slack // ctrl.config.N
        n_xh = G_d.n
    else:
        K = ctrl.K
        xi = np.zeros(K.n)
        n_slack_q = 0
        n_xh = 0

    if scenario.setpoint is None:
        r = np.zeros(n_y)
    else:
        r = np.asarray(scenario.setpoint, float).ravel()
        if r.size != n_y:
            raise ValueError(f"setpoint has {r.size} entries, not n_y = {n_y}")
        if not np.all(np.isfinite(r)):
            raise ValueError("setpoint entries must be finite")
        if is_mpc and ctrl.prefilter is None:
            raise ValueError("a setpoint needs an MPC controller with a prefilter")
    sigma = None
    if scenario.noise_sigma is not None:
        sigma = np.asarray(scenario.noise_sigma, float).ravel()
        if sigma.size not in (1, n_y):
            raise ValueError(f"noise_sigma has {sigma.size} entries, not 1 or n_y = {n_y}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("noise_sigma entries must be finite")
    for f_time, idx, value in scenario.faults:
        if isinstance(idx, bool) or not isinstance(idx, numbers.Integral) or not 0 <= idx < n_u:
            raise ValueError(f"fault names actuator {idx!r}, not an integer in [0, {n_u})")
        if not (math.isfinite(f_time) and f_time >= 0.0):
            raise ValueError(f"fault time must be finite and at least 0, not {f_time}")
        if not math.isfinite(value):
            raise ValueError(f"fault value must be finite, not {value}")

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

        if not is_mpc:
            e = y - r
            u_cmd = K.C @ xi + K.D @ e
            xi = K.A @ xi + K.B @ e
            ST.append("")
            obj, nact = 0.0, 0
        else:
            x_ref = pre.step(r) if pre is not None else None
            x_hat_row = obs.estimate(y)
            t_solve = time.perf_counter()
            res = mpc_step(qp, x_hat_row, x_r=x_ref, w=r, fallback_gain=K_c,
                           u_bounds=ctrl.config.u_bounds, warm=warm)
            MS[k] = 1e3 * (time.perf_counter() - t_solve)
            warm = res.solution.active_set if res.status == "optimal" else ()
            u_cmd = res.u - D_K @ r if D_K is not None else res.u
            obs.advance(u_cmd, y)
            if D_K is not None:
                u_cmd = u_cmd + D_K @ y
            x_ref_row = x_ref if x_ref is not None else np.zeros(n_xh)
            IT[k] = res.solution.iterations
            QW[k] = res.solution.warm_start
            ST.append(res.status)
            obj = res.solution.objective
            nact = res.active_count
            if n_slack_q and not res.fallback:
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

def _case_search(name: str):
    """(G, K_base, G_d) of built-in ``name`` and the search of its design
    pair, conditioned, realised and ranked as ``CASE_STUDIES`` says."""
    case = CASE_STUDIES[name]
    G, K_base, G_d, K_d = case.loop()
    return G, K_base, G_d, search_realisations(G_d, K_d, form=case.form,
                                               rank_by=case.rank_by)


def _satellite_mpc(real, G_d, cost_kind: str, u_bound=None, y_bound=None):
    """Satellite MPC controller on realisation ``real`` of the design plant
    G_d, matching K_c itself or (``cost_kind`` "effect") its effect."""
    W = effect_weight(G_d, 1e3, 1e-3) if cost_kind == "effect" else None
    cfg = MpcConfig(
        N=15, cost=matching_cost(real.K_c, W),
        u_bounds=None if u_bound is None else (-u_bound * np.ones(2),
                                               u_bound * np.ones(2)),
        y_bounds=None if y_bound is None else ([-y_bound], [y_bound]),
        soft_output_weight=1e5,
    )
    return MpcController(realisation=real, design_model=G_d, config=cfg)


def _pendulum_mpc(real, G_d, bounded: bool):
    """Pendulum MPC controller on realisation ``real`` of the loop-shifted
    design plant G_d, tracking through a prefilter on its observer."""
    inf = np.inf
    cfg = MpcConfig(
        N=15,
        cost=matching_cost(real.K_c),
        x_bounds=([-inf, -0.7, -0.175, -0.3],
                  [inf, 0.7, 0.175, 0.3]) if bounded else None,
        soft_output_weight=1e5,
    )
    L1 = np.array([[0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0]])
    pre = build_prefilter(real, G_d, L1, np.zeros((3, 2)))
    return MpcController(realisation=real, design_model=G_d, config=cfg, prefilter=pre.sys)


# satellite Cases 1-5: (rank of the realisation, cost, input bound, output
# bound, actuator faults)
_SATELLITE_CASES = (
    (1, "matching", None, None, ()),
    (1, "matching", 0.11, None, ()),
    (1, "effect", 0.11, None, ()),
    (3, "matching", 1.0, 0.01, ()),
    (1, "effect", 0.15, 0.01, ((3.0, 0, 0.0),)),
)


def scenario_library(family: str | None = None) -> dict:
    """The named experiments: satellite Cases 1-5 and pendulum Cases 1-2;
    ``family`` (a ``CASE_STUDIES`` name) builds one plant's, with one search.
    Each scenario's name starts with its family."""
    if family not in (None, *CASE_STUDIES):
        raise ValueError(f"unknown scenario family {family!r}")
    lib = {}
    if family in (None, "satellite"):
        dist = ((0.0, np.array([0.0, 0.0, SATELLITE_DIST_TORQUE])),)
        _, K_sat, G_sat, sat = _case_search("satellite")
        lib["satellite-baseline"] = Scenario(
            name="satellite-baseline", plant="satellite", duration=40.0,
            controller=BaselineController(K_sat), disturbances=dist,
        )
        for i, (rank, cost, u_bound, y_bound, faults) in enumerate(_SATELLITE_CASES, 1):
            lib[f"satellite-case-{i}"] = Scenario(
                name=f"satellite-case-{i}", plant="satellite", duration=40.0,
                controller=_satellite_mpc(sat.ranked[rank - 1][0], G_sat, cost,
                                          u_bound=u_bound, y_bound=y_bound),
                disturbances=dist, faults=faults,
            )
    if family in (None, "pendulum"):
        _, _, G_d, pend = _case_search("pendulum")
        for i, bounded in ((1, False), (2, True)):
            lib[f"pendulum-case-{i}"] = Scenario(
                name=f"pendulum-case-{i}", plant="pendulum", duration=20.0,
                controller=_pendulum_mpc(pend.ranked[0][0], G_d, bounded),
                setpoint=np.array([1.0, 0.0]),
            )
    return lib
