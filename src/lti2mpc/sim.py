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
from functools import cached_property

import numpy as np

from .models import CASE_STUDIES, PendulumParams, satellite_plant_ct
from .mpc import CondensedQp, MpcConfig, _read_only, build_condensed_qp, effect_weight
from .realisation import make_observer, search_realisations
from .runtime import build_prefilter, mpc_step
from .statespace import DtStateSpace, c2d_zoh

__all__ = [
    "BaselineController",
    "MpcController",
    "Scenario",
    "Trace",
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


@dataclass(frozen=True)
class MpcController:
    """Observer + constrained MPC reconstruction of a baseline controller.

    design_model is the model the observer and predictions run on: the
    disturbance-augmented plant for the filter form, the loop-shifted plant
    for the predictor form.  When it records a loop-shift feedthrough D_K
    (``design_model.D_K``) the simulation wires u_plant = u_mpc - D_K r +
    D_K y.  ``prefilter`` is None or the pair (L1, L2), kept as read-only float
    copies: each run builds its prefilter from them with
    ``runtime.build_prefilter(realisation, design_model, L1, L2)``, as it builds
    its observer, and tracks the state reference it emits for the setpoint;
    without one the MPC regulates to 0 and takes no setpoint.  The condensed QP
    (``qp``) is the matching cost of ``realisation.K_c`` under ``config.W``, so
    while no constraint binds the MPC reproduces the realisation's own law, and
    ``dataclasses.replace(controller, realisation=r)`` is the same MPC serving
    realisation r.  The QP is built on first use and serves every run; the
    arrays it is built from are read-only copies, so it cannot go stale.
    """

    realisation: object
    design_model: DtStateSpace
    config: MpcConfig
    prefilter: tuple | None = None

    def __post_init__(self):
        if self.prefilter is not None:
            L1, L2 = (_read_only(np.array(L, dtype=float)) for L in self.prefilter)
            object.__setattr__(self, "prefilter", (L1, L2))

    @cached_property
    def qp(self) -> CondensedQp:
        return build_condensed_qp(self.design_model, self.realisation.K_c, self.config)


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
    qp_law: np.ndarray  # served by that set's cached affine law, no solve
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
        # Python floats from tolist() repr exactly as repr(float(v)) does
        lead = np.column_stack([self.t, self.y, self.u, self.x, self.x_hat]).tolist()
        obj, nact = self.qp_obj.tolist(), self.qp_nact.tolist()
        slack = self.slack.tolist()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for k in range(len(self)):
                w.writerow([*map(repr, lead[k]), self.qp_status[k], repr(obj[k]),
                            str(nact[k]), *map(repr, slack[k])])


_PEND = PendulumParams()


def _rk4(x, u, h, nsub):
    """nsub classical RK4 steps of the frictionless cart-pendulum, pendulum
    upright at theta = 0, with the force held at u:

        xdd = (m l w^2 s - m g s c + u)/(M + m s^2),   thdd = (g s - xdd c)/l.

    It runs on Python floats; each stage and the update
    x + h/6 (k1 + 2 k2 + 2 k3 + k4) are evaluated in the order numpy would
    evaluate them on arrays (m l and m g are the leading products of the
    left-to-right terms).  The cart position enters no stage, so only the
    other three states are staged."""
    M, m, l, g = _PEND.cart_mass, _PEND.pend_mass, _PEND.length, _PEND.gravity
    ml, mg = m * l, m * g
    sin, cos = math.sin, math.cos
    p, v, th, w = (float(s) for s in x)
    h2, h6 = 0.5 * h, h / 6.0
    for _ in range(nsub):
        s, c = sin(th), cos(th)
        b1 = (ml * w * w * s - mg * s * c + u) / (M + m * s * s)
        d1 = (g * s - b1 * c) / l
        v2, th2, w2 = v + h2 * b1, th + h2 * w, w + h2 * d1
        s, c = sin(th2), cos(th2)
        b2 = (ml * w2 * w2 * s - mg * s * c + u) / (M + m * s * s)
        d2 = (g * s - b2 * c) / l
        v3, th3, w3 = v + h2 * b2, th + h2 * w2, w + h2 * d2
        s, c = sin(th3), cos(th3)
        b3 = (ml * w3 * w3 * s - mg * s * c + u) / (M + m * s * s)
        d3 = (g * s - b3 * c) / l
        v4, th4, w4 = v + h * b3, th + h * w3, w + h * d3
        s, c = sin(th4), cos(th4)
        b4 = (ml * w4 * w4 * s - mg * s * c + u) / (M + m * s * s)
        d4 = (g * s - b4 * c) / l
        p += h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        th += h6 * (w + 2.0 * w2 + 2.0 * w3 + w4)
        w += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    return np.array([p, v, th, w])


def _check_actuator(idx, n_u):
    if isinstance(idx, bool) or not isinstance(idx, numbers.Integral) or not 0 <= idx < n_u:
        raise ValueError(f"fault names actuator {idx!r}, not an integer in [0, {n_u})")


def inject_fault(u_applied: np.ndarray, t: float, faults) -> np.ndarray:
    """Override actuator channels locked at time t; a bad actuator index is a ValueError."""
    out = np.asarray(u_applied, float).copy()
    for f_time, idx, value in faults:
        _check_actuator(idx, out.size)
        if t >= f_time:
            out[idx] = value
    return out


def _lagged_satellite_truth(Ts, div):
    """Exact step x+ = A x + B_prev u_prev + B_now u_now of the rigid
    satellite whose input switches Ts/div into the period: the previous
    input held over the first piece, the new one over the rest, each piece
    an exact ZOH step of the continuous model, composed once here.

    State (theta, theta-dot, d): the physical double integrator plus the
    constant disturbance torque, which enters like the first input.
    """
    ct = satellite_plant_ct()
    tau = Ts / div
    (A1, B1), (A2, B2) = ((d.A, d.B) for d in (c2d_zoh(ct, tau), c2d_zoh(ct, Ts - tau)))
    A = np.eye(3)
    A[:2, :2] = A2 @ A1
    A[:2, 2] = A2 @ B1[:, 0] + B2[:, 0]
    B_prev, B_now = (np.vstack([M, np.zeros((1, M.shape[1]))]) for M in (A2 @ B1, B2))

    def advance(x, u_prev, u_now):
        return A @ x + B_prev @ u_prev + B_now @ u_now

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


def _check_sample_time(ctrl_Ts, Ts):
    if abs(ctrl_Ts - Ts) > 1e-12:
        raise ValueError(f"controller sample time {ctrl_Ts} is not the plant's {Ts}")


def _controller_columns(steps, n_est, n_slack):
    """The trace's columns x_hat to qp_law, in field order, at the values a
    baseline run leaves them."""
    return (np.zeros((steps, n_est)), np.zeros((steps, n_est)), [""] * steps, np.zeros(steps),
            np.zeros(steps, dtype=int), np.zeros((steps, n_slack)), np.zeros(steps, dtype=int),
            np.zeros(steps), np.zeros(steps, dtype=bool), np.zeros(steps, dtype=bool))


class _BaselineStep:
    """One run of the baseline u = K(y - r) on its own state xi."""

    takes_setpoint = True

    def __init__(self, ctrl, Ts, steps):
        _check_sample_time(ctrl.K.Ts, Ts)
        self.K, self.xi = ctrl.K, np.zeros(ctrl.K.n)
        self.columns = _controller_columns(steps, 0, 0)

    def __call__(self, k, y, r):
        K, e = self.K, y - r
        u = K.C @ self.xi + K.D @ e
        self.xi = K.A @ self.xi + K.B @ e
        return u


class _MpcStep:
    """One run of an MPC: its own warm set, observer and prefilter (the last
    two built from the controller's realisation), so the shared controller
    is never written.  Each sample steps the prefilter, takes the observer's
    estimate, runs ``mpc_step`` (timed alone into qp_ms) and advances the
    observer; a loop-shift D_K commands u_mpc - D_K r + D_K y.  It fills
    x_hat, x_ref and the QP columns."""

    def __init__(self, ctrl, Ts, steps):
        G_d = ctrl.design_model
        _check_sample_time(G_d.Ts, Ts)
        self.qp, self.N, self.D_K = ctrl.qp, ctrl.config.N, G_d.D_K
        self.warm = ()  # working-set guess: the last optimal step's active set
        self.obs = make_observer(ctrl.realisation, G_d)
        self.pre = (None if ctrl.prefilter is None
                    else build_prefilter(ctrl.realisation, G_d, *ctrl.prefilter))
        self.takes_setpoint = self.pre is not None
        self.columns = _controller_columns(steps, G_d.n, self.qp.n_slack // self.N)

    def __call__(self, k, y, r):
        qp, D_K = self.qp, self.D_K
        XH, XR, ST, OBJ, NACT, SL, IT, MS, QW, QL = self.columns
        x_ref = None
        if self.pre is not None:
            XR[k] = x_ref = self.pre.step(r)
        XH[k] = x_hat = self.obs.estimate(y)
        t_solve = time.perf_counter()
        res = mpc_step(qp, x_hat, x_r=x_ref, w=r, warm=self.warm)
        MS[k] = 1e3 * (time.perf_counter() - t_solve)
        self.warm = res.solution.active_set if res.status == "optimal" else ()
        u = res.u - D_K @ r if D_K is not None else res.u
        self.obs.advance(u, y)
        ST[k], OBJ[k], NACT[k] = res.status, res.solution.objective, res.active_count
        IT[k], QW[k], QL[k] = res.solution.iterations, res.solution.warm_start, res.from_law
        if SL.shape[1] and not res.fallback:
            SL[k] = qp.slack_values(res.solution.x_star).reshape(self.N, -1).max(axis=0)
        return u + D_K @ y if D_K is not None else u


def simulate(scenario: Scenario) -> Trace:
    """Run one closed-loop experiment and capture the full trace.

    The truth is the plant's discrete model stepped as A x + B u, except
    the named pendulum (integrated nonlinearly) and the named satellite
    under an MPC (its input lagged by Ts/10).  Before the first step the
    controller becomes one run's step object (``_BaselineStep`` or
    ``_MpcStep``), which holds the run's controller state and fills the
    trace's estimate, reference and QP columns; ``simulate`` keeps the
    truth, disturbances, noise, faults and divergence.  Refused (ValueError)
    before the first step, in this order: a duration that is not finite and
    >= 0; a controller (the baseline's K, an MPC's design model) whose sample
    time is not the plant's within 1e-12; an MPC prefilter (L1, L2) that
    ``runtime.build_prefilter`` refuses; a mis-sized or non-finite setpoint,
    or a setpoint for an MPC without a prefilter; a mis-sized or non-finite
    noise_sigma; a fault whose actuator index is not an integer in [0, n_u),
    whose time is not finite and >= 0, or whose value is not finite; a
    disturbance whose time is not finite and >= 0, or whose state jump is not
    n_x finite entries; a mis-sized or non-finite x0.
    """
    if not (math.isfinite(scenario.duration) and scenario.duration >= 0.0):
        raise ValueError(f"duration must be finite and at least 0, not {scenario.duration}")
    Ts = scenario.sample_time()
    steps = int(round(scenario.duration / Ts))
    rng = np.random.default_rng(scenario.seed)
    is_mpc = isinstance(scenario.controller, MpcController)
    ctrl_step = (_MpcStep if is_mpc else _BaselineStep)(scenario.controller, Ts, steps)

    # a built-in's design model sizes and measures its truth
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

    if scenario.setpoint is None:
        r = np.zeros(n_y)
    else:
        r = np.asarray(scenario.setpoint, float).ravel()
        if r.size != n_y:
            raise ValueError(f"setpoint has {r.size} entries, not n_y = {n_y}")
        if not np.all(np.isfinite(r)):
            raise ValueError("setpoint entries must be finite")
        if not ctrl_step.takes_setpoint:
            raise ValueError("a setpoint needs an MPC controller with a prefilter")
    sigma = None
    if scenario.noise_sigma is not None:
        sigma = np.asarray(scenario.noise_sigma, float).ravel()
        if sigma.size not in (1, n_y):
            raise ValueError(f"noise_sigma has {sigma.size} entries, not 1 or n_y = {n_y}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("noise_sigma entries must be finite")
    faults = tuple(scenario.faults)
    for f_time, idx, value in faults:
        _check_actuator(idx, n_u)
        if not (math.isfinite(f_time) and f_time >= 0.0):
            raise ValueError(f"fault time must be finite and at least 0, not {f_time}")
        if not math.isfinite(value):
            raise ValueError(f"fault value must be finite, not {value}")

    dist = sorted(((float(t), np.asarray(v, float).ravel())
                   for t, v in scenario.disturbances), key=lambda p: p[0])
    for d_time, jump in dist:
        if not (math.isfinite(d_time) and d_time >= 0.0):
            raise ValueError(f"disturbance time must be finite and at least 0, not {d_time}")
        if jump.size != n_x:
            raise ValueError(f"disturbance jump has {jump.size} entries, not n_x = {n_x}")
        if not np.all(np.isfinite(jump)):
            raise ValueError("disturbance jump entries must be finite")
    d_idx = 0

    x = _initial_state(scenario, n_x)
    u_prev = np.zeros(n_u)
    T = np.zeros(steps)
    Y, U, UA, X = (np.zeros((steps, m)) for m in (n_y, n_u, n_u, n_x))
    diverged = False

    for k in range(steps):
        t = k * Ts
        while d_idx < len(dist) and dist[d_idx][0] <= t + 1e-12:
            x = x + dist[d_idx][1]
            d_idx += 1

        y = C_true @ x
        if sigma is not None:
            y = y + sigma * rng.standard_normal(n_y)
        u_cmd = ctrl_step(k, y, r)
        u_app = inject_fault(u_cmd, t, faults) if faults else u_cmd
        T[k], Y[k], U[k], UA[k], X[k] = t, y, u_cmd, u_app, x

        with np.errstate(over="ignore", invalid="ignore"):
            x = advance(x, inject_fault(u_prev, t, faults) if faults else u_prev, u_app)
        u_prev = u_app
        if not np.all(np.isfinite(x)):
            diverged = True
            k += 1
            break

    n = k if diverged else steps
    return Trace(T[:n], Y[:n], U[:n], UA[:n], X[:n], *(c[:n] for c in ctrl_step.columns),
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
    cfg = MpcConfig(
        N=15, W=effect_weight(G_d, 1e3, 1e-3) if cost_kind == "effect" else None,
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
        x_bounds=([-inf, -0.7, -0.175, -0.3],
                  [inf, 0.7, 0.175, 0.3]) if bounded else None,
        soft_output_weight=1e5,
    )
    L1 = np.array([[0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0]])
    return MpcController(real, G_d, cfg, prefilter=(L1, np.zeros((3, 2))))


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
