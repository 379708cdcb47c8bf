"""Online controller machinery.

Observer stepping in both forms, the reference prefilters and the
per-sample MPC control step.

The filter observer splits each sample into a measurement update (gives
x-hat(k|k), from which the control is computed) and a time update (needs
the control just applied); the predictor observer advances in one shot and
the control for step k is read from the stored x-hat(k|k-1) before the
update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mpc import CondensedQp
from .qp import QpSolution, solve_qp
from .statespace import DtStateSpace

__all__ = [
    "ObserverState",
    "Prefilter",
    "MpcStepResult",
    "make_observer",
    "filter_measurement_update",
    "filter_time_update",
    "predictor_observer_step",
    "build_prefilter",
    "mpc_step",
]


@dataclass
class ObserverState:
    """Mutable observer instance: design model, gains, current estimate.

    x_hat always means x-hat(k|k-1).  For the filter form, x_corr holds the
    measurement-updated estimate between the two half-steps of a sample.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    K_f: np.ndarray
    K_c: np.ndarray
    form: str
    x_hat: np.ndarray
    x_corr: np.ndarray | None = None


def make_observer(realisation, G: DtStateSpace, x0=None) -> ObserverState:
    """Observer from an ObserverRealisation and its design model.

    For the predictor form pass the loop-shifted model when loop-shifting
    was used; the design model must be strictly proper either way.
    """
    if np.any(G.D != 0.0):
        raise ValueError("observer design model must be strictly proper")
    x = np.zeros(G.n) if x0 is None else np.asarray(x0, float).ravel().copy()
    return ObserverState(
        A=G.A, B=G.B, C=G.C,
        K_f=np.atleast_2d(realisation.K_f),
        K_c=np.atleast_2d(realisation.K_c),
        form=realisation.form,
        x_hat=x,
    )


def filter_measurement_update(s: ObserverState, y) -> np.ndarray:
    """x-hat(k|k) = (I - K_f C) x-hat(k|k-1) + K_f y(k)."""
    if s.form != "filter":
        raise ValueError("measurement update is a filter-form operation")
    y = np.asarray(y, float).ravel()
    s.x_corr = s.x_hat - s.K_f @ (s.C @ s.x_hat) + s.K_f @ y
    return s.x_corr


def filter_time_update(s: ObserverState, u) -> np.ndarray:
    """x-hat(k+1|k) = A x-hat(k|k) + B u(k); consumes the pending update."""
    if s.x_corr is None:
        raise ValueError("time update called before measurement update")
    u = np.asarray(u, float).ravel()
    s.x_hat = s.A @ s.x_corr + s.B @ u
    s.x_corr = None
    return s.x_hat


def predictor_observer_step(s: ObserverState, u_now, y_now) -> np.ndarray:
    """x-hat(k+1|k) = (A - K_f C) x-hat(k|k-1) + B u(k) + K_f y(k)."""
    if s.form != "predictor":
        raise ValueError("predictor step on a non-predictor observer")
    u = np.asarray(u_now, float).ravel()
    y = np.asarray(y_now, float).ravel()
    s.x_hat = s.A @ s.x_hat - s.K_f @ (s.C @ s.x_hat) + s.B @ u + s.K_f @ y
    return s.x_hat


@dataclass
class Prefilter:
    """Reference-to-state-reference filter x_r = H_pre(z) r.

    kind "nominal": a copy of the observer driven by r instead of y, state
    reference = the full state (identity output).  kind
    "loop-shift-nominal": the same with the feedthrough-corrected matrices.
    kind "shaped": output rows remixed so L1 x_r = L2 r exactly while
    K_c x_r matches the nominal prefilter state, removing reference
    content along directions the gain cannot act on.
    """

    sys: DtStateSpace
    kind: str
    x: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.x is None:
            self.x = np.zeros(self.sys.n)

    def step(self, r) -> np.ndarray:
        """Emit x_r(k) for the current reference sample, then advance."""
        r = np.atleast_1d(np.asarray(r, float)).ravel()
        x_r = self.sys.C @ self.x + self.sys.D @ r
        self.x = self.sys.A @ self.x + self.sys.B @ r
        return x_r


def build_prefilter(
    kind: str,
    G: DtStateSpace,
    K_f: np.ndarray,
    K_c: np.ndarray | None = None,
    D_K: np.ndarray | None = None,
    L1: np.ndarray | None = None,
    L2: np.ndarray | None = None,
) -> Prefilter:
    """Assemble the reference prefilter.

    G is the unshifted (strictly proper) plant model; D_K is the controller
    feedthrough when loop-shifting was used (None means no shift, which
    reduces "loop-shift-nominal" and "shaped" to their unshifted versions).
    """
    K_f = np.atleast_2d(np.asarray(K_f, float))
    n, n_y = G.n, G.n_y
    if np.any(G.D != 0.0):
        raise ValueError("prefilter design needs a strictly proper plant")
    BDK = np.zeros((n, n_y)) if D_K is None else G.B @ np.atleast_2d(D_K)

    A_pre = G.A + (BDK - K_f) @ G.C
    B_pre = K_f - BDK

    if kind == "nominal":
        if D_K is not None and np.any(D_K != 0.0):
            raise ValueError("nominal kind assumes no loop shift; "
                             "use 'loop-shift-nominal'")
        C_pre, D_pre = np.eye(n), np.zeros((n, n_y))
    elif kind == "loop-shift-nominal":
        C_pre, D_pre = np.eye(n), np.zeros((n, n_y))
    elif kind == "shaped":
        if K_c is None or L1 is None or L2 is None:
            raise ValueError("shaped kind needs K_c, L1 and L2")
        K_c = np.atleast_2d(np.asarray(K_c, float))
        L1 = np.atleast_2d(np.asarray(L1, float))
        L2 = np.atleast_2d(np.asarray(L2, float))
        M = np.vstack([L1, K_c])
        if M.shape[0] != M.shape[1] or np.linalg.cond(M) > 1e10:
            raise ValueError("[L1; K_c] must be square and well conditioned")
        C_pre = np.linalg.solve(M, np.vstack([np.zeros_like(L1), K_c]))
        D_pre = np.linalg.solve(M, np.vstack([L2, np.zeros((K_c.shape[0], L2.shape[1]))]))
    else:
        raise ValueError(f"unknown prefilter kind {kind!r}")

    sys = DtStateSpace(A_pre, B_pre, C_pre, D_pre, G.Ts)
    return Prefilter(sys=sys, kind=kind)


@dataclass
class MpcStepResult:
    u: np.ndarray
    solution: QpSolution | None
    fallback: bool
    slack_max: float

    @property
    def status(self):
        return "fallback" if self.fallback else self.solution.status

    @property
    def active_count(self):
        return 0 if self.solution is None else len(self.solution.active_set)


def mpc_step(
    qp: CondensedQp,
    x_hat,
    x_r=None,
    w=None,
    fallback_gain: np.ndarray | None = None,
    u_bounds=None,
    warm=(),
) -> MpcStepResult:
    """Solve the parametric QP at the current estimate and return u(0).

    ``warm`` is the guessed working set, normally the previous step's
    active set; the QP factor is the one cached on ``qp``.

    A non-optimal solve falls back to the saturated unconstrained law
    u = K_c (x - x_r) clipped to the input bounds, with the result flagged
    so traces record the event.
    """
    x_hat = np.asarray(x_hat, float).ravel()
    f = qp.f(x_hat, x_r=x_r, w=w)
    A = qp.A_ineq if qp.A_ineq.shape[0] else None
    b = qp.b(x_hat, w=w) if A is not None else None
    sol = solve_qp(qp.H, f, A, b, factor=qp.factor, warm=warm)
    if sol.status == "optimal":
        u = qp.first_input(sol.x_star, x_hat)
        smax = float(np.max(qp.slack_values(sol.x_star), initial=0.0))
        return MpcStepResult(u=u, solution=sol, fallback=False, slack_max=smax)
    if fallback_gain is None:
        return MpcStepResult(u=np.zeros(qp.n_u), solution=sol, fallback=True,
                             slack_max=0.0)
    e = x_hat if x_r is None else x_hat - np.asarray(x_r, float).ravel()
    u = np.atleast_2d(fallback_gain) @ e
    if u_bounds is not None:
        lo, hi = (np.asarray(v, float).ravel() for v in u_bounds)
        u = np.clip(u, lo, hi)
    return MpcStepResult(u=u, solution=sol, fallback=True, slack_max=0.0)

