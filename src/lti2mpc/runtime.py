"""Online controller machinery: the reference prefilter and the
per-sample MPC control step.

The observer is stepped by the form table in ``realisation``
(``_FORMS[form].estimate`` and ``.advance`` on a ``make_observer``
state); ``sim.simulate`` calls the three in order each sample: prefilter,
observer estimate, ``mpc_step``, observer advance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mpc import CondensedQp
from .qp import QpSolution, solve_qp
from .statespace import DtStateSpace

__all__ = [
    "Prefilter",
    "MpcStepResult",
    "build_prefilter",
    "mpc_step",
]


@dataclass
class Prefilter:
    """Reference-to-state-reference filter x_r = H_pre(z) r.

    A copy of the observer driven by r instead of y, its state x, with the
    output rows remixed so L1 x_r = L2 r exactly while K_c x_r = K_c x,
    removing reference content along directions the gain cannot act on.
    """

    sys: DtStateSpace
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
    G: DtStateSpace,
    K_f: np.ndarray,
    K_c: np.ndarray,
    L1: np.ndarray,
    L2: np.ndarray,
    D_K: np.ndarray | None = None,
) -> Prefilter:
    """Assemble the shaped reference prefilter.

    G is the unshifted (strictly proper) plant model; D_K is the controller
    feedthrough when loop-shifting was used (None means no shift).
    """
    K_f = np.atleast_2d(np.asarray(K_f, float))
    n, n_y = G.n, G.n_y
    if np.any(G.D != 0.0):
        raise ValueError("prefilter design needs a strictly proper plant")
    BDK = np.zeros((n, n_y)) if D_K is None else G.B @ np.atleast_2d(D_K)

    A_pre = G.A + (BDK - K_f) @ G.C
    B_pre = K_f - BDK

    K_c = np.atleast_2d(np.asarray(K_c, float))
    L1 = np.atleast_2d(np.asarray(L1, float))
    L2 = np.atleast_2d(np.asarray(L2, float))
    M = np.vstack([L1, K_c])
    if M.shape[0] != M.shape[1] or np.linalg.cond(M) > 1e10:
        raise ValueError("[L1; K_c] must be square and well conditioned")
    C_pre = np.linalg.solve(M, np.vstack([np.zeros_like(L1), K_c]))
    D_pre = np.linalg.solve(M, np.vstack([L2, np.zeros((K_c.shape[0], L2.shape[1]))]))
    return Prefilter(sys=DtStateSpace(A_pre, B_pre, C_pre, D_pre, G.Ts))


@dataclass
class MpcStepResult:
    u: np.ndarray
    solution: QpSolution | None
    fallback: bool

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
    *,
    fallback_gain: np.ndarray,
    u_bounds=None,
    warm=(),
) -> MpcStepResult:
    """Solve the parametric QP at the current estimate and return u(0).

    ``x_r`` is the reference state (None regulates to 0), ``w`` the known
    input and ``warm`` the guessed working set, normally the previous
    step's active set; the QP factor is the one cached on ``qp``.

    A non-optimal solve falls back to the saturated unconstrained law
    u = K_c (x - x_r), K_c = ``fallback_gain``, clipped to the input
    bounds, with the result flagged so traces record the event.
    """
    x_hat = np.asarray(x_hat, float).ravel()
    f = qp.f(x_hat, x_r=x_r, w=w)
    A = qp.A_ineq if qp.A_ineq.shape[0] else None
    b = qp.b(x_hat, w=w) if A is not None else None
    sol = solve_qp(qp.H, f, A, b, factor=qp.factor, warm=warm)
    if sol.status == "optimal":
        return MpcStepResult(u=qp.first_input(sol.x_star, x_hat), solution=sol,
                             fallback=False)
    e = x_hat if x_r is None else x_hat - np.asarray(x_r, float).ravel()
    u = np.atleast_2d(fallback_gain) @ e
    if u_bounds is not None:
        lo, hi = (np.asarray(v, float).ravel() for v in u_bounds)
        u = np.clip(u, lo, hi)
    return MpcStepResult(u=u, solution=sol, fallback=True)

