"""Online controller machinery: the reference prefilter and the
per-sample MPC control step.

The observer is an ``ObserverState`` from ``realisation.make_observer``, which
steps itself.  ``sim.simulate`` runs an MPC through a step object built for
the run, which holds the warm set and an observer and ``Prefilter`` on the
controller's realisation, and calls the four in order each sample: prefilter,
observer ``estimate``, ``mpc_step``, observer ``advance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mpc import CondensedQp
from .qp import QpSolution, solve_qp
from .realisation import make_observer
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
    x: np.ndarray

    def step(self, r) -> np.ndarray:
        """Emit x_r(k) for the current reference sample, then advance."""
        r = np.atleast_1d(np.asarray(r, float)).ravel()
        x_r = self.sys.C @ self.x + self.sys.D @ r
        self.x = self.sys.A @ self.x + self.sys.B @ r
        return x_r


def build_prefilter(realisation, G_d: DtStateSpace, L1, L2) -> Prefilter:
    """Assemble the shaped reference prefilter.

    Its state, started from 0, runs ``make_observer(realisation, G_d)``
    driven by y = r and u = -D_K r, as ``sim.simulate`` drives the real
    observer, where G_d is the design model and D_K the feedthrough it
    records (``G_d.D_K``, set by ``loop_shift``; None drives u = 0).  Its
    output is Mc estimate + Ml r, with Mc = [L1; K_c]^-1 [0; K_c] and
    Ml = [L1; K_c]^-1 [L2; 0].
    """
    obs = make_observer(realisation, G_d)
    K_c = np.atleast_2d(np.asarray(realisation.K_c, float))
    L1 = np.atleast_2d(np.asarray(L1, float))
    L2 = np.atleast_2d(np.asarray(L2, float))
    if L2.shape != (L1.shape[0], G_d.n_y):
        raise ValueError(f"L2 must be {L1.shape[0]} x {G_d.n_y} (rows of L1 x n_y), "
                         f"not {L2.shape[0]} x {L2.shape[1]}")
    M = np.vstack([L1, K_c])
    if M.shape[0] != M.shape[1] or np.linalg.cond(M) > 1e10:
        raise ValueError("[L1; K_c] must be square and well conditioned")
    Mc = np.linalg.solve(M, np.vstack([np.zeros_like(L1), K_c]))
    Ml = np.linalg.solve(M, np.vstack([L2, np.zeros((K_c.shape[0], G_d.n_y))]))
    B_r = obs.B_y if G_d.D_K is None else obs.B_y - obs.B @ G_d.D_K
    return Prefilter(DtStateSpace(obs.A_o, B_r, Mc @ obs.C_o, Mc @ obs.D_y + Ml, G_d.Ts),
                     x=np.zeros(G_d.n))


@dataclass
class MpcStepResult:
    u: np.ndarray
    solution: QpSolution
    fallback: bool
    from_law: bool = False  # served by the warm set's affine law, no solve

    @property
    def status(self):
        return "fallback" if self.fallback else self.solution.status

    @property
    def active_count(self):
        return len(self.solution.active_set)


def mpc_step(
    qp: CondensedQp,
    x_hat,
    x_r=None,
    w=None,
    *,
    warm=(),
) -> MpcStepResult:
    """Solve the parametric QP at the current estimate and return u(0).

    ``x_r`` is the reference state (None regulates to 0), ``w`` the known
    input and ``warm`` the guessed working set, normally the previous
    step's active set (empty for a QP without constraint rows).

    The step forms the QP's parameter theta = ``qp.theta(x_hat, x_r, w)``
    once, and both paths read it.  It first evaluates the warm set's
    affine law (``qp.law(warm)``, memoised on ``qp``): when the set is
    optimal at theta by the solver's own tests the law's optimum is
    returned with 0 iterations and ``from_law`` set, and no QP is solved.
    Otherwise, or when the set has no law, ``solve_qp`` runs on
    f = F theta and b = b0 + B theta, warm-started from ``warm`` with the
    factor cached on ``qp``.  Which of the two serves a step depends only
    on ``warm`` and theta, not on what the memo held.

    A non-optimal solve falls back to the saturated unconstrained law
    u = K_c (x - x_r), with the gain ``qp.K_c`` the QP's cost matches,
    clipped to the QP's input bounds ``qp.u_bounds``, and the result
    flagged so traces record the event.
    """
    x_hat = np.asarray(x_hat, float).ravel()
    theta = qp.theta(x_hat, x_r, w)
    law = qp.law(warm)
    sol = law.solve(qp.H, theta) if law is not None else None
    if sol is not None:
        return MpcStepResult(u=sol.x_star[:qp.n_u], solution=sol, fallback=False,
                             from_law=True)
    sol = solve_qp(qp.H, qp.F @ theta, qp.A_ineq, qp.b0 + qp.B @ theta,
                   factor=qp.factor, warm=warm)
    if sol.status == "optimal":
        return MpcStepResult(u=sol.x_star[:qp.n_u], solution=sol, fallback=False)
    e = x_hat if x_r is None else x_hat - np.asarray(x_r, float).ravel()
    u = qp.K_c @ e
    if qp.u_bounds is not None:
        u = np.clip(u, *qp.u_bounds)
    return MpcStepResult(u=u, solution=sol, fallback=True)

