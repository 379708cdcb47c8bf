"""Finite-horizon MPC construction around a recovered state-feedback gain.

The stage cost is the matching cost (u - Kc x)'W(u - Kc x), the quadratic
x'Qx + 2x'Su + u'Ru with Q = Kc'WKc, S = -Kc'W and R = W.  It vanishes
identically along u = Kc x, so the unconstrained optimum reproduces the
linear law exactly and P = 0 solves the associated Riccati equation: no
terminal cost is needed and any horizon length gives the same
unconstrained behaviour.  The QP is built from the gain it serves
(``build_condensed_qp(G, K_c, cfg)``), so the cost cannot follow another
gain than the fallback's.  A reference state x_r, when a control step
passes one, shifts the state argument to x - x_r; the quadratic blocks
are unchanged and the shift only adds a linear term.  The condensed QP
depends on a step's data through one parameter theta = [x0; x_r; w]
(state estimate, reference state, known input): f = F theta and
b = b0 + B theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .linalg import NumericalError
from .qp import AffineLaw, QpFactor, affine_law, factor_qp
from .statespace import DtStateSpace

__all__ = [
    "MpcConfig",
    "CondensedQp",
    "effect_weight",
    "build_condensed_qp",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def effect_weight(G: DtStateSpace, Q1, R1) -> np.ndarray:
    """Input weight R1 + B'Q1B: penalises actuation by its state effect.

    As the matching cost's W it lets a redundant actuator pair trade
    individual inputs while preserving their effect on the plant."""
    for name, weight in (("Q1", Q1), ("R1", R1)):
        if not np.isfinite(weight).all():
            raise ValueError(f"effect weight {name} must be finite")
    n, m = G.n, G.n_u
    Q1 = Q1 * np.eye(n) if np.isscalar(Q1) else np.asarray(Q1, float)
    R1 = R1 * np.eye(m) if np.isscalar(R1) else np.asarray(R1, float)
    return R1 + G.B.T @ Q1 @ G.B


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, matching-cost weight and constraints for one controller.

    W weighs the matching cost (u - Kc x)'W(u - Kc x); None is the
    identity.  A given W must be square, finite and have a positive
    definite symmetric part, which is what the cost sees and what is
    stored, as a read-only float array.  Bounds are (lower, upper) pairs
    of per-channel arrays, stored as pairs of read-only float copies, so
    no later edit of the caller's arrays reaches a condensed QP built from
    this config.  A lower -inf or an
    upper +inf disables that side of a row, and a NaN entry, a lower +inf
    or an upper -inf is refused.  Output and state bounds are softened
    with one shared slack per bounded quantity per step (the same slack
    serves the upper and the lower row), penalised quadratically by
    soft_output_weight.  Input bounds are hard.  A step that passes a
    reference state x_r penalises x - x_r instead of x.
    """

    N: int
    W: np.ndarray | None = None
    u_bounds: tuple | None = None
    y_bounds: tuple | None = None
    x_bounds: tuple | None = None
    soft_output_weight: float = 1e5

    def __post_init__(self):
        if self.W is not None:
            W = np.array(self.W, dtype=float, ndmin=2)
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ValueError(f"matching-cost weight is {'x'.join(map(str, W.shape))}, "
                                 "not square")
            if not np.isfinite(W).all():
                raise ValueError("matching-cost weight W must be finite")
            W = (W + W.T) / 2.0  # the cost sees only W's symmetric part
            if np.linalg.eigvalsh(W)[0] <= 0.0:
                raise ValueError("matching-cost weight must be positive definite")
            object.__setattr__(self, "W", _read_only(W))
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"horizon must be an integer, not {self.N!r}")
        if self.N < 1:
            raise ValueError("horizon must be at least 1")
        for name in ("u_bounds", "y_bounds", "x_bounds"):
            b = getattr(self, name)
            if b is None:
                continue
            lo, hi = (_read_only(np.array(np.ravel(v), dtype=float)) for v in b)
            if lo.shape != hi.shape or not np.all(lo <= hi):  # a NaN fails lo <= hi
                raise ValueError("bounds must be (lower, upper) with lower <= upper, no NaN")
            if np.any(lo == np.inf) or np.any(hi == -np.inf):
                raise ValueError("a lower bound of +inf or an upper bound of -inf "
                                 "cannot be met")
            object.__setattr__(self, name, (lo, hi))
        if not np.isfinite(self.soft_output_weight):
            raise ValueError(f"soft_output_weight must be finite, not {self.soft_output_weight}")
        if (self.y_bounds or self.x_bounds) and self.soft_output_weight <= 0.0:
            raise ValueError("soft_output_weight must be positive")

    def weight(self, n_u: int) -> np.ndarray:
        """The n_u x n_u matching-cost weight: W, or the identity when W is
        None.  Refuses (ValueError) a W of another size."""
        if self.W is None:
            return np.eye(n_u)
        if self.W.shape != (n_u, n_u):
            raise ValueError(f"matching-cost weight is {self.W.shape[0]}x{self.W.shape[1]}, "
                             f"not {n_u}x{n_u}")
        return self.W


def _bounded_rows(bounds, M, what):
    """Rows of M whose channel has at least one finite bound; ``what`` names
    the bounds, which need one entry per row of M."""
    lo, hi = bounds
    if lo.size != M.shape[0]:
        raise ValueError(f"{what} have {lo.size} entries per side, not {M.shape[0]}")
    keep = np.isfinite(lo) | np.isfinite(hi)
    return M[keep], lo[keep], hi[keep]


def _constrained_output(G: DtStateSpace, cfg: MpcConfig):
    """Stack the softened quantities: bounded outputs first, then states."""
    rows, lo, hi = [], [], []
    if cfg.y_bounds is not None:
        r, l, h = _bounded_rows(cfg.y_bounds, G.C, "y_bounds")
        rows.append(r), lo.append(l), hi.append(h)
    if cfg.x_bounds is not None:
        r, l, h = _bounded_rows(cfg.x_bounds, np.eye(G.n), "x_bounds")
        rows.append(r), lo.append(l), hi.append(h)
    if not rows:
        return np.zeros((0, G.n)), np.zeros(0), np.zeros(0)
    return np.vstack(rows), np.concatenate(lo), np.concatenate(hi)


@dataclass
class CondensedQp:
    """Dense QP  min 1/2 z'Hz + f'z  s.t.  A_ineq z <= b.

    The decision vector z is [u_0 .. u_{N-1}, s_1 .. s_N] (the inputs,
    then the slacks).  ``K_c`` (a read-only copy) is the gain whose
    matching cost the QP minimises and ``u_bounds`` the config's input
    bounds: a control step whose solve is not optimal falls back to
    K_c x clipped to them.  Every array is read-only.  H and A_ineq are
    fixed, and so is their QP factor, computed on first use and shared by
    every control step.  A
    ``sim.MpcController`` builds its QP once, so that factor, with its
    warm-start QR memo, serves every run of the controller.

    f = F theta and b = b0 + B theta are affine in theta = [x0; x_r; w]
    (``theta``): the state estimate, the reference state and the known
    input w (the setpoint of a loop-shifted model), whose width
    F.shape[1] - 2n is 0 when the model has no known input.  On a fixed
    working set the optimum is affine in theta too; ``law`` returns that
    ``qp.AffineLaw`` and keeps the last one in ``law_memo``: None or
    (working set, law or None), one tuple replaced whole, so a reader
    never pairs a key with another set's law.
    """

    H: np.ndarray
    A_ineq: np.ndarray
    N: int
    n_u: int
    F: np.ndarray
    B: np.ndarray
    b0: np.ndarray
    K_c: np.ndarray
    u_bounds: tuple | None

    law_memo = None  # not a field: set by ``law``

    @property
    def n_slack(self) -> int:
        return self.H.shape[0] - self.N * self.n_u

    @cached_property
    def factor(self) -> QpFactor:
        return factor_qp(self.H, self.A_ineq)

    def theta(self, x0, x_r=None, w=None) -> np.ndarray:
        """The parameter [x0; x_r; w] of F, B and ``law``, a missing x_r or
        w as 0; w is left out when the model has no known input."""
        n = self.K_c.shape[1]
        n_w = self.F.shape[1] - 2 * n
        parts = [np.asarray(x0, float).ravel(),
                 np.zeros(n) if x_r is None else np.asarray(x_r, float).ravel()]
        if n_w:
            parts.append(np.zeros(n_w) if w is None else np.asarray(w, float).ravel())
        return np.concatenate(parts)

    def law(self, active) -> AffineLaw | None:
        """``qp.affine_law`` of working set ``active`` for the stored F, B
        and b0, reused while ``active`` repeats."""
        key = tuple(active)
        memo = self.law_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        law = affine_law(self.factor, self.A_ineq, key, self.F, self.B, self.b0)
        self.law_memo = (key, law)
        return law

    def input_sequence(self, x_star) -> np.ndarray:
        """Input sequence (N, n_u) of a solution vector."""
        return np.asarray(x_star, float)[: self.N * self.n_u].reshape(self.N, self.n_u)

    def slack_values(self, x_star) -> np.ndarray:
        return np.asarray(x_star, float)[self.N * self.n_u:]


def _prediction_matrices(A, B, B_w, N):
    """Gamma, P with x_k = Gamma_k U + P_k theta, theta = [x0; x_r; w], for
    k = 0 .. N (N+1 block rows).  P's x_r columns are zero and its k = 0
    row is [I, 0, 0]."""
    n, m = B.shape
    Gamma = np.zeros(((N + 1) * n, N * m))
    P = np.zeros(((N + 1) * n, 2 * n + B_w.shape[1]))
    P[:n, :n] = np.eye(n)
    for k in range(1, N + 1):
        r, p = k * n, (k - 1) * n
        Gamma[r:r + n] = A @ Gamma[p:p + n]
        Gamma[r:r + n, (k - 1) * m:k * m] = B
        P[r:r + n] = A @ P[p:p + n]
        P[r:r + n, 2 * n:] += B_w
    return Gamma, P


def _per_step(M, X, N):
    """M applied to each of the N block rows of X."""
    Xk = X.reshape(N, X.shape[0] // N, X.shape[1])
    return (M @ Xk).reshape(N * M.shape[0], X.shape[1])


def _inequality_rows(N, lo, hi, Z_u, Z_th, E):
    """Rows (A, b0, B) of  lo - s_k <= z_k <= hi + s_k  for a quantity
    z = Z_u U + Z_th theta stacked over N steps, with slack columns E
    (zero for hard bounds; one slack serves both sides): per step the
    finite upper rows, then the finite lower ones."""
    q, rows = lo.size, []
    for k in range(N):
        blk = slice(k * q, (k + 1) * q)
        for sgn, bound in ((1.0, hi), (-1.0, lo)):
            fin = np.isfinite(bound)
            if fin.any():
                rows.append((np.hstack([sgn * Z_u[blk], E[blk]])[fin], (sgn * bound)[fin],
                             (-sgn * Z_th[blk])[fin]))
    return rows


def build_condensed_qp(G: DtStateSpace, K_c, cfg: MpcConfig) -> CondensedQp:
    """Eliminate the state dynamics and emit the dense parametric QP of the
    matching cost of gain K_c under ``cfg.weight``.

    The states are predicted on (A, B, B_w), so the decisions are the
    inputs themselves and the x-u cross terms of the cost stay in H.  The
    known input w is held over the horizon; B_w = -B D_K when G records
    the feedthrough ``loop_shift`` absorbed (w is then the setpoint, which
    the shifted plant sees through -B D_K), and has no columns otherwise.

    Raises NumericalError when cond(H) exceeds 1e12: the unconstrained
    minimiser would no longer be the stage cost's, and ValueError when K_c
    is not n_u x n, W not n_u x n_u, or the input, output or state bounds
    do not have n_u, n_y or n entries.
    """
    N, n, m = cfg.N, G.n, G.n_u
    K_c = _read_only(np.array(K_c, dtype=float, ndmin=2))
    if K_c.shape != (m, n):
        raise ValueError(f"K_c is {'x'.join(map(str, K_c.shape))}, not {m}x{n} (n_u x n)")
    W = cfg.weight(m)
    Q, S, R = K_c.T @ W @ K_c, -K_c.T @ W, W
    B_w = np.zeros((n, 0)) if G.D_K is None else -G.B @ G.D_K

    Gamma, P = _prediction_matrices(G.A, G.B, B_w, N)
    n_th = P.shape[1]
    # rows 0 .. N-1 enter the stage cost, whose state argument is
    # x_k - x_r = Gj U + E theta
    Gj = Gamma[:N * n]
    E = P[:N * n] - np.kron(np.ones((N, 1)), np.eye(n, n_th, n))

    Qb, Sb, Rb = (np.kron(np.eye(N), M) for M in (Q, S, R))
    H_u = 2.0 * (Gj.T @ Qb @ Gj + Gj.T @ Sb + Sb.T @ Gj + Rb)
    # gradient of the cost in U through the states
    F_u = 2.0 * ((Qb @ Gj + Sb).T @ E)

    Cz, z_lo, z_hi = _constrained_output(G, cfg)
    n_z = Cz.shape[0]
    n_dec = N * (m + n_z)
    H = scipy.linalg.block_diag(H_u, 2.0 * cfg.soft_output_weight * np.eye(N * n_z))
    H = (H + H.T) / 2.0
    cond = np.linalg.cond(H)
    if cond > 1e12:
        raise NumericalError(f"condensed Hessian is near singular: cond(H) = {cond:.1e}")

    rows = [(np.zeros((0, n_dec)), np.zeros(0), np.zeros((0, n_th)))]
    if cfg.u_bounds is not None:
        sel, u_lo, u_hi = _bounded_rows(cfg.u_bounds, np.eye(m), "u_bounds")
        q = N * sel.shape[0]
        rows += _inequality_rows(N, u_lo, u_hi, np.kron(np.eye(N), sel), np.zeros((q, n_th)),
                                 np.zeros((q, N * n_z)))
    # softened quantities at steps 1 .. N, one slack each
    z_maps = (_per_step(Cz, X[n:], N) for X in (Gamma, P))
    rows += _inequality_rows(N, z_lo, z_hi, *z_maps, -np.eye(N * n_z))
    A_ineq, b0, B = (np.concatenate(c) for c in zip(*rows))

    F = np.vstack([F_u, np.zeros((N * n_z, n_th))])
    H, A_ineq, F, B, b0 = map(_read_only, (H, A_ineq, F, B, b0))
    return CondensedQp(H=H, A_ineq=A_ineq, N=N, n_u=m, F=F, B=B, b0=b0, K_c=K_c,
                       u_bounds=cfg.u_bounds)
