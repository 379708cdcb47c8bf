"""Finite-horizon MPC construction around a recovered state-feedback gain.

The stage cost is the general quadratic x'Qx + 2x'Su + u'Ru.  Built with
Q = Kc'WKc, S = -Kc'W, R = W it vanishes identically along u = Kc x, so the
unconstrained optimum reproduces the linear law exactly and P = 0 solves the
associated Riccati equation: no terminal cost is needed and any horizon
length gives the same unconstrained behaviour.  Reference tracking shifts
the state argument to x - x_r; the quadratic blocks are unchanged and the
shift only adds linear terms, which the condensed builder folds into the
parametric f and b maps.

Two equivalent condensations are provided: the direct one keeps the raw
input sequence as decision variable and carries the x-u cross terms; the
prestabilised one substitutes u = Kc x + eta first, which diagonalises the
Hessian but turns input bounds into mixed state-input rows.  They solve the
same problem and the tests hold them to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qp import QpFactor, factor_qp
from .statespace import DtStateSpace

__all__ = [
    "StageCost",
    "MpcConfig",
    "CondensedQp",
    "matching_cost",
    "effect_weight",
    "zero_dare_residual",
    "build_condensed_qp",
]


@dataclass(frozen=True)
class StageCost:
    """Quadratic stage cost x'Qx + 2x'Su + u'Ru (minimised)."""

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, float)))
        object.__setattr__(self, "S", np.atleast_2d(np.asarray(self.S, float)))
        object.__setattr__(self, "R", np.atleast_2d(np.asarray(self.R, float)))
        n, m = self.S.shape
        if self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise ValueError("inconsistent stage-cost block dimensions")


def matching_cost(K_c: np.ndarray, W: np.ndarray | None = None) -> StageCost:
    """Stage cost that is zero along the recovered feedback law.

    l(x, u) = (u - Kc x)' W (u - Kc x) with W positive definite (identity
    when not given).  Swapping in W = R1 + B'Q1B makes the cost measure the
    *effect* of the input through the plant instead, which is what lets a
    redundant actuator pair trade individual torques while preserving their
    sum.
    """
    K_c = np.atleast_2d(np.asarray(K_c, float))
    m = K_c.shape[0]
    W = np.eye(m) if W is None else np.atleast_2d(np.asarray(W, float))
    ev = np.linalg.eigvalsh((W + W.T) / 2.0)
    if ev[0] <= 0.0:
        raise ValueError("matching-cost weight must be positive definite")
    return StageCost(Q=K_c.T @ W @ K_c, S=-K_c.T @ W, R=W)


def effect_weight(G: DtStateSpace, Q1, R1) -> np.ndarray:
    """Input weight R1 + B'Q1B: penalises actuation by its state effect."""
    n, m = G.n, G.n_u
    Q1 = Q1 * np.eye(n) if np.isscalar(Q1) else np.asarray(Q1, float)
    R1 = R1 * np.eye(m) if np.isscalar(R1) else np.asarray(R1, float)
    return R1 + G.B.T @ Q1 @ G.B


def zero_dare_residual(cost: StageCost) -> float:
    """Residual of P = 0 in the Riccati equation for this stage cost.

    With P = 0 the equation collapses to 0 = Q - S R^-1 S' regardless of
    the dynamics; a zero residual certifies that no terminal cost is needed
    and the unconstrained minimiser is u = -R^-1 S' x at every step.
    """
    M = cost.Q - cost.S @ np.linalg.solve(cost.R, cost.S.T)
    return float(np.linalg.norm(M) / max(1.0, np.linalg.norm(cost.Q)))


@dataclass
class MpcConfig:
    """Horizon, cost and constraint description for one controller.

    Bounds are (lower, upper) pairs of per-channel arrays; +-inf entries
    disable individual rows.  Output and state bounds are softened with one
    shared slack per bounded quantity per step (the same slack serves the
    upper and the lower row), penalised quadratically by
    soft_output_weight.  Input bounds are hard.  ``tracking`` switches the
    cost argument from x to x - x_r; ``known_input`` is an n x n_w matrix
    through which a signal held constant over the horizon (for example a
    loop-shift feedthrough term) enters the prediction.
    """

    N: int
    cost: StageCost
    u_bounds: tuple | None = None
    y_bounds: tuple | None = None
    x_bounds: tuple | None = None
    soft_output_weight: float = 1e5
    tracking: str = "none"  # "none" | "reference"
    known_input: np.ndarray | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("horizon must be at least 1")
        if self.tracking not in ("none", "reference"):
            raise ValueError("tracking must be 'none' or 'reference'")
        for b in (self.u_bounds, self.y_bounds, self.x_bounds):
            if b is None:
                continue
            lo, hi = (np.asarray(v, dtype=float).ravel() for v in b)
            if lo.shape != hi.shape or np.any(lo > hi):
                raise ValueError("bounds must be (lower, upper) with lower <= upper")
        if (self.y_bounds or self.x_bounds) and self.soft_output_weight <= 0.0:
            raise ValueError("soft_output_weight must be positive")


def _bounded_rows(bounds, M):
    """Rows of M whose channel has at least one finite bound."""
    lo, hi = (np.asarray(v, dtype=float).ravel() for v in bounds)
    keep = np.isfinite(lo) | np.isfinite(hi)
    return M[keep], lo[keep], hi[keep]


def _constrained_output(G: DtStateSpace, cfg: MpcConfig):
    """Stack the softened quantities: bounded outputs first, then states."""
    rows, lo, hi = [], [], []
    if cfg.y_bounds is not None:
        r, l, h = _bounded_rows(cfg.y_bounds, G.C)
        rows.append(r), lo.append(l), hi.append(h)
    if cfg.x_bounds is not None:
        r, l, h = _bounded_rows(cfg.x_bounds, np.eye(G.n))
        rows.append(r), lo.append(l), hi.append(h)
    if not rows:
        return np.zeros((0, G.n)), np.zeros(0), np.zeros(0)
    return np.vstack(rows), np.concatenate(lo), np.concatenate(hi)


@dataclass
class CondensedQp:
    """Dense QP  min 1/2 x'Hx + f'x  s.t.  A_ineq x <= b.

    The decision vector is [u_0 .. u_{N-1}, s_1 .. s_N] (inputs then
    slacks).  H and A_ineq are fixed, and so is their QP factor, computed
    on first use and shared by every control step; f and b are affine in
    the current state estimate, the reference state and the known input,
    with the matrices below precomputed so each control step is a few
    mat-vecs.
    """

    H: np.ndarray
    A_ineq: np.ndarray
    N: int
    n_u: int
    n_slack: int
    f_x: np.ndarray
    f_r: np.ndarray
    f_w: np.ndarray
    b_const: np.ndarray
    b_x: np.ndarray
    b_w: np.ndarray
    variant: str = "direct"
    # prestabilised variant only: data to recover u from eta
    prestab: dict = field(default_factory=dict)

    @cached_property
    def factor(self) -> QpFactor:
        return factor_qp(self.H, self.A_ineq)

    def f(self, x0, x_r=None, w=None) -> np.ndarray:
        out = self.f_x @ np.asarray(x0, float).ravel()
        if x_r is not None:
            out = out + self.f_r @ np.asarray(x_r, float).ravel()
        if w is not None and self.f_w.size:
            out = out + self.f_w @ np.asarray(w, float).ravel()
        return out

    def b(self, x0, w=None) -> np.ndarray:
        out = self.b_const + self.b_x @ np.asarray(x0, float).ravel()
        if w is not None and self.b_w.size:
            out = out + self.b_w @ np.asarray(w, float).ravel()
        return out

    def input_sequence(self, x_star, x0=None, w=None) -> np.ndarray:
        """Applied input sequence (N, n_u) implied by a solution vector."""
        U = np.asarray(x_star, float)[: self.N * self.n_u].reshape(self.N, self.n_u)
        if self.variant == "direct":
            return U
        K_c, A_s, B, B_w = (self.prestab[k] for k in ("K_c", "A_s", "B", "B_w"))
        x = np.asarray(x0, float).ravel().copy()
        out = np.empty_like(U)
        for k in range(self.N):
            out[k] = K_c @ x + U[k]
            x = A_s @ x + B @ U[k]
            if w is not None and B_w.size:
                x = x + B_w @ np.asarray(w, float).ravel()
        return out

    def slack_values(self, x_star) -> np.ndarray:
        return np.asarray(x_star, float)[self.N * self.n_u:]


def _prediction_matrices(A, B, B_w, N):
    """Phi, Gamma, Omega with x_k = Phi_k x0 + Gamma_k U + Omega_k w for
    k = 0 .. N (N+1 block rows; the k = 0 row is [I, 0, 0])."""
    n, m = B.shape
    Phi = np.zeros(((N + 1) * n, n))
    Gamma = np.zeros(((N + 1) * n, N * m))
    Omega = np.zeros(((N + 1) * n, B_w.shape[1]))
    Phi[:n] = np.eye(n)
    for k in range(1, N + 1):
        r, p = k * n, (k - 1) * n
        Phi[r:r + n] = A @ Phi[p:p + n]
        Gamma[r:r + n] = A @ Gamma[p:p + n]
        Gamma[r:r + n, (k - 1) * m:k * m] = B
        Omega[r:r + n] = A @ Omega[p:p + n] + B_w
    return Phi, Gamma, Omega


def _soft_constraint_blocks(Cz, z_lo, z_hi, Phi, Gamma, Omega, N, n_dec_u, n_z):
    """Inequality rows for the softened quantities at steps 1 .. N."""
    n = Phi.shape[1]
    rows_A, rows_bc, rows_bx, rows_bw = [], [], [], []
    for k in range(1, N + 1):
        P = Phi[k * n:(k + 1) * n]
        Gm = Gamma[k * n:(k + 1) * n]
        Om = Omega[k * n:(k + 1) * n]
        slack_cols = np.zeros((n_z, N * n_z))
        slack_cols[:, (k - 1) * n_z:k * n_z] = -np.eye(n_z)
        for sgn, bound in ((1.0, z_hi), (-1.0, z_lo)):
            finite = np.isfinite(bound)
            if not np.any(finite):
                continue
            A_blk = np.hstack([sgn * (Cz @ Gm), slack_cols])[finite]
            rows_A.append(A_blk)
            rows_bc.append((sgn * bound)[finite])
            rows_bx.append((-sgn * (Cz @ P))[finite])
            rows_bw.append((-sgn * (Cz @ Om))[finite])
    if not rows_A:
        z = np.zeros((0, n_dec_u + N * n_z))
        return z, np.zeros(0), np.zeros((0, n)), np.zeros((0, Omega.shape[1]))
    return (np.vstack(rows_A), np.concatenate(rows_bc),
            np.vstack(rows_bx), np.vstack(rows_bw))


def build_condensed_qp(
    G: DtStateSpace, cfg: MpcConfig, variant: str = "direct"
) -> CondensedQp:
    """Eliminate the state dynamics and emit the dense parametric QP.

    variant "direct" keeps the raw inputs as decisions (cross terms in H);
    variant "prestabilised" substitutes u = Kc x + eta with Kc read off the
    stage cost, giving a block-diagonal Hessian.  Both describe the same
    optimisation and yield the same applied inputs.
    """
    N, n, m = cfg.N, G.n, G.n_u
    Q, S, R = cfg.cost.Q, cfg.cost.S, cfg.cost.R
    if Q.shape[0] != n or R.shape[0] != m:
        raise ValueError("stage cost does not match the plant dimensions")
    B_w = cfg.known_input if cfg.known_input is not None else np.zeros((n, 0))
    B_w = np.atleast_2d(np.asarray(B_w, float)).reshape(n, -1)
    n_w = B_w.shape[1]

    Cz, z_lo, z_hi = _constrained_output(G, cfg)
    n_z = Cz.shape[0]
    rho = cfg.soft_output_weight

    if variant == "direct":
        Phi, Gamma, Omega = _prediction_matrices(G.A, G.B, B_w, N)
        # rows 0 .. N-1 of the stacks enter the stage cost
        Pm, Gj, Om = Phi[:N * n], Gamma[:N * n], Omega[:N * n]
        Qb = np.kron(np.eye(N), Q)
        Sb = np.kron(np.eye(N), S)
        Rb = np.kron(np.eye(N), R)
        H_u = 2.0 * (Gj.T @ Qb @ Gj + Gj.T @ Sb + Sb.T @ Gj + Rb)
        QGS = (Qb @ Gj + Sb).T  # (N m) x (N n)
        f_x = 2.0 * (QGS @ Pm)
        f_w = 2.0 * (QGS @ Om) if n_w else np.zeros((N * m, 0))
        # tracking shift x -> x - x_r adds -2(Gamma'(1(x)Q) + (1(x)S')) x_r
        ones_Q = np.kron(np.ones((N, 1)), Q)
        ones_St = np.kron(np.ones((N, 1)), S.T)
        f_r = -2.0 * (Gj.T @ ones_Q + ones_St) if cfg.tracking == "reference" \
            else np.zeros((N * m, n))
    elif variant == "prestabilised":
        K_c = -np.linalg.solve(R, S.T)
        A_s = G.A + G.B @ K_c
        Phi, Gamma, Omega = _prediction_matrices(A_s, G.B, B_w, N)
        H_u = 2.0 * np.kron(np.eye(N), R)
        f_x = np.zeros((N * m, n))
        f_w = np.zeros((N * m, n_w))
        # cost (eta + Kc x_r)' W (eta + Kc x_r): linear term 2 W Kc x_r
        f_r = np.kron(np.ones((N, 1)), 2.0 * R @ K_c) if cfg.tracking == "reference" \
            else np.zeros((N * m, n))
    else:
        raise ValueError(f"unknown condensation variant {variant!r}")

    n_dec = N * m + N * n_z if n_z else N * m
    H = np.zeros((n_dec, n_dec))
    H[:N * m, :N * m] = H_u
    if n_z:
        H[N * m:, N * m:] = 2.0 * rho * np.eye(N * n_z)
    H = (H + H.T) / 2.0
    if np.linalg.cond(H) > 1e12:
        H = H + 1e-9 * np.eye(n_dec)

    blocks_A, blocks_bc, blocks_bx, blocks_bw = [], [], [], []

    if cfg.u_bounds is not None:
        sel, u_lo, u_hi = _bounded_rows(cfg.u_bounds, np.eye(m))
        if sel.shape[0]:
            for k in range(N):
                if variant == "direct":
                    row_u = np.zeros((sel.shape[0], n_dec))
                    row_u[:, k * m:(k + 1) * m] = sel
                    bx_u = np.zeros((sel.shape[0], n))
                    bw_u = np.zeros((sel.shape[0], n_w))
                else:
                    # u_k = Kc x_k + eta_k with x_k affine in the decisions
                    P = Phi[k * n:(k + 1) * n]
                    Gm = Gamma[k * n:(k + 1) * n]
                    Om = Omega[k * n:(k + 1) * n]
                    row_u = np.zeros((sel.shape[0], n_dec))
                    row_u[:, :N * m] = sel @ K_c @ Gm
                    row_u[:, k * m:(k + 1) * m] += sel
                    bx_u = -sel @ K_c @ P
                    bw_u = -sel @ K_c @ Om
                for sgn, bound in ((1.0, u_hi), (-1.0, u_lo)):
                    finite = np.isfinite(bound)
                    if not np.any(finite):
                        continue
                    blocks_A.append((sgn * row_u)[finite])
                    blocks_bc.append((sgn * bound)[finite])
                    blocks_bx.append((sgn * bx_u)[finite])
                    blocks_bw.append((sgn * bw_u)[finite])

    if n_z:
        A_z, bc_z, bx_z, bw_z = _soft_constraint_blocks(
            Cz, z_lo, z_hi, Phi, Gamma, Omega, N, N * m, n_z
        )
        blocks_A.append(A_z)
        blocks_bc.append(bc_z)
        blocks_bx.append(bx_z)
        blocks_bw.append(bw_z)

    if blocks_A:
        A_ineq = np.vstack(blocks_A)
        b_const = np.concatenate(blocks_bc)
        b_x = np.vstack(blocks_bx)
        b_w = np.vstack(blocks_bw)
    else:
        A_ineq = np.zeros((0, n_dec))
        b_const = np.zeros(0)
        b_x = np.zeros((0, n))
        b_w = np.zeros((0, n_w))

    qp = CondensedQp(
        H=H, A_ineq=A_ineq, N=N, n_u=m, n_slack=N * n_z,
        f_x=f_x if n_z == 0 else np.vstack([f_x, np.zeros((N * n_z, n))]),
        f_r=f_r if n_z == 0 else np.vstack([f_r, np.zeros((N * n_z, n))]),
        f_w=f_w if n_z == 0 else np.vstack([f_w, np.zeros((N * n_z, n_w))]),
        b_const=b_const, b_x=b_x, b_w=b_w,
        variant=variant,
    )
    if variant == "prestabilised":
        qp.prestab = {"K_c": K_c, "A_s": A_s, "B": G.B, "B_w": B_w}
    return qp
