import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from lti2mpc.statespace import DtStateSpace


def brute_force_qp(H, f, A, b):
    """Reference QP optimum by enumerating every candidate active set.

    Returns (x, objective) or None when no subset yields a feasible KKT
    point (infeasible problem).  Exponential, for small oracle use only.
    """
    d = len(f)
    m = A.shape[0]
    best = None
    for k in range(0, min(m, d) + 1):
        for idx in itertools.combinations(range(m), k):
            Aa = A[list(idx)]
            KKT = np.block([[H, Aa.T], [Aa, np.zeros((k, k))]])
            rhs = np.concatenate([-f, b[list(idx)]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:d], sol[d:]
            if np.any(lam < -1e-9):
                continue
            if np.any(A @ x - b > 1e-8):
                continue
            obj = 0.5 * x @ H @ x + f @ x
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    return best


def record_steps(scenario):
    """Replay ``scenario`` and return (trace, steps), one step per MPC
    control step: (qp, f, b, warm, result), with f and b the step's QP
    data, ``warm`` the working set the step was handed and ``result`` its
    ``runtime.MpcStepResult``."""
    from lti2mpc import sim

    steps, step = [], sim.mpc_step

    def spy(qp, x_hat, x_r=None, w=None, *, warm=()):
        res = step(qp, x_hat, x_r=x_r, w=w, warm=warm)
        theta = qp.theta(x_hat, x_r, w)
        steps.append((qp, qp.F @ theta, qp.b0 + qp.B @ theta, warm, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "mpc_step", spy)
        trace = sim.simulate(scenario)
    return trace, steps


def condensation_gaps(G, K_c, W, cfg, qp, x0, x_r=None, w=None, trials=5, seed=0):
    """How far a condensed QP is from plain simulation of G, as two
    relative gaps (objective, rows).

    The stage cost is the matching cost (u - K_c x)'W(u - K_c x) (W None
    is the identity), evaluated here from K_c and W as written; ``cfg``
    supplies only the horizon, the bounds and the slack weight.

    For random inputs U and slacks s, with z = [U; s] and the states
    simulated from x0 under U (and the known input w, zero when None),
    1/2 z'Hz + f'z minus the stage costs of (x_k - x_r, u_k), k < N, and
    the slack penalty must be one constant: the x-only part of the cost,
    which the condensation drops.  Each row of A_ineq z - b must be its
    bounded quantity minus its bound, less its slack: per step the finite
    upper rows, then the finite lower ones; the inputs at steps 0 .. N-1
    first, then the softened outputs and states at steps 1 .. N.
    """
    rng = np.random.default_rng(seed)
    N, n, m = cfg.N, G.n, G.n_u
    K_c = np.atleast_2d(np.asarray(K_c, float))
    W = np.eye(m) if W is None else np.atleast_2d(np.asarray(W, float))
    B_w = np.zeros((n, 1)) if G.D_K is None else -G.B @ G.D_K
    drive = B_w @ (np.zeros(B_w.shape[1]) if w is None else np.ravel(w))
    x_r = np.zeros(n) if x_r is None else np.ravel(x_r)
    theta = qp.theta(x0, x_r, w)
    f, b = qp.F @ theta, qp.b0 + qp.B @ theta

    def sides(bounds):
        if bounds is None:
            return np.zeros(0, int), np.zeros(0), np.zeros(0)
        lo, hi = (np.ravel(v).astype(float) for v in bounds)
        keep = np.flatnonzero(np.isfinite(lo) | np.isfinite(hi))
        return keep, lo[keep], hi[keep]

    def rows(value, lo, hi, slack):
        up, down = np.isfinite(hi), np.isfinite(lo)
        return [(value - hi - slack)[up], (lo - value - slack)[down]]

    u_keep, u_lo, u_hi = sides(cfg.u_bounds)
    y_keep, y_lo, y_hi = sides(cfg.y_bounds)
    x_keep, x_lo, x_hi = sides(cfg.x_bounds)
    z_lo, z_hi = np.concatenate([y_lo, x_lo]), np.concatenate([y_hi, x_hi])
    n_z = z_lo.size
    consts, scales, row_gap = [], [], 0.0
    for trial in range(trials + 1):
        scale = 0.0 if trial == 0 else 1.0
        U = scale * rng.standard_normal((N, m))
        s = 1e-3 * scale * np.abs(rng.standard_normal((N, n_z)))
        x, J, want, want_z = np.ravel(x0).astype(float), 0.0, [], []
        for k in range(N):
            u = U[k]
            d = u - K_c @ (x - x_r)
            J += d @ W @ d
            want += rows(u[u_keep], u_lo, u_hi, 0.0)
            x = G.A @ x + G.B @ u + drive
            want_z += rows(np.concatenate([(G.C @ x)[y_keep], x[x_keep]]), z_lo, z_hi, s[k])
        want = np.concatenate(want + want_z) if want + want_z else np.zeros(0)
        z = np.concatenate([U.ravel(), s.ravel()])
        quad, lin = 0.5 * z @ qp.H @ z, f @ z
        penalty = cfg.soft_output_weight * (s.ravel() @ s.ravel())
        consts.append(quad + lin - J - penalty)
        scales.append(abs(quad) + abs(lin) + abs(J) + penalty)
        got = qp.A_ineq @ z - b
        assert got.shape == want.shape, (got.shape, want.shape)
        if got.size:
            row_gap = max(row_gap, float(np.max(np.abs(got - want)))
                          / max(float(np.max(np.abs(qp.A_ineq @ z))), float(np.max(np.abs(b)))))
    obj_gap = max(abs(c - consts[0]) for c in consts) / max(scales)
    return obj_gap, row_gap


def check_decoupling(M, blocks):
    """Largest off-block entry of M relative to its largest entry.

    ``blocks`` is a sequence of (row_indices, col_indices) pairs declaring
    the intended block-diagonal structure (one pair per loop).  A single
    block returns 0 by definition.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if len(blocks) <= 1:
        return 0.0
    mask = np.zeros(M.shape, dtype=bool)
    for rows, cols in blocks:
        mask[np.ix_(list(rows), list(cols))] = True
    off = np.abs(M)[~mask]
    if off.size == 0:
        return 0.0
    return float(off.max() / max(np.abs(M).max(), 1e-300))


# the frequencies (rad/sample) at which test_realisation's grid oracle
# compares two controllers
ORACLE_GRID = np.logspace(-4, math.log10(math.pi), 200)


def with_narrow_resonance(K, b, c):
    """K in parallel with a resonance from its first input to its first
    output, with input gain b and output gain c: a pole pair at radius
    1 - 1e-5 and angle theta, the geometric mean of ORACLE_GRID's points
    150 and 151.  Returns (the controller, theta)."""
    theta = math.sqrt(ORACLE_GRID[150] * ORACLE_GRID[151])
    turn = (1.0 - 1e-5) * np.array([[math.cos(theta), -math.sin(theta)],
                                    [math.sin(theta), math.cos(theta)]])
    B, C = np.zeros((2, K.n_u)), np.zeros((K.n_y, 2))
    B[0, 0], C[0, 0] = b, c
    return DtStateSpace(scipy.linalg.block_diag(K.A, turn), np.vstack([K.B, B]),
                        np.hstack([K.C, C]), K.D, K.Ts), theta
