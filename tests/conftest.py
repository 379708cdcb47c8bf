import itertools

import numpy as np


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


def condensation_gaps(G, cfg, qp, x0, x_r=None, w=None, trials=5, seed=0):
    """How far a condensed QP is from plain simulation of G, as two
    relative gaps (objective, rows).

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
    Q, S, R = cfg.cost.Q, cfg.cost.S, cfg.cost.R
    B_w = np.zeros((n, 1)) if G.D_K is None else -G.B @ G.D_K
    drive = B_w @ (np.zeros(B_w.shape[1]) if w is None else np.ravel(w))
    x_r = np.zeros(n) if x_r is None else np.ravel(x_r)
    f, b = qp.f(x0, x_r, w), qp.b(x0, w)

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
            e, u = x - x_r, U[k]
            J += e @ Q @ e + 2.0 * e @ S @ u + u @ R @ u
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
