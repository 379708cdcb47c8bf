"""Dense strictly convex QP solver, dual active-set method.

    min 1/2 x'Hx + f'x   s.t.   A x <= b

The dual method of Goldfarb & Idnani (1983): start from a dual feasible
point, then pull in the most violated constraint one at a time, taking the
exact dual step that either activates it or drops a blocking constraint
from the working set.  Each intermediate iterate is the optimum of a
relaxed problem, so no phase-1 is needed and infeasibility is detected as
dual unboundedness.

H and A enter the iteration only through a QpFactor: L = chol(H) and
G = L^-1 N with N = -A' (column j of G is row j's normal in the metric of
H).  H and A are checked for finite values once, when the factor is built;
a caller that solves a sequence of QPs sharing H and A, such as the
condensed MPC problem at every control step, builds the factor once and
passes it in, so each solve checks only f and b.  The working-set geometry
lives in a QR factorisation of the active columns of G that is updated one
column at a time (scipy.linalg.qr_insert / qr_delete), never refactorised
inside the loop.

Warm start (the online active-set idea of Ferreau, Bock & Diehl 2008,
qpOASES): given a guessed working set, typically the previous control
step's active set, the equality-constrained QP on it is solved from one QR
of its columns of G.  Rows whose R diagonal shows linear dependence are
dropped, then rows with negative multipliers, re-solving until every
multiplier is >= 0.  That point is dual feasible, so the dual loop
continues from it unchanged; when the guess was already optimal it takes
no step.  A cold solve is the same code with an empty guess, which starts
from the unconstrained minimiser.  All ties are broken by lowest
constraint index, so the solve path is deterministic.

On exit with status "optimal" the iterate satisfies the KKT conditions
    H x* + f + A_act' lam = 0,   lam >= 0,   A x* <= b,
with the active set and multipliers reported in matching order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, qr_delete, qr_insert
from scipy.linalg.lapack import dpotrs, dtrtrs

__all__ = ["QpFactor", "QpSolution", "factor_qp", "solve_qp"]

# a column of G counts as dependent on the working set when the part of it
# outside the working set's span has squared norm below this share of its own
_DEP_TOL = 1e-13


@dataclass(frozen=True)
class QpFactor:
    """Factors shared by every QP with the same H and A.

    L is the lower Cholesky factor of H; G = L^-1 (-A'), one column per
    constraint row (zero columns when there are no constraints).
    """

    L: np.ndarray
    G: np.ndarray


@dataclass
class QpSolution:
    """Result of one solve.

    ``iterations`` counts the dual steps taken after the warm start (all of
    them for a cold solve); ``warm_start`` is true when a non-empty guessed
    working set was already optimal, so no row was dropped from it and no
    dual step followed the equality solve.
    """

    x_star: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible" | "iteration-limit"
    iterations: int
    active_set: tuple = ()
    multipliers: np.ndarray | None = None
    warm_start: bool = False


def _objective(H, f, x):
    return float(0.5 * x @ H @ x + f @ x)


def factor_qp(H, A=None) -> QpFactor:
    """Factor H (positive definite) and the constraint rows A once."""
    H = np.atleast_2d(np.asarray(H, float))
    d = H.shape[0]
    if H.shape != (d, d):
        raise ValueError("H must be square")
    A = (np.zeros((0, d)) if A is None or np.size(A) == 0
         else np.atleast_2d(np.asarray(A, float)))
    if A.shape[1] != d:
        raise ValueError("constraint dimensions disagree")
    if not (np.isfinite(H).all() and np.isfinite(A).all()):
        raise ValueError("H and A must be finite")
    L = np.tril(cho_factor(H, lower=True, check_finite=False)[0])
    return QpFactor(L, _tri_solve(L, -A.T, lower=True))


def _tri_solve(T, v, lower=False, trans=0):
    """x with T x = v (T' x = v when trans=1), T triangular, by LAPACK dtrtrs.

    scipy.linalg.solve_triangular without its wrapper: the same call, so the
    same bits.  dtrtrs reads Fortran order, so a C-ordered T goes in as its
    transpose with the triangle and the transposition flipped.
    """
    if v.size == 0:
        return np.empty(v.shape)
    if T.flags.f_contiguous:
        x, info = dtrtrs(T, v, lower=lower, trans=trans)
    else:
        x, info = dtrtrs(T.T, v, lower=not lower, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular triangular factor at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def _guess(warm, m) -> list:
    """Warm-start rows in the given order, repeats removed."""
    rows = [operator.index(i) for i in warm]
    if any(not 0 <= i < m for i in rows):
        raise ValueError(f"warm-start row out of range for {m} constraints")
    return list(dict.fromkeys(rows))


def solve_qp(H, f, A=None, b=None, max_iter: int | None = None, *,
             factor: QpFactor | None = None, warm=()) -> QpSolution:
    """Solve the inequality-constrained QP; H must be positive definite.

    ``factor`` must be ``factor_qp(H, A)``; it is built here when omitted.
    ``warm`` is a guessed working set (row indices of A).
    """
    H = np.atleast_2d(np.asarray(H, float))
    f = np.asarray(f, float).ravel()
    d = f.size
    if H.shape != (d, d):
        raise ValueError("H and f dimensions disagree")
    if A is None or np.size(A) == 0:
        A, m = None, 0
    else:
        A = np.atleast_2d(np.asarray(A, float))
        b = np.asarray(b, float).ravel()
        m = A.shape[0]
        if A.shape[1] != d or b.size != m:
            raise ValueError("constraint dimensions disagree")
    if factor is None:
        factor = factor_qp(H, A)
    elif factor.L.shape != (d, d) or factor.G.shape != (d, m):
        raise ValueError("factor does not match H and A")
    if not np.isfinite(f).all() or (m and not np.isfinite(b).all()):
        raise ValueError("f and b must be finite")
    active = _guess(warm, m)
    guessed = len(active)
    L, G = factor.L, factor.G
    x, info = dpotrs(L, -f, lower=True) if d else (np.zeros(0), 0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")

    if A is None:
        return QpSolution(x, _objective(H, f, x), "optimal", 0)
    if max_iter is None:
        max_iter = 50 * (d + m)

    # internal >= form: n_j' x >= beta_j with n_j = -a_j, beta_j = -b_j
    tol_feas = 1e-10 * (1.0 + np.max(np.abs(b)))

    iters = 0
    # warm start: x is still the unconstrained minimiser x0; on a working
    # set W the equality optimum is x0 + L^-T G_W lam with
    # G_W'G_W lam = A_W x0 - b_W
    while active:
        G_w = G[:, active]
        Q, R = np.linalg.qr(G_w, mode="complete")
        q = len(active)
        dep = np.flatnonzero(np.diag(R) ** 2 <= _DEP_TOL * np.maximum(
            np.sum(G_w[:, :d] ** 2, axis=0), 1e-300))
        if dep.size or q > d:
            active.pop(int(dep[0]) if dep.size else d)
            continue
        viol = A[active] @ x - b[active]
        lam = _tri_solve(R[:q], _tri_solve(R[:q], viol, trans=1))
        if np.all(lam >= 0.0):
            x = x + _tri_solve(L, G_w @ lam, lower=True, trans=1)
            break
        active = [j for j, lam_j in zip(active, lam) if lam_j >= 0.0]
    if not active:
        lam, Q, R = np.zeros(0), np.eye(d), np.zeros((d, 0))

    def insert_col(u):
        nonlocal Q, R
        if R.shape[1] == 0:
            Q, R = np.linalg.qr(u.reshape(-1, 1), mode="complete")
        else:
            Q, R = qr_insert(Q, R, u, R.shape[1], which="col", check_finite=False)

    def delete_col(k):
        nonlocal Q, R
        if R.shape[1] == 1:
            Q, R = np.eye(d), np.zeros((d, 0))
        else:
            Q, R = qr_delete(Q, R, k, which="col", check_finite=False)

    while True:
        viol = A @ x - b
        if active:
            viol[active] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] <= tol_feas:
            return QpSolution(
                x, _objective(H, f, x), "optimal", iters,
                tuple(active), lam.copy(),
                warm_start=guessed > 0 and iters == 0 and len(active) == guessed,
            )

        n_p = -A[p]
        g = G[:, p]
        lam_p = 0.0

        while True:
            iters += 1
            if iters > max_iter:
                return QpSolution(x, _objective(H, f, x), "iteration-limit",
                                  iters, tuple(active), lam.copy())
            q = len(active)
            if q:
                w1 = Q[:, :q].T @ g
                r = _tri_solve(R[:q, :], w1)
                z = _tri_solve(L, Q[:, q:] @ (Q[:, q:].T @ g), lower=True, trans=1)
            else:
                r = np.zeros(0)
                z = _tri_solve(L, g, lower=True, trans=1)

            # n_p'z = ||Q2'g||^2 exactly, so ||g||^2 is its natural scale
            denom = float(n_p @ z)
            s_p = float(n_p @ x + b[p])  # n_p'x - beta_p, negative while violated
            has_step = denom > _DEP_TOL * max(float(g @ g), 1e-300)

            # dual blocking length
            t1, k_block = np.inf, -1
            if q:
                pos = r > 1e-13
                if np.any(pos):
                    ratios = np.where(pos, lam / np.where(pos, r, 1.0), np.inf)
                    k_block = int(np.argmin(ratios))
                    t1 = float(ratios[k_block])

            if not has_step and not np.isfinite(t1):
                # cannot restore feasibility of p: dual is unbounded
                return QpSolution(x, _objective(H, f, x), "infeasible",
                                  iters, tuple(active), lam.copy())
            t2 = (-s_p / denom) if has_step else np.inf
            t = min(t1, t2)

            if has_step:
                x = x + t * z
            if q:
                lam = lam - t * r
            lam_p += t

            if t2 <= t1:
                # full step: p joins the working set
                active.append(p)
                lam = np.append(lam, lam_p)
                insert_col(g)
                break
            # partial step: the blocking constraint leaves, try again
            active.pop(k_block)
            lam = np.delete(lam, k_block)
            delete_col(k_block)
