"""Dense matrix numerics shared across the toolkit.

Eigenstructure with conjugate-pair bookkeeping, a discrete Lyapunov solver,
H2 norms, a self-contained Kalman DARE iteration and frequency-domain loop
margins.  Everything works on plain numpy arrays; dynamic systems enter as
:class:`~lti2mpc.statespace.DtStateSpace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .statespace import DtStateSpace

__all__ = [
    "NumericalError",
    "UnstableSystemError",
    "EigenStructure",
    "LoopMargins",
    "eig_paired",
    "spectral_radius",
    "solve_discrete_lyapunov",
    "h2_norm",
    "modal_h2_norms",
    "solve_dare_kalman",
    "loop_margins",
]


class NumericalError(RuntimeError):
    """An iteration failed to converge or a verified residual came out too large."""


class UnstableSystemError(ValueError):
    """Raised when an operation requires a stable system and the input is not."""


def spectral_radius(A: np.ndarray) -> float:
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass
class EigenStructure:
    """Eigendecomposition of a real matrix with conjugate pairs tracked.

    Attributes
    ----------
    values : ndarray
        Complex eigenvalues, sorted by modulus then by angle so that the
        ordering is reproducible run to run.
    vectors : ndarray
        Complex eigenvector matrix, column i belonging to ``values[i]``.
    pair_index : tuple
        Entry i is the index of the conjugate partner of value i, or None
        when the value is real.
    """

    values: np.ndarray
    vectors: np.ndarray
    pair_index: tuple

    @property
    def n(self) -> int:
        return len(self.values)


def eig_paired(M: np.ndarray) -> EigenStructure:
    """Eigendecomposition of a real square matrix with deterministic ordering.

    Eigenvalues are sorted by modulus, ties broken by angle in (-pi, pi],
    and every complex eigenvalue is matched with its conjugate partner.

    Parameters
    ----------
    M : (n, n) array_like
        Real matrix with finite entries.

    Returns
    -------
    EigenStructure

    Raises
    ------
    ValueError
        If M is not square, not real, or has non-finite entries.
    NumericalError
        If pairing or the eigen-residual check fails; does not happen for
        well-scaled inputs.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if np.iscomplexobj(M):
        if np.any(M.imag != 0.0):
            raise ValueError("matrix must be real")
        M = M.real
    M = M.astype(float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")

    vals, vecs = np.linalg.eig(M)
    order = np.lexsort((np.angle(vals), np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]

    n = len(vals)
    scale = 1.0 + np.abs(vals)
    pair: list = [None] * n
    matched = [False] * n
    for i in range(n):
        if matched[i] or abs(vals[i].imag) <= 1e-9 * scale[i]:
            continue
        target = np.conj(vals[i])
        best, best_err = -1, np.inf
        for j in range(n):
            if j == i or matched[j] or abs(vals[j].imag) <= 1e-9 * scale[j]:
                continue
            err = abs(vals[j] - target)
            if err < best_err:
                best, best_err = j, err
        if best < 0 or best_err > 1e-9 * scale[i]:
            raise NumericalError(
                f"no conjugate partner found for eigenvalue {vals[i]}"
            )
        pair[i], pair[best] = best, i
        matched[i] = matched[best] = True

    norm_M = np.linalg.norm(M)
    resid = np.linalg.norm(M @ vecs - vecs * vals[np.newaxis, :], axis=0)
    if np.any(resid > 1e-8 * max(norm_M, 1e-300)):
        raise NumericalError("eigenpair residual exceeds 1e-8 * ||M||")

    return EigenStructure(values=vals, vectors=vecs, pair_index=tuple(pair))


def solve_discrete_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A P A^T - P + Q = 0 for symmetric P.

    Parameters
    ----------
    A : (n, n) array_like
        Must have spectral radius < 1.
    Q : (n, n) array_like
        Symmetric right-hand side.

    Returns
    -------
    P : (n, n) ndarray, symmetric.

    Raises
    ------
    UnstableSystemError
        If the spectral radius of A is >= 1.
    NumericalError
        If the verified residual exceeds 1e-9 * (||Q|| + ||P||).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if A.size == 0:
        return np.zeros_like(Q)
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise UnstableSystemError(f"spectral radius {rho:.6g} >= 1")
    P = scipy.linalg.solve_discrete_lyapunov(A, Q)
    P = 0.5 * (P + P.T)
    resid, bound = _lyapunov_residual(A, P, Q)
    if resid > bound:
        raise NumericalError(
            f"Lyapunov residual {resid:.3e} exceeds bound {bound:.3e}"
        )
    return P


def _lyapunov_residual(A, P, Q):
    """||A P A^T - P + Q|| and the bound 1e-9 (||Q|| + ||P||) it must meet;
    on stacks (leading axes) one pair per member."""
    fro = lambda M: np.linalg.norm(M, axis=(-2, -1))
    resid = fro(A @ P @ np.swapaxes(A, -1, -2) - P + Q)
    bound = 1e-9 * (fro(Q) + fro(P))
    return resid, np.maximum(bound, 1e-300)


def _h2_from_gramian(sys: DtStateSpace, P: np.ndarray) -> float:
    val = float(np.trace(sys.C @ P @ sys.C.T) + np.trace(sys.D @ sys.D.T))
    # tiny negative values can appear through cancellation
    return math.sqrt(max(val, 0.0))


def h2_norm(sys: DtStateSpace) -> float:
    """H2 norm of a stable discrete-time system.

    Computed as sqrt(trace(C P C^T + D D^T)) with P the controllability
    Gramian.  The feedthrough term is the k=0 impulse-response sample, so a
    nonzero D is allowed (discrete time).

    Raises
    ------
    UnstableSystemError
        If any pole is on or outside the unit circle.
    """
    if sys.n == 0:
        return float(np.linalg.norm(sys.D, "fro"))
    return _h2_from_gramian(sys, solve_discrete_lyapunov(sys.A, sys.B @ sys.B.T))


def modal_h2_norms(systems, values: np.ndarray, vectors: np.ndarray) -> list:
    """H2 norms of stable systems sharing one state matrix A = V diag(lam) V^-1.

    ``values`` and ``vectors`` are ``np.linalg.eig(A)``.  Each Gramian is
    the diagonalised solution of the Stein equation A P A^T - P + B B^T = 0,

        P = V (B~ B~^H ./ (1 - lam lam^H)) V^H,   B~ = V^-1 B,

    and is accepted only if it meets the residual bound of
    solve_discrete_lyapunov.  A system whose Gramian misses that bound, or
    every system when V is singular or ||V||_1 ||V^-1||_1 > 1e8, is solved
    by :func:`h2_norm` (Schur/bilinear) instead.

    Raises
    ------
    UnstableSystemError
        If any eigenvalue is on or outside the unit circle.
    """
    if values.size and np.max(np.abs(values)) >= 1.0:
        raise UnstableSystemError("H2 norm undefined for an unstable system")
    maps = [(s.B[np.newaxis], s.C[np.newaxis], s.D[np.newaxis]) for s in systems]
    A = systems[0].A[np.newaxis]
    return list(_modal_h2_stack(A, maps, values[np.newaxis], vectors[np.newaxis],
                                systems[0].Ts)[0])


def _modal_h2_stack(A, maps, values, vectors, Ts) -> np.ndarray:
    """modal_h2_norms on a stack: member i of every map has state matrix
    A[i] with ``values[i], vectors[i] = np.linalg.eig(A[i])``.

    ``maps`` is a sequence of (B, C, D) stacks with the leading axis of A
    (or broadcastable to it).  Returns a (k, len(maps)) array whose rows
    are the H2 norms of member i, inf where A[i] has an eigenvalue on or
    outside the unit circle.  Members that fail the conditioning gate or a
    Gramian residual check fall back, one by one, to :func:`h2_norm` on a
    system with sample time Ts.
    """
    k, n = values.shape
    out = np.full((k, len(maps)), np.inf)
    maps = [tuple(np.broadcast_to(M, (k,) + M.shape[-2:]) for M in m) for m in maps]
    stable = np.flatnonzero(np.max(np.abs(values), axis=1, initial=0.0) < 1.0)
    V = vectors[stable]
    V_inv = _solve_each(V, np.broadcast_to(np.eye(n), V.shape))  # NaN if singular
    norm1 = lambda M: np.abs(M).sum(axis=1).max(axis=1, initial=0.0)
    modal = norm1(V) * norm1(V_inv) <= 1e8
    members, V, V_inv = stable[modal], V[modal], V_inv[modal]
    lam = values[members]
    V_h = V.conj().transpose(0, 2, 1)
    denom = 1.0 - lam[:, :, np.newaxis] * lam.conj()[:, np.newaxis, :]
    Am = A[members]
    done = np.zeros(out.shape, dtype=bool)
    for j, (B, C, D) in enumerate(maps):
        Bm, Cm, Dm = B[members], C[members], D[members]
        Bt = V_inv @ Bm
        P = (V @ ((Bt @ Bt.conj().transpose(0, 2, 1)) / denom) @ V_h).real
        P = 0.5 * (P + P.transpose(0, 2, 1))
        resid, bound = _lyapunov_residual(Am, P, Bm @ Bm.transpose(0, 2, 1))
        val = (np.trace(Cm @ P @ Cm.transpose(0, 2, 1), axis1=1, axis2=2)
               + np.trace(Dm @ Dm.transpose(0, 2, 1), axis1=1, axis2=2))
        # tiny negative values can appear through cancellation
        out[members, j] = np.sqrt(np.maximum(val, 0.0))
        done[members, j] = resid <= bound
    for i in stable[~done[stable].all(axis=1)]:
        for j, (B, C, D) in enumerate(maps):
            if done[i, j]:
                continue
            try:
                out[i, j] = h2_norm(DtStateSpace(A[i], B[i], C[i], D[i], Ts))
            except UnstableSystemError:
                out[i] = np.inf
                break
    return out


def _as_cov(X, dim: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        return float(X) * np.eye(dim)
    if X.ndim == 1 and X.size == 1:
        return float(X[0]) * np.eye(dim)
    if X.shape != (dim, dim):
        raise ValueError(f"{name} must be scalar or {dim}x{dim}, got {X.shape}")
    return 0.5 * (X + X.T)


def solve_dare_kalman(A, C, Qn, Rn, max_iter: int = 200):
    """Steady-state Kalman predictor gain for x+ = Ax + w, y = Cx + v.

    Solves the filter-type DARE

        P = A P A^T + Qn - A P C^T (C P C^T + Rn)^-1 C P A^T

    by a structure-preserving doubling iteration and returns

        L = A P C^T (C P C^T + Rn)^-1

    which places the predictor poles: A - L C is stable whenever (C, A) is
    detectable and the noise pair is stabilising.

    Parameters
    ----------
    A : (n, n) array_like
    C : (ny, n) array_like
    Qn : scalar or (n, n) array_like
        Process covariance; a scalar means that multiple of the identity.
    Rn : scalar or (ny, ny) array_like
        Measurement covariance, positive definite.

    Returns
    -------
    L : (n, ny) ndarray

    Raises
    ------
    NumericalError
        If the doubling iteration breaks down or does not reach relative
        residual 1e-8 within ``max_iter`` steps.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    L, errors = _kalman_gains(A[np.newaxis], C[np.newaxis], Qn, Rn, max_iter)
    if errors[0] is not None:
        raise errors[0]
    return L[0]


def _kalman_gains(A, C, Qn, Rn, max_iter: int = 200):
    """solve_dare_kalman on a stack of pairs A (k, n, n), C (k, ny, n).

    Returns (L, errors): the (k, n, ny) gains and, per member, None or the
    NumericalError solve_dare_kalman raises for it (that member's gain is
    then meaningless).  Bad covariances raise ValueError for the whole
    stack.
    """
    k, n = A.shape[:2]
    ny = C.shape[1]
    if C.shape[2] != n:
        raise ValueError(f"C has {C.shape[2]} columns, expected {n}")
    Qn = _as_cov(Qn, n, "Qn")
    Rn = _as_cov(Rn, ny, "Rn")
    try:
        scipy.linalg.cholesky(Rn)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("Rn must be positive definite") from exc

    P = _dare_doubling(A, C, Qn, Rn, max_iter)
    errors = [None] * k
    L = np.full((k, n, ny), np.nan)
    live = np.flatnonzero(np.isfinite(P).all(axis=(1, 2)))
    for i in np.setdiff1d(np.arange(k), live):
        errors[i] = NumericalError("Kalman DARE doubling iteration broke down")
    P, A, C = P[live], A[live], C[live]
    At, Ct = A.transpose(0, 2, 1), C.transpose(0, 2, 1)
    S = C @ P @ Ct + Rn
    APCt = A @ P @ Ct
    F = A @ P @ At - P + Qn - APCt @ _solve_each(S, C @ P @ At)
    resid = np.linalg.norm(F, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(P, axis=(1, 2)))
    for i, r in zip(live, resid):
        if not r <= 1e-8:
            errors[i] = NumericalError(
                f"Kalman DARE iteration did not converge, relative residual {r:.3e}"
            )
    L[live] = _solve_each(S.transpose(0, 2, 1), APCt.transpose(0, 2, 1)).transpose(0, 2, 1)
    return L, errors


def _dare_doubling(A, C, Qn, Rn, max_iter):
    """Doubling iteration on the dual DARE for a stack of pairs.

    Returns the (k, n, n) stack of P.  Each member stops at the iteration
    where its own step falls below 1e-10 max(1, ||P||), so it equals a
    one-member solve; a member whose iteration breaks down (a singular or
    non-finite step, or ||P|| overflowing) is NaN.
    """
    k, n = A.shape[:2]
    eye = np.eye(n)
    P = np.full((k, n, n), np.nan)
    live = np.arange(k)
    Ak = A.transpose(0, 2, 1).copy()
    Gk = C.transpose(0, 2, 1) @ np.linalg.solve(Rn, C)
    Hk = np.repeat(Qn[np.newaxis], k, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is a breakdown
        for _ in range(max_iter):
            W = _solve_each(eye + Gk @ Hk, np.concatenate([Ak, Gk], axis=2))
            ok = np.isfinite(W).all(axis=(1, 2))
            live, Ak, Gk, Hk, W = live[ok], Ak[ok], Gk[ok], Hk[ok], W[ok]
            WA = W[:, :, :n]
            WG = W[:, :, n:]
            A_next = Ak @ WA
            G_next = Gk + Ak @ WG @ Ak.transpose(0, 2, 1)
            H_next = Hk + Ak.transpose(0, 2, 1) @ Hk @ WA
            H_next = 0.5 * (H_next + H_next.transpose(0, 2, 1))
            step = np.linalg.norm(H_next - Hk, axis=(1, 2))
            Ak, Gk, Hk = A_next, 0.5 * (G_next + G_next.transpose(0, 2, 1)), H_next
            size = np.linalg.norm(Hk, axis=(1, 2))
            done = step <= 1e-10 * np.maximum(1.0, size)
            converged = done & np.isfinite(size)
            P[live[converged]] = Hk[converged]
            live, Ak, Gk, Hk = live[~done], Ak[~done], Gk[~done], Hk[~done]
            if not live.size:
                break
    P[live] = Hk
    return P


def _solve_each(M, B):
    """np.linalg.solve on stacks, NaN for the members whose M is singular."""
    try:
        return np.linalg.solve(M, B)
    except np.linalg.LinAlgError:
        X = np.full(B.shape, np.nan)
        for i in range(len(M)):
            try:
                X[i] = np.linalg.solve(M[i], B[i])
            except np.linalg.LinAlgError:
                pass
        return X


@dataclass
class LoopMargins:
    """Classical stability margins of a SISO loop at its published cut.

    ``delay_margin`` is expressed in sample periods and always equals
    ``phase_margin / (crossover_frequency * Ts)`` when finite.  When the
    frequency response never reaches the relevant crossing the margin is
    math.inf and the matching flag is False.
    """

    gain_margin: float
    phase_margin: float
    delay_margin: float
    crossover_frequency: float
    phase_crossing_found: bool = True
    unity_crossing_found: bool = True


def _bisect_root(f, lo: float, hi: float, flo: float, tol: float) -> float:
    """Root of scalar f by bisection; flo is f(lo), sign change assumed."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def loop_margins(L: DtStateSpace, feedback_sign: int = 1) -> LoopMargins:
    """Gain, phase and delay margins of a SISO discrete-time loop.

    The loop is understood to close as ``signal = feedback_sign * L(signal)``,
    so with feedback_sign=+1 the critical point of L is +1 and with -1 it is
    the classical -1 point.  Internally the response is folded to the -1
    convention and scanned on a log grid of 400 points per decade over
    (0, pi/Ts), with bisection refinement of every crossing to 1e-4 rad
    resolution in omega*Ts.

    Gain margin is the smallest gain increase that reaches the critical
    point over all negative-real-axis crossings; phase and delay margins
    come from the unity-magnitude crossing with the least delay headroom.
    """
    if L.n_u != 1 or L.n_y != 1:
        raise ValueError("loop_margins expects a SISO system")
    if feedback_sign not in (-1, 1):
        raise ValueError("feedback_sign must be +1 or -1")
    Ts = L.Ts
    w_nyq = math.pi / Ts

    def response(w: float) -> complex:
        return complex(-feedback_sign * L.freq_response(np.array([w * Ts]))[0, 0, 0])

    n_dec = 6
    grid = np.logspace(math.log10(w_nyq) - n_dec, math.log10(w_nyq), n_dec * 400 + 1)
    grid[-1] = w_nyq * (1.0 - 1e-9)
    resp = -feedback_sign * L.freq_response(grid * Ts)[:, 0, 0]
    mag = np.abs(resp)
    tol_w = 1e-4 / Ts

    # crossings of the negative real axis: Im == 0 with Re < 0
    im = resp.imag
    on_axis = (np.abs(im) <= 1e-9 * (1.0 + mag)) & (resp.real < 0.0)
    gm_candidates = list(mag[on_axis & (mag > 0.0)])
    f_im = lambda w: response(w).imag
    # sign changes of Im between grid points, neither end on the axis
    sign_change = (~on_axis[:-1] & ~on_axis[1:] & (im[:-1] != 0.0)
                   & ((im[:-1] > 0) != (im[1:] > 0)))
    for i in np.nonzero(sign_change)[0]:
        w_c = _bisect_root(f_im, grid[i], grid[i + 1], im[i], tol_w)
        r = response(w_c)
        if r.real < 0.0:
            gm_candidates.append(abs(r))
    gm_candidates = [m for m in gm_candidates if m < 1.0]
    phase_crossing_found = bool(gm_candidates)
    gain_margin = 1.0 / max(gm_candidates) if gm_candidates else math.inf

    # unity-magnitude crossings
    log_mag = np.where(mag > 0.0, np.log(np.maximum(mag, 1e-300)), -np.inf)
    f_mag = lambda w: math.log(max(abs(response(w)), 1e-300))
    a, b = log_mag[:-1], log_mag[1:]
    # a grid point exactly at unity magnitude is itself a crossing
    candidate = np.isfinite(a) & np.isfinite(b) & ((a == 0.0) | ((a > 0) != (b > 0)))
    crossings = [grid[i] if a[i] == 0.0
                 else _bisect_root(f_mag, grid[i], grid[i + 1], a[i], tol_w)
                 for i in np.nonzero(candidate)[0]]
    unity_crossing_found = bool(crossings)

    phase_margin = math.inf
    delay_margin = math.inf
    crossover = math.nan
    for w_c in crossings:
        r = response(w_c)
        phi = math.atan2(r.imag, r.real)
        margin = (phi + math.pi) % (2.0 * math.pi)
        dm = margin / (w_c * Ts)
        if dm < delay_margin:
            delay_margin = dm
            phase_margin = margin
            crossover = w_c
    return LoopMargins(
        gain_margin=gain_margin,
        phase_margin=phase_margin,
        delay_margin=delay_margin,
        crossover_frequency=crossover,
        phase_crossing_found=phase_crossing_found,
        unity_crossing_found=unity_crossing_found,
    )
