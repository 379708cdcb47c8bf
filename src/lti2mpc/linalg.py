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
    """||A P A^T - P + Q|| and the bound 1e-9 (||Q|| + ||P||) it must meet."""
    resid = np.linalg.norm(A @ P @ A.T - P + Q)
    bound = 1e-9 * (np.linalg.norm(Q) + np.linalg.norm(P))
    return resid, max(bound, 1e-300)


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
    try:
        V_inv = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        V_inv = None
    if V_inv is None or np.linalg.norm(vectors, 1) * np.linalg.norm(V_inv, 1) > 1e8:
        return [h2_norm(sys) for sys in systems]
    V_h = vectors.conj().T
    denom = 1.0 - values[:, np.newaxis] * values.conj()[np.newaxis, :]
    out = []
    for sys in systems:
        Bt = V_inv @ sys.B
        P = (vectors @ ((Bt @ Bt.conj().T) / denom) @ V_h).real
        P = 0.5 * (P + P.T)
        resid, bound = _lyapunov_residual(sys.A, P, sys.B @ sys.B.T)
        out.append(_h2_from_gramian(sys, P) if resid <= bound else h2_norm(sys))
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


def _dare_residual(P, A, C, Qn, Rn) -> float:
    S = C @ P @ C.T + Rn
    F = A @ P @ A.T - P + Qn - A @ P @ C.T @ np.linalg.solve(S, C @ P @ A.T)
    return float(np.linalg.norm(F)) / max(1.0, float(np.linalg.norm(P)))


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
    n = A.shape[0]
    ny = C.shape[0]
    if C.shape[1] != n:
        raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
    Qn = _as_cov(Qn, n, "Qn")
    Rn = _as_cov(Rn, ny, "Rn")
    try:
        scipy.linalg.cholesky(Rn)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("Rn must be positive definite") from exc

    P = _dare_doubling(A, C, Qn, Rn, max_iter)
    if P is None:
        raise NumericalError("Kalman DARE doubling iteration broke down")
    resid = _dare_residual(P, A, C, Qn, Rn)
    if resid > 1e-8:
        raise NumericalError(
            f"Kalman DARE iteration did not converge, relative residual {resid:.3e}"
        )
    S = C @ P @ C.T + Rn
    return np.linalg.solve(S.T, (A @ P @ C.T).T).T


def _dare_doubling(A, C, Qn, Rn, max_iter):
    """Doubling iteration on the dual DARE; returns P or None on breakdown."""
    n = A.shape[0]
    eye = np.eye(n)
    Ak = A.T.copy()
    Gk = C.T @ np.linalg.solve(Rn, C)
    Hk = Qn.copy()
    for _ in range(max_iter):
        try:
            W = np.linalg.solve(eye + Gk @ Hk, np.hstack([Ak, Gk]))
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(W)):
            return None
        WA = W[:, :n]
        WG = W[:, n:]
        A_next = Ak @ WA
        G_next = Gk + Ak @ WG @ Ak.T
        H_next = Hk + Ak.T @ Hk @ WA
        H_next = 0.5 * (H_next + H_next.T)
        step = np.linalg.norm(H_next - Hk)
        Ak, Gk, Hk = A_next, 0.5 * (G_next + G_next.T), H_next
        if step <= 1e-10 * max(1.0, np.linalg.norm(Hk)):
            return Hk
    return Hk


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
    gm_candidates = []
    im = resp.imag
    on_axis = (np.abs(im) <= 1e-9 * (1.0 + mag)) & (resp.real < 0.0)
    for i in np.nonzero(on_axis)[0]:
        if mag[i] > 0.0:
            gm_candidates.append(mag[i])
    f_im = lambda w: response(w).imag
    for i in range(len(grid) - 1):
        if on_axis[i] or on_axis[i + 1]:
            continue
        if im[i] == 0.0 or (im[i] > 0) == (im[i + 1] > 0):
            continue
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
    crossings = []
    for i in range(len(grid) - 1):
        a, b = log_mag[i], log_mag[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            crossings.append(grid[i])
            continue
        if (a > 0) == (b > 0):
            continue
        crossings.append(_bisect_root(f_mag, grid[i], grid[i + 1], a, tol_w))
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
