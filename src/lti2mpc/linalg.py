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
    import scipy.linalg  # local: only h2_norm and the rare Stein fallback need it

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
    # a contiguous A^T keeps the stacked product on the BLAS path
    resid = fro(A @ P @ np.ascontiguousarray(np.swapaxes(A, -1, -2)) - P + Q)
    bound = 1e-9 * (fro(Q) + fro(P))
    return resid, np.maximum(bound, 1e-300)


def h2_norm(sys: DtStateSpace) -> float:
    """H2 norm of a stable discrete-time system.

    Computed as sqrt(trace(C P C^T + D D^T)) with P the controllability
    Gramian.  The feedthrough term is the k=0 impulse-response sample, so a
    nonzero D is allowed (discrete time).

    Raises
    ------
    UnstableSystemError
        If any pole is on or outside the unit circle.
    NumericalError
        If the Gramian misses its residual bound, or the trace is below
        -1e-12 times its terms' scale ||C||_F^2 ||P||_F + ||D||_F^2: a
        Gramian that far from positive semidefinite certifies no norm.
    """
    if sys.n == 0:
        return float(np.linalg.norm(sys.D, "fro"))
    P = solve_discrete_lyapunov(sys.A, sys.B @ sys.B.T)
    dd = np.trace(sys.D @ sys.D.T)
    val = float(np.trace(sys.C @ P @ sys.C.T) + dd)
    scale = np.linalg.norm(sys.C) ** 2 * np.linalg.norm(P) + dd
    if val < -1e-12 * scale:
        raise NumericalError(f"H2 norm not certified: trace(C P C' + D D') = {val:.3e} "
                             f"at scale {scale:.3e}")
    # tiny negative values can appear through cancellation
    return math.sqrt(max(val, 0.0))


# Doublings after which a member the Stein iteration has not certified goes
# to the eigenvalue test and the Schur/bilinear solver: 2^40 terms of the
# series, enough for a normal A of spectral radius up to about 1 - 1e-10.
_STEIN_MAX_DOUBLINGS = 40


def _h2_stack(A, maps, Ts) -> np.ndarray:
    """H2 norms of systems that share their state matrix, on a stack.

    ``maps`` is a sequence of (B, C, D) stacks with the leading axis of A
    (k, n, n), or broadcastable to it.  Returns the (k, len(maps)) norms,
    inf where A[i] has an eigenvalue on or outside the unit circle and NaN
    where the fallback certifies no norm (it raises NumericalError or
    LinAlgError).

    A member's Gramians come from one squared Smith iteration on
    A P A^T - P + B B^T = 0 (the G = 0 case of :func:`_dare_doubling`):
    P <- P + A_s P A_s^T, then A_s <- A_s^2, from P = B B^T and A_s = A.
    A member stops once ||A_s||_F < 1, which proves A stable, and every
    Gramian's last step is below 1e-10 ||P||.  A Gramian that misses the
    residual bound of solve_discrete_lyapunov goes alone to :func:`h2_norm`
    (Schur/bilinear).  A member not certified within _STEIN_MAX_DOUBLINGS
    doublings, or whose iterates overflow, is judged by its eigenvalues:
    unstable ones score inf, stable ones go to h2_norm.
    """
    k = len(A)
    maps = [tuple(np.broadcast_to(M, (k,) + M.shape[-2:]) for M in m) for m in maps]
    Q = np.stack([B @ B.transpose(0, 2, 1) for B, _, _ in maps], axis=1)
    inner = lambda M, N: np.einsum("...ij,...ij->...", M, N)  # trace(M N')
    fro2 = lambda M: inner(M, M)  # squared Frobenius norms

    def double(state):
        A_s, P = state
        At = np.ascontiguousarray(A_s.transpose(0, 2, 1))  # on the BLAS path
        step = A_s[:, np.newaxis] @ P @ At[:, np.newaxis]
        P = P + step
        A_s = A_s @ A_s
        a2, p2 = fro2(A_s), fro2(P)
        converged = (a2 < 1.0) & (fro2(step) <= 1e-20 * p2).all(axis=1)
        finite = np.isfinite(a2) & np.isfinite(p2).all(axis=1)
        return (A_s, P), np.where(finite, converged, -1)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is a breakdown
        (_, P), status = _freeze_each((A, Q), double, _STEIN_MAX_DOUBLINGS)
    P = 0.5 * (P + P.transpose(0, 1, 3, 2))

    out = np.full((k, len(maps)), np.inf)
    done = np.zeros(out.shape, dtype=bool)
    certified = np.flatnonzero(status == 1)
    resid, bound = _lyapunov_residual(A[certified, np.newaxis], P[certified], Q[certified])
    done[certified] = resid <= bound
    for j, (_, C, D) in enumerate(maps):
        Cm, Dm = C[certified], D[certified]
        val = inner(Cm @ P[certified, j], Cm) + fro2(Dm)  # trace(C P C' + D D')
        # tiny negative values can appear through cancellation
        out[certified, j] = np.sqrt(np.maximum(val, 0.0))
    rest = np.flatnonzero(status != 1)
    rest = rest[np.abs(np.linalg.eigvals(A[rest])).max(axis=1, initial=0.0) < 1.0]
    for i in np.union1d(certified[~done[certified].all(axis=1)], rest):
        for j, (B, C, D) in enumerate(maps):
            if done[i, j]:
                continue
            try:
                out[i, j] = h2_norm(DtStateSpace(A[i], B[i], C[i], D[i], Ts))
            except UnstableSystemError:
                out[i] = np.inf
                break
            except (NumericalError, np.linalg.LinAlgError):
                out[i, j] = np.nan
    return out


def _as_cov(X, dim: int, name: str, definite: bool) -> np.ndarray:
    """X as a symmetric dim x dim covariance; a scalar means that multiple
    of the identity.  A ValueError naming ``name`` refuses a wrong shape, a
    non-finite entry, an eigenvalue below -1e-12 ||X||_2 and, when
    ``definite``, an X that is not positive definite; a scalar is judged
    as a 1 x 1 matrix, so it is refused even when dim is 0.  Returns X, or
    when ``definite`` its lower Cholesky factor."""
    X = np.asarray(X, dtype=float)
    scalar = X.ndim == 0 or (X.ndim == 1 and X.size == 1)
    if scalar:
        X = X.reshape(1, 1)
    elif X.shape != (dim, dim):
        raise ValueError(f"{name} must be scalar or {dim}x{dim}, got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} must be finite")
    X = 0.5 * (X + X.T)
    if definite:
        try:
            X = np.linalg.cholesky(X)
        except np.linalg.LinAlgError:
            raise ValueError(f"{name} must be positive definite") from None
    else:
        lam = np.linalg.eigvalsh(X)
        if lam.size and lam[0] < -1e-12 * np.abs(lam).max():
            raise ValueError(f"{name} must be positive semidefinite")
    return float(X[0, 0]) * np.eye(dim) if scalar else X


def _noise_weights(Qn, Rn, n: int, ny: int):
    """(Qn, Lr) of a Kalman design with n states and ny outputs: the
    checked n x n process covariance and the lower Cholesky factor of the
    checked ny x ny measurement covariance Rn = Lr Lr' (see :func:`_as_cov`)."""
    return _as_cov(Qn, n, "Qn", definite=False), _as_cov(Rn, ny, "Rn", definite=True)


def _kalman_gains(A, C, Qn, Lr):
    """Steady-state Kalman predictor gains of a stack of pairs A (k, n, n),
    C (k, ny, n) for x+ = Ax + w, y = Cx + v, with the weights (Qn, Lr)
    from :func:`_noise_weights`.

    Each member solves the filter-type DARE

        P = A P A^T + Qn - A P C^T (C P C^T + Rn)^-1 C P A^T

    by a structure-preserving doubling iteration (:func:`_dare_doubling`),
    and its gain L = A P C^T (C P C^T + Rn)^-1 places the predictor poles:
    A - L C is stable whenever (C, A) is detectable and the noise pair is
    stabilising.  An ill-conditioned Rn costs accuracy: at cond(Rn) = 1e10
    the gain is good to about 1e-8 relative, as is
    scipy.linalg.solve_discrete_are's.

    Returns (L, errors): the (k, n, ny) gains and, per member, None or the
    NumericalError of a doubling iteration that breaks down or does not
    reach relative residual 1e-8 within 200 doubling steps (that member's
    gain is then meaningless).

    Everything after the doubling works in the state dimension n, whatever
    ny is (the information form; Anderson & Moore, Optimal Filtering,
    1979, section 6).  With G = C' Rn^-1 C and M = I + P G, which is
    nonsingular for P, G >= 0 (its eigenvalues are >= 1),

        P - P C' S^-1 C P = M^-1 P,   A P C' S^-1 = A M^-1 P C' Rn^-1,

    where S = C P C' + Rn, so one stacked solve with M gives both the DARE
    residual A M^-1 P A' - P + Qn and the gain.  Rn enters only through
    solves with its Cholesky factor, G = (Lr^-1 C)' (Lr^-1 C),
    never through an explicit inverse, so the residual answers for the
    caller's Rn up to the backward error of that factor.
    """
    k, n = A.shape[:2]
    ny = C.shape[1]
    if C.shape[2] != n:
        raise ValueError(f"C has {C.shape[2]} columns, expected {n}")
    # Lr^-1 C and Rn^-1 C of every member, as two solves on (ny, k n)
    V = np.linalg.solve(Lr, C.transpose(1, 0, 2).reshape(ny, k * n))
    CtRi = np.linalg.solve(Lr.T, V)
    V = V.reshape(ny, k, n).transpose(1, 0, 2)
    CtRi = CtRi.reshape(ny, k, n).transpose(1, 2, 0)
    G = V.transpose(0, 2, 1) @ V
    P = _dare_doubling(A, G, Qn)
    errors = [None] * k
    L = np.full((k, n, ny), np.nan)
    live = np.flatnonzero(np.isfinite(P).all(axis=(1, 2)))
    for i in np.setdiff1d(np.arange(k), live):
        errors[i] = NumericalError("Kalman DARE doubling iteration broke down")
    P, A = P[live], A[live]
    W = _solve_each(np.eye(n) + P @ G[live], np.concatenate([P, P @ CtRi[live]], axis=2))
    AW = A @ W
    F = AW[:, :, :n] @ np.ascontiguousarray(A.transpose(0, 2, 1)) - P + Qn
    resid = np.linalg.norm(F, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(P, axis=(1, 2)))
    for i, r in zip(live, resid):
        if not r <= 1e-8:
            errors[i] = NumericalError(
                f"Kalman DARE iteration did not converge, relative residual {r:.3e}"
            )
    L[live] = AW[:, :, n:]
    return L, errors


def _dare_doubling(A, G, Qn):
    """Doubling iteration on the dual DARE for a stack of pairs, given
    G = C' Rn^-1 C (k, n, n) and the process covariance Qn (n, n).

    Returns the (k, n, n) stack of P.  Each member stops at the iteration
    where its own step falls below 1e-10 max(1, ||P||), so it equals a
    one-member solve; a member whose iteration breaks down (a singular or
    non-finite step, or ||P|| overflowing) is NaN.
    """
    n = A.shape[1]
    eye = np.eye(n)

    def double(state):
        Ak, Gk, Hk = state
        W = _solve_each(eye + Gk @ Hk, np.concatenate([Ak, Gk], axis=2))
        AW = Ak @ W
        A_next = AW[:, :, :n]
        G_next = Gk + AW[:, :, n:] @ Ak.transpose(0, 2, 1)
        H_next = Hk + Ak.transpose(0, 2, 1) @ Hk @ W[:, :, :n]
        H_next = 0.5 * (H_next + H_next.transpose(0, 2, 1))
        step = np.linalg.norm(H_next - Hk, axis=(1, 2))
        size = np.linalg.norm(H_next, axis=(1, 2))
        done = step <= 1e-10 * np.maximum(1.0, size)
        broken = ~np.isfinite(W).all(axis=(1, 2)) | (done & ~np.isfinite(size))
        state = (A_next, 0.5 * (G_next + G_next.transpose(0, 2, 1)), H_next)
        return state, np.where(broken, -1, done)

    Hk = np.repeat(Qn[np.newaxis], len(A), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is a breakdown
        (_, _, P), status = _freeze_each((A.transpose(0, 2, 1), G, Hk), double, 200)
    P[status == -1] = np.nan
    return P


def _freeze_each(state, step, max_iter):
    """Iterate ``step`` on a tuple of stacks, retiring each member as it finishes.

    ``step(state)`` returns the next state and, per member, 0 (go on), 1
    (converged) or -1 (broken down).  Returns each member's state when it
    retired, or after ``max_iter`` steps with status 0, and its status.
    """
    final = tuple(np.empty_like(s) for s in state)
    status = np.zeros(len(state[0]), dtype=int)
    live = np.arange(len(status))
    for _ in range(max_iter):
        if not live.size:
            break
        state, now = step(state)
        out = now != 0
        if out.any():
            status[live] = now
            for f, s in zip(final, state):
                f[live[out]] = s[out]
            live = live[~out]
            state = tuple(s[~out] for s in state)
    for f, s in zip(final, state):
        f[live] = s
    return final, status


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


def loop_margins(L: DtStateSpace) -> LoopMargins:
    """Gain, phase and delay margins of a SISO discrete-time loop.

    The loop closes as ``signal = L(signal)``, the package's convention (see
    :func:`~lti2mpc.realisation.margin_loop`), so the critical point of L
    is +1; negate C and D for the classical -1 point.  The response is
    folded to the -1 convention and scanned on a log grid of 400 points per
    decade over (0, pi/Ts), with bisection refinement of every crossing to
    1e-4 rad resolution in omega*Ts.

    Gain margin is the smallest gain increase that reaches the critical
    point over all negative-real-axis crossings; phase and delay margins
    come from the unity-magnitude crossing with the least delay headroom.
    """
    if L.n_u != 1 or L.n_y != 1:
        raise ValueError("loop_margins expects a SISO system")
    Ts = L.Ts
    w_nyq = math.pi / Ts

    def response(w: float) -> complex:
        return complex(-L.freq_response(np.array([w * Ts]))[0, 0, 0])

    n_dec = 6
    grid = np.logspace(math.log10(w_nyq) - n_dec, math.log10(w_nyq), n_dec * 400 + 1)
    grid[-1] = w_nyq * (1.0 - 1e-9)
    resp = -L.freq_response(grid * Ts)[:, 0, 0]
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
