"""Dense matrix numerics shared across the toolkit.

Eigenstructure with conjugate-pair bookkeeping, a stacked discrete
Lyapunov solver and the H2 norms on it (private: the realisation search
scores its splits with them), a self-contained Kalman DARE iteration and
frequency-domain loop margins.  Everything works on plain numpy arrays;
dynamic systems enter as :class:`~lti2mpc.statespace.DtStateSpace`.
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


def _lyapunov_residual(A, P, Q):
    """||A P A^T - P + Q|| and the bound 1e-9 (||Q|| + ||P||) it must meet;
    on stacks (leading axes) one pair per member."""
    fro = lambda M: np.linalg.norm(M, axis=(-2, -1))
    # a contiguous A^T keeps the stacked product on the BLAS path
    resid = fro(A @ P @ np.ascontiguousarray(np.swapaxes(A, -1, -2)) - P + Q)
    bound = 1e-9 * (fro(Q) + fro(P))
    return resid, np.maximum(bound, 1e-300)


def _inner(M, N):
    """trace(M N') per stack member; _inner(M, M) is ||M||_F^2."""
    return np.einsum("...ij,...ij->...", M, N)


# Doublings after which a member the Stein iteration has not certified is
# judged by its eigenvalues: 2^60 terms of the series, which certify every
# normal A whose spectral radius is a float below 1, since
# (1 - 2^-53)^(2^60) = e^-128.
_STEIN_MAX_DOUBLINGS = 60


def _stein_stack(A, Q):
    """Solve A P A^T - P + Q = 0 on a stack, by one squared Smith
    iteration per member shared by its right-hand sides.

    A is (k, n, n) and Q (k, m, n, n): m right-hand sides per state
    matrix.  From P = Q and A_s = A, each doubling sets P <- P + A_s P A_s^T,
    then A_s <- A_s^2 (the G = 0 case of :func:`_dare_doubling`).  A member
    stops once ||A_s||_F < 1, which proves A stable, and the last step of
    each right-hand side is below 1e-10 ||P||.  Returns the symmetrised P
    (k, m, n, n) and, per member, status 1 (certified), 0 (not certified
    within _STEIN_MAX_DOUBLINGS doublings) or -1 (its iterates overflowed).
    """
    def double(state):
        A_s, P = state
        At = np.ascontiguousarray(A_s.transpose(0, 2, 1))  # on the BLAS path
        step = A_s[:, np.newaxis] @ P @ At[:, np.newaxis]
        P = P + step
        A_s = A_s @ A_s
        a2, p2 = _inner(A_s, A_s), _inner(P, P)
        converged = (a2 < 1.0) & (_inner(step, step) <= 1e-20 * p2).all(axis=1)
        finite = np.isfinite(a2) & np.isfinite(p2).all(axis=1)
        return (A_s, P), np.where(finite, converged, -1)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is a breakdown
        (_, P), status = _freeze_each((A, Q), double, _STEIN_MAX_DOUBLINGS)
    return 0.5 * (P + P.transpose(0, 1, 3, 2)), status


def _h2_stack(A, maps) -> np.ndarray:
    """H2 norms of systems that share their state matrix, on a stack.

    ``maps`` is a sequence of (B, C, D) stacks with the leading axis of A
    (k, n, n), or broadcastable to it.  Returns the (k, len(maps)) norms
    sqrt(trace(C P C^T + D D^T)), P each map's Gramian from one
    :func:`_stein_stack` per member.  A norm is NaN, not certified, where
    the Gramian misses the residual bound 1e-9 (||Q|| + ||P||) of
    :func:`_lyapunov_residual`, or the trace is below -1e-12 times its
    terms' scale ||C||_F^2 ||P||_F + ||D||_F^2 (a Gramian that far from
    positive semidefinite certifies no norm).  A member the doubling does
    not certify scores inf where an eigenvalue of A is on or outside the
    unit circle, and NaN otherwise.
    """
    k = len(A)
    maps = [tuple(np.broadcast_to(M, (k,) + M.shape[-2:]) for M in m) for m in maps]
    Q = np.stack([B @ B.transpose(0, 2, 1) for B, _, _ in maps], axis=1)
    P, status = _stein_stack(A, Q)

    out = np.full((k, len(maps)), np.nan)
    certified = np.flatnonzero(status == 1)
    resid, bound = _lyapunov_residual(A[certified, np.newaxis], P[certified], Q[certified])
    for j, (_, C, D) in enumerate(maps):
        Cm, Dm, Pm = C[certified], D[certified], P[certified, j]
        dd = _inner(Dm, Dm)
        val = _inner(Cm @ Pm, Cm) + dd  # trace(C P C' + D D')
        scale = _inner(Cm, Cm) * np.sqrt(_inner(Pm, Pm)) + dd
        ok = (resid[:, j] <= bound[:, j]) & (val >= -1e-12 * scale)
        # tiny negative values can appear through cancellation
        out[certified, j] = np.where(ok, np.sqrt(np.maximum(val, 0.0)), np.nan)
    rest = np.flatnonzero(status != 1)
    out[rest[np.abs(np.linalg.eigvals(A[rest])).max(axis=1, initial=0.0) >= 1.0]] = np.inf
    return out


def _noise_weights(Qn, Rn):
    """(q, sqrt(r)) of the free-pole Kalman design's scalar weights: the
    process covariance q I and the measurement covariance r I.  A
    ValueError naming the weight refuses a Qn or Rn whose shape is not ()
    or (1,), a non-finite one, q < 0 and r <= 0."""

    def scalar(X, name, why):
        if np.shape(X) not in ((), (1,)):
            raise ValueError(f"{name} must be a scalar, got shape {np.shape(X)}: {why}")
        x = np.asarray(X, dtype=float).item()
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
        return x

    q = scalar(Qn, "Qn", "the free-pole basis T_perp is an arbitrary orthonormal basis "
               "of null(T), so a matrix Qn has no basis-free meaning")
    if q < 0.0:
        raise ValueError("Qn must be positive semidefinite")
    r = scalar(Rn, "Rn", "the free-pole design weights all its measurements alike")
    if r <= 0.0:
        raise ValueError("Rn must be positive definite")
    return q, math.sqrt(r)


def _kalman_gains(A, C, q, lr):
    """Steady-state Kalman predictor gains of a stack of pairs A (k, n, n),
    C (k, ny, n) for x+ = Ax + w, y = Cx + v, with the scalar weights
    (q, lr) from :func:`_noise_weights`: process covariance Qn = q I and
    measurement covariance Rn = lr^2 I.

    Each member solves the filter-type DARE

        P = A P A^T + Qn - A P C^T (C P C^T + Rn)^-1 C P A^T

    by a structure-preserving doubling iteration (:func:`_dare_doubling`),
    and its gain L = A P C^T (C P C^T + Rn)^-1 places the predictor poles:
    A - L C is stable whenever (C, A) is detectable and the noise pair is
    stabilising.

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
    residual A M^-1 P A' - P + Qn and the gain.
    """
    k, n = A.shape[:2]
    ny = C.shape[1]
    if C.shape[2] != n:
        raise ValueError(f"C has {C.shape[2]} columns, expected {n}")
    Qn = q * np.eye(n)
    V = C * (1.0 / lr)  # Rn^-1/2 C
    G = V.transpose(0, 2, 1) @ V
    CtRi = (V * (1.0 / lr)).transpose(0, 2, 1)  # (Rn^-1 C)'
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
    G = C' Rn^-1 C (k, n, n) and the process covariance Qn (n, n), which
    the free-pole design sets to q I (see :func:`_kalman_gains`).

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


def loop_margins(L: DtStateSpace) -> LoopMargins:
    """Gain, phase and delay margins of a SISO discrete-time loop.

    The loop closes as ``signal = L(signal)``, the package's convention (see
    :func:`~lti2mpc.realisation.margin_loop`), so the critical point of L
    is +1; negate C and D for the classical -1 point.  L is folded to the
    -1 point, G = -L, and its crossings are unit-circle eigenvalues (the
    level-set method of Boyd, Balakrishnan & Kabamba, 1989, and Bruinsma &
    Steinbuch, 1990): phase crossings are the zeros of G(z) - G(1/z), unity
    crossings those of G(1/z) G(z) - 1, each the finite generalized
    eigenvalues of a Rosenbrock pencil of size 3n + 1 in which G(1/z) has a
    descriptor realisation, so a singular A is allowed.  omega*Ts = 0 and pi
    always count as phase crossings.  An eigenvalue (alpha, beta) counts
    when | |alpha| - |beta| | <= sqrt(eps) (|alpha| + |beta|), and only if
    ``freq_response`` confirms it: |Im G| <= 1e-6 |G| at a phase crossing,
    | |G| - 1 | <= 1e-6 at a unity crossing.  A candidate with
    cond_1(zI - A) >= 1/sqrt(eps) sits on a pole of the realisation, where
    G is round-off, and is dropped (a test on the distance to eig(A) would
    miss a defective pole, whose eigenvalues are off by up to eps**(1/k)).

    Gain margin is the smallest gain increase that reaches the critical
    point over all negative-real-axis crossings; phase and delay margins
    come from the unity crossing (omega > 0) with the least delay headroom.
    A static loop (n = 0) has the gain margin 1/|G| when -1 < G < 0.

    Raises ValueError for a loop that is not SISO, and NumericalError for a
    singular pencil: |L| = 1 at every frequency (an all-pass loop), or L
    real on the whole unit circle (dynamics that never reach the output).
    """
    import scipy.linalg  # local: the realisation search stays scipy-free

    if L.n_u != 1 or L.n_y != 1:
        raise ValueError("loop_margins expects a SISO system")
    n, A, B, C, d = L.n, L.A, L.B, -L.C, -float(L.D[0, 0])
    I, O, o = np.eye(n), np.zeros((n, n)), np.zeros((n, 1))
    # states (x, v, p): (zI - A) x = B u realises G(z); z v = p and
    # 0 = v - A p + B u with output -C p + d u realise G(1/z)
    E = scipy.linalg.block_diag(I, I, O, 0.0)
    reflect = np.block([[O, O, I, o], [O, I, -A, B]])
    pencils = {"phase": (np.block([[A, O, O, B], [reflect], [C, o.T, C, 0.0]]),
                         "L is real at every frequency"),
               "unity": (np.block([[A, O, -B @ C, d * B], [reflect],
                                   [C, o.T, -d * C, d * d - 1.0]]),
                         "|L| = 1 at every frequency")}
    tol = math.sqrt(np.finfo(float).eps)
    found = {"phase": [], "unity": []}
    for name, (M, singular) in pencils.items():
        w_ts = [0.0, math.pi] if name == "phase" else []
        if n or name == "unity":  # for n = 0, G(z) - G(1/z) is identically 0
            alpha, beta = scipy.linalg.eigvals(M, E, homogeneous_eigvals=True)
            a, b = np.abs(alpha), np.abs(beta)
            if np.any(np.maximum(a / max(np.linalg.norm(M, 1), 1.0), b) <= tol):
                raise NumericalError(f"loop_margins: the {name}-crossing pencil is singular: "
                                     f"{singular}")
            on_circle = np.abs(a - b) <= tol * (a + b)
            w_ts += list(np.abs(np.angle(alpha[on_circle] / beta[on_circle])))
        for w in w_ts:
            if n and np.linalg.cond(np.exp(1j * w) * I - A, 1) * tol >= 1.0:
                continue
            g = complex(-L.freq_response(w)[0, 0, 0])
            if (abs(g.imag) <= 1e-6 * abs(g)) if name == "phase" else (abs(abs(g) - 1.0) <= 1e-6):
                found[name].append((w, g))

    gm_candidates = [abs(g) for _, g in found["phase"] if g.real < 0.0 and abs(g) < 1.0]
    unity = [(w, g) for w, g in found["unity"] if w > 0.0]
    phase_margin = delay_margin = math.inf
    crossover = math.nan
    for w, g in unity:
        margin = (math.atan2(g.imag, g.real) + math.pi) % (2.0 * math.pi)
        if margin / w < delay_margin:
            phase_margin, delay_margin, crossover = margin, margin / w, w / L.Ts
    return LoopMargins(
        gain_margin=1.0 / max(gm_candidates) if gm_candidates else math.inf,
        phase_margin=phase_margin,
        delay_margin=delay_margin,
        crossover_frequency=crossover,
        phase_crossing_found=bool(gm_candidates),
        unity_crossing_found=bool(unity),
    )
