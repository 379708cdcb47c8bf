"""Observer realisations of an existing output-feedback controller.

Given a plant G and a stabilising controller K with closed-loop state
matrix A_cl, every way of splitting the closed-loop eigenvalues into a
state-feedback set S (|S| = n) and an observer set O (|O| = n_K) that
admits a real solution T of the non-symmetric Riccati equation

    [-T  I] A_cl [I; T] = 0

yields gains (K_c, K_f) realising K as an observer plus state feedback.
This module enumerates the splits, solves for T via invariant subspaces,
assigns the free observer poles through the T-dagger parametrisation,
scores realisations by H2 norms, and verifies controller equivalence.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EigenStructure,
    LoopMargins,
    NumericalError,
    UnstableSystemError,
    eig_paired,
    loop_margins,
    modal_h2_norms,
    solve_dare_kalman,
)
from .runtime import filter_measurement_update, filter_time_update, predictor_observer_step
from .statespace import DtStateSpace, unobservable_modes

__all__ = [
    "RealisationChoice",
    "TSolveResult",
    "ObserverRealisation",
    "RealisationScore",
    "SearchResult",
    "closed_loop_matrix",
    "enumerate_choices",
    "solve_T",
    "design_free_poles",
    "build_realisation",
    "realisation_controller",
    "margin_loop",
    "verify_equivalence",
    "score_realisation",
    "search_realisations",
    "check_decoupling",
]

_COND_LIMIT = 1e10
_RESID_TOL = 1e-8


@dataclass(frozen=True)
class RealisationChoice:
    """One eigenvalue split: S goes to state feedback, O to the observer."""

    state_feedback_set: tuple
    observer_set: tuple

    def __post_init__(self):
        if set(self.state_feedback_set) & set(self.observer_set):
            raise ValueError("S and O overlap")


@dataclass
class TSolveResult:
    """Outcome of solve_T; infeasibility is a result, not an exception."""

    feasible: bool
    T: np.ndarray | None
    residual: float
    reason: str = ""


@dataclass
class ObserverRealisation:
    form: str  # "filter" | "predictor"
    T: np.ndarray
    T_perp: np.ndarray
    X: np.ndarray
    K_c: np.ndarray
    K_f: np.ndarray
    choice: RealisationChoice | None
    riccati_residual: float


@dataclass
class RealisationScore:
    """Prop.-1 style quality metrics; smaller is better."""

    h2_noise: float
    h2_dist: float
    product: float
    margins: LoopMargins | None = None
    stable: bool = True


@dataclass
class SearchResult:
    ranked: list = field(default_factory=list)  # (ObserverRealisation, RealisationScore)
    rejected: list = field(default_factory=list)  # (RealisationChoice, reason)


def closed_loop_matrix(G: DtStateSpace, K: DtStateSpace) -> np.ndarray:
    """State matrix of the positive closure u = K(y), y = G(u).

    Returns [[A + B D_K C, B C_K], [B_K C, A_K]].  The plant must be
    strictly proper so the interconnection is well posed.
    """
    if np.any(G.D != 0.0):
        raise ValueError("closed_loop_matrix expects a strictly proper plant")
    return np.block(
        [[G.A + G.B @ K.D @ G.C, G.B @ K.C], [K.B @ G.C, K.A]]
    )


def _value_groups(eig: EigenStructure) -> list:
    """Indices grouped into selection atoms: conjugate pairs stay together
    and eigenvalues equal within 1e-7 (relative) are fused into one block."""
    n = eig.n
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i in range(n):
        if eig.pair_index[i] is not None:
            union(i, eig.pair_index[i])
    vals = eig.values
    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= 1e-7 * (1.0 + abs(vals[i])):
                union(i, j)

    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(g)) for g in groups.values())


def enumerate_choices(
    eig: EigenStructure, n: int, n_K: int, forced_S=()
) -> list:
    """All admissible S/O splits of the closed-loop spectrum.

    Conjugate pairs and repeated eigenvalues travel as blocks; any block
    touching a forced-S index is placed in S unconditionally.  Output is
    ordered lexicographically by the S index tuple.
    """
    if eig.n != n + n_K:
        raise ValueError(f"spectrum has {eig.n} values, expected n + n_K = {n + n_K}")
    forced = set(forced_S)
    if not forced <= set(range(eig.n)):
        raise ValueError("forced_S contains out-of-range indices")

    atoms = _value_groups(eig)
    forced_atoms = [a for a in atoms if forced & set(a)]
    free_atoms = [a for a in atoms if not (forced & set(a))]
    base = [i for a in forced_atoms for i in a]
    need = n - len(base)
    if need < 0:
        raise ValueError(
            f"forced-S block of size {len(base)} exceeds |S| = {n}"
        )

    choices = []
    all_idx = set(range(eig.n))

    def rec(pos, picked, size):
        if size == need:
            s = tuple(sorted(base + [i for a in picked for i in a]))
            o = tuple(sorted(all_idx - set(s)))
            choices.append(RealisationChoice(s, o))
            return
        if pos == len(free_atoms) or size > need:
            return
        rec(pos + 1, picked + [free_atoms[pos]], size + len(free_atoms[pos]))
        rec(pos + 1, picked, size)

    rec(0, [], 0)
    choices.sort(key=lambda c: c.state_feedback_set)
    return choices


def _real_basis(eig: EigenStructure, indices) -> np.ndarray:
    """Stack the selected eigenvectors as a real basis of the invariant
    subspace, replacing each conjugate pair by (Re u, Im u)."""
    cols = []
    seen = set()
    for i in indices:
        if i in seen:
            continue
        j = eig.pair_index[i]
        if j is None:
            cols.append(eig.vectors[:, i].real)
            seen.add(i)
        else:
            if j not in set(indices):
                raise ValueError(
                    f"conjugate pair ({i}, {j}) split by the selection"
                )
            u = eig.vectors[:, i if eig.values[i].imag > 0 else j]
            cols.append(u.real)
            cols.append(u.imag)
            seen.update((i, j))
    return np.column_stack(cols)


def solve_T(A_cl: np.ndarray, choice: RealisationChoice, eig: EigenStructure) -> TSolveResult:
    """Solve the non-symmetric Riccati equation for one eigenvalue split.

    Builds [U1; U2] from the S-set eigenvectors and returns T = U2 U1^-1.
    The split is declared infeasible when U1 is ill conditioned (> 1e10)
    or the residual of [-T I] A_cl [I; T] exceeds 1e-8 ||A_cl||.
    """
    n = len(choice.state_feedback_set)
    U = _real_basis(eig, choice.state_feedback_set)
    U1 = U[:n, :]
    U2 = U[n:, :]
    cond = float(np.linalg.cond(U1))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        return TSolveResult(False, None, math.inf, "U1 ill conditioned")
    T = np.linalg.solve(U1.T, U2.T).T
    resid = riccati_residual(A_cl, T)
    bound = _RESID_TOL * np.linalg.norm(A_cl)
    if resid > bound:
        return TSolveResult(
            False, None, resid, f"residual {resid:.2e} above {bound:.2e}"
        )
    return TSolveResult(True, T, resid)


def riccati_residual(A_cl: np.ndarray, T: np.ndarray) -> float:
    n_K, n = T.shape
    left = np.hstack([-T, np.eye(n_K)])
    right = np.vstack([np.eye(n), T])
    return float(np.linalg.norm(left @ A_cl @ right))


def _t_svd(T: np.ndarray):
    """One SVD of T, shared by everything a split needs from it.

    Returns (sv, T_perp, T_pinv): the singular values for the rank test,
    an orthonormal basis of the right null space of T with a deterministic
    sign (largest-magnitude entry of each column positive), and pinv(T)
    with numpy's default cutoff.
    """
    n_K = T.shape[0]
    u, sv, vh = np.linalg.svd(T)
    basis = vh[n_K:].T
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    r = sv.size
    big = sv > 1e-15 * sv.max(initial=0.0)
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=big)
    T_pinv = vh[:r].T @ (inv[:, np.newaxis] * u[:, :r].T)
    return sv, basis, T_pinv


def design_free_poles(
    G: DtStateSpace, K: DtStateSpace, T: np.ndarray, Qn=1.0, Rn=1e7
) -> np.ndarray:
    """Free observer poles via a Kalman design on the T-perp subspace.

    When n_K < n the observer error dynamics have n - n_K modes that T does
    not pin down; they are assigned through X in T-dagger = T^+ + T_perp X.
    X is the steady-state Kalman gain for the reduced pair

        A_red = T_perp' (A + B D_K C) T_perp,   C_red = B_K C T_perp

    with process covariance Qn (scalar = that multiple of identity, i.e. an
    identity-injection noise channel) and measurement covariance Rn, so the
    extra modes are the eigenvalues of A_red - X C_red.
    """
    n_K, n = T.shape
    if n_K >= n:
        return np.zeros((0, n_K))
    return _free_pole_gain(G, K, _t_svd(T)[1], Qn, Rn)


def _free_pole_gain(G, K, Tp, Qn, Rn) -> np.ndarray:
    """design_free_poles on a given T-perp basis (n_K < n)."""
    A_shift = G.A + G.B @ K.D @ G.C
    A_red = Tp.T @ A_shift @ Tp
    C_red = K.B @ G.C @ Tp
    marginal = [lam for lam in np.linalg.eigvals(A_red) if abs(lam) >= 1.0 - 1e-9]
    bad = unobservable_modes(A_red, C_red, marginal)
    if bad:
        raise NumericalError(
            "free-pole design: reduced pair undetectable at modes "
            + ", ".join(f"{complex(marginal[i]):.4f}" for i in bad)
        )
    return solve_dare_kalman(A_red, C_red, Qn, Rn)


class _FilterForm:
    """The control reads x-hat(k|k): the measurement enters the estimate
    within the same step."""

    def check(self, G, K):
        k0 = K.D + K.C @ np.linalg.solve(-K.A, K.B)
        if np.linalg.norm(k0) > 1e-6 * (1.0 + np.linalg.norm(K.D)):
            raise ValueError(
                "filter form needs K(0) = 0; add a dipole to the controller"
            )
        if np.linalg.cond(G.A) > 1e12:
            raise ValueError("filter form needs a nonsingular plant A")
        if np.linalg.cond(K.A) > 1e12:
            raise ValueError("filter form needs a nonsingular controller A_K")

    def gains(self, G, K, T, T_dagger):
        K_c = K.D @ G.C + K.C @ T
        K_f = np.linalg.solve(G.A, T_dagger @ K.B - G.B @ K.D)
        return K_c, K_f

    def feedthrough_gap(self, r, K):
        return r.K_c @ r.K_f - K.D

    def noise_system(self, r, G, K):
        A, C = G.A, G.C
        ImKfC = np.eye(G.n) - r.K_f @ C
        return DtStateSpace(A @ ImKfC, A @ r.K_f, C @ ImKfC, C @ r.K_f, G.Ts)

    def controller(self, r, G, K):
        A, B, C = G.A, G.B, G.C
        ImKfC = np.eye(G.n) - r.K_f @ C
        Ac = (A + B @ r.K_c) @ ImKfC
        Bc = (A + B @ r.K_c) @ r.K_f
        return DtStateSpace(Ac, Bc, r.K_c @ ImKfC, r.K_c @ r.K_f, G.Ts)

    def margin_loop(self, r, G, cut):
        A, C, n = G.A, G.C, G.n
        A_ol = np.block([[A, np.zeros((n, n))], [A @ r.K_f @ C, A @ (np.eye(n) - r.K_f @ C)]])
        C_ol = np.hstack(
            [r.K_c @ r.K_f @ C, r.K_c @ (np.eye(n) - r.K_f @ C)]
        )[cut : cut + 1]
        return A_ol, C_ol

    def estimate(self, obs, y):
        return filter_measurement_update(obs, y)

    def advance(self, obs, u, y):
        filter_time_update(obs, u)


class _PredictorForm:
    """The control reads x-hat(k|k-1) and the observer advances in one
    shot; margin loops expect the already loop-shifted plant."""

    def check(self, G, K):
        if np.linalg.norm(K.D) > 0.0:
            raise ValueError(
                "predictor form needs a strictly proper controller; "
                "loop-shift the feedthrough into the plant first"
            )

    def gains(self, G, K, T, T_dagger):
        return K.C @ T, T_dagger @ K.B

    def feedthrough_gap(self, r, K):
        return None

    def noise_system(self, r, G, K):
        A_shift = G.A + G.B @ K.D @ G.C
        Ae = A_shift - r.K_f @ G.C
        return DtStateSpace(Ae, r.K_f, G.C, np.zeros((G.n_y, G.n_y)), G.Ts)

    def controller(self, r, G, K):
        A, B, C = G.A, G.B, G.C
        A_shift = A + B @ K.D @ C
        Ac = A_shift - r.K_f @ C + B @ r.K_c
        Dc = np.zeros((r.K_c.shape[0], r.K_f.shape[1]))
        return DtStateSpace(Ac, r.K_f, r.K_c, Dc, G.Ts)

    def margin_loop(self, r, G, cut):
        A, C, n = G.A, G.C, G.n
        A_ol = np.block([[A, np.zeros((n, n))], [r.K_f @ C, A - r.K_f @ C]])
        C_ol = np.hstack([np.zeros((1, n)), r.K_c[cut : cut + 1]])
        return A_ol, C_ol

    def estimate(self, obs, y):
        return obs.x_hat.copy()

    def advance(self, obs, u, y):
        predictor_observer_step(obs, u, y)


# Everything that differs between the two observer forms, keyed by
# ObserverRealisation.form.  Each entry gives: check(G, K), the form's
# preconditions; gains(G, K, T, T_dagger) -> (K_c, K_f); feedthrough_gap,
# K_c K_f - D_K where the form makes it zero (else None); noise_system,
# the measured-output-to-estimate map, whose state matrix is the observer
# error dynamics; controller, the observer-based controller from y to u;
# margin_loop -> (A_ol, C_ol); and, for the simulation, estimate(obs, y),
# the estimate the control step reads, and advance(obs, u, y), the
# observer update once u is known.
_FORMS = {"filter": _FilterForm(), "predictor": _PredictorForm()}


def _form(name):
    """The filter- or predictor-form formulas, by ``ObserverRealisation.form``."""
    try:
        return _FORMS[name]
    except KeyError:
        raise ValueError(f"unknown form {name!r}") from None


def build_realisation(
    form: str,
    G: DtStateSpace,
    K: DtStateSpace,
    T: np.ndarray,
    X: np.ndarray | None = None,
    choice: RealisationChoice | None = None,
) -> ObserverRealisation:
    """Assemble (K_c, K_f) from a Riccati solution T.

    filter form:    K_c = D_K C + C_K T,  K_f = A^-1 (T-dagger B_K - B D_K)
    predictor form: K_c = C_K T,          K_f = T-dagger B_K

    The filter form needs K(0) = 0 and nonsingular A and A_K; the predictor
    form needs a strictly proper controller (loop-shift the feedthrough
    away first).
    """
    if G.n != T.shape[1] or K.n != T.shape[0]:
        raise ValueError("T shape does not match the (G, K) dimensions")
    A_cl = closed_loop_matrix(G, K)
    return _build(form, G, K, T, _t_svd(T), X, choice, A_cl, riccati_residual(A_cl, T))


def _build(form, G, K, T, t_svd, X, choice, A_cl, resid) -> ObserverRealisation:
    """build_realisation on a given ``_t_svd(T)``, closed-loop matrix and
    Riccati residual."""
    f = _form(form)
    n_K, n = T.shape
    sv, T_perp, T_pinv = t_svd
    if sv[-1] <= 1e-8 * sv[0]:
        raise ValueError("T is rank deficient")

    if X is None:
        X = np.zeros((n - n_K, n_K))
    X = np.asarray(X, dtype=float).reshape(n - n_K, n_K)

    f.check(G, K)
    K_c, K_f = f.gains(G, K, T, T_pinv + T_perp @ X)
    r = ObserverRealisation(
        form=form,
        T=T,
        T_perp=T_perp,
        X=X,
        K_c=K_c,
        K_f=K_f,
        choice=choice,
        riccati_residual=resid,
    )
    _check_realisation(r, G, K, A_cl)
    return r


def _check_realisation(r, G, K, A_cl):
    """Verify the ObserverRealisation invariants; raise on violation."""
    bound = _RESID_TOL * np.linalg.norm(A_cl)
    if r.riccati_residual > bound:
        raise NumericalError(
            f"Riccati residual {r.riccati_residual:.2e} above {bound:.2e}"
        )
    if r.T_perp.size:
        ortho = np.linalg.norm(r.T_perp.T @ r.T_perp - np.eye(r.T_perp.shape[1]))
        if ortho > 1e-10 or np.linalg.norm(r.T @ r.T_perp) > 1e-10 * max(
            1.0, np.linalg.norm(r.T)
        ):
            raise NumericalError("T_perp basis failed orthogonality checks")
    gap = _form(r.form).feedthrough_gap(r, K)
    if gap is not None:
        err = np.linalg.norm(gap)
        if err > 1e-8 * (1.0 + np.linalg.norm(K.D)):
            raise NumericalError(f"K_c K_f - D_K = {err:.2e}, expected 0")


def realisation_controller(
    r: ObserverRealisation, G: DtStateSpace, K: DtStateSpace
) -> DtStateSpace:
    """The observer-based controller as an n-state system from y to u."""
    return _form(r.form).controller(r, G, K)


def margin_loop(
    r: ObserverRealisation, G: DtStateSpace, cut_input: int
) -> DtStateSpace:
    """Open-loop SISO system for margins, cut just after the controller
    output on one input channel.

    Plant and observer both run open loop on the injected signal; the
    return is the controller output on the same channel, so closing
    signal = L(signal) recovers the nominal loop (critical point +1).
    """
    A_ol, C_ol = _form(r.form).margin_loop(r, G, cut_input)
    b = G.B[:, cut_input : cut_input + 1]
    return DtStateSpace(A_ol, np.vstack([b, b]), C_ol, np.zeros((1, 1)), G.Ts)


def verify_equivalence(
    K_obs: DtStateSpace, K0: DtStateSpace, n_freq: int = 200
) -> float:
    """Max relative transfer-function deviation on a log frequency grid."""
    if (K_obs.n_u, K_obs.n_y) != (K0.n_u, K0.n_y):
        raise ValueError("systems have different I/O dimensions")
    w_ts = np.logspace(-4, math.log10(math.pi), n_freq)
    R1 = K_obs.freq_response(w_ts)
    R0 = K0.freq_response(w_ts)
    err = 0.0
    for k in range(n_freq):
        num = np.linalg.norm(R1[k] - R0[k], 2)
        den = 1.0 + np.linalg.norm(R0[k], 2)
        err = max(err, num / den)
    return err


def _dist_system(G, Ae) -> DtStateSpace:
    """Disturbance-to-estimate map used for the h2_dist score.

    The error dynamics Ae are driven through the designated disturbance-state
    channels (identity injection on those rows); the output is the full
    estimate deviation, which carries a direct -I feedthrough on the same
    rows.
    """
    n = G.n
    dist = tuple(G.disturbance_states)
    if not dist:
        E = np.eye(n)
        D = np.zeros((n, n))
    else:
        E = np.zeros((n, len(dist)))
        D = np.zeros((n, len(dist)))
        for j, s in enumerate(dist):
            E[s, j] = 1.0
            D[s, j] = -1.0
    return DtStateSpace(Ae, E, np.eye(n), D, G.Ts)


def score_realisation(
    r: ObserverRealisation,
    G: DtStateSpace,
    K: DtStateSpace,
    margin_cut: int | None = None,
) -> RealisationScore:
    """H2 quality metrics of one realisation (smaller is better).

    h2_noise is the norm of the map from the measured output to its own
    estimate; h2_dist is the norm of the disturbance-to-estimate map.  An
    unstable observer gets infinite scores rather than an error so that a
    search can rank past it.  Both maps run on the error dynamics Ae, so
    one eigendecomposition of Ae gives the stability test and both
    Gramians (see :func:`~lti2mpc.linalg.modal_h2_norms`, which checks
    each Gramian's Lyapunov residual and falls back to the Schur solver).
    """
    noise = _form(r.form).noise_system(r, G, K)
    dist = _dist_system(G, noise.A)
    try:
        h2n, h2d = modal_h2_norms((noise, dist), *np.linalg.eig(noise.A))
    except UnstableSystemError:
        return RealisationScore(math.inf, math.inf, math.inf, None, stable=False)
    margins = None
    if margin_cut is not None:
        margins = loop_margins(margin_loop(r, G, margin_cut), feedback_sign=1)
    return RealisationScore(h2n, h2d, h2n * h2d, margins)


def _evaluate_choice(args):
    """Solve, build and score one choice; used by the parallel search."""
    (idx, choice, A_cl, eig, G, K, form, Qn, Rn, margin_cut) = args
    res = solve_T(A_cl, choice, eig)
    if not res.feasible:
        return (idx, None, res.reason)
    try:
        t_svd = _t_svd(res.T)
        X = _free_pole_gain(G, K, t_svd[1], Qn, Rn) if K.n < G.n else None
        real = _build(form, G, K, res.T, t_svd, X, choice, A_cl, res.residual)
    except (ValueError, NumericalError) as exc:
        return (idx, None, str(exc))
    score = score_realisation(real, G, K, margin_cut)
    return (idx, (real, score), "")


def search_realisations(
    G: DtStateSpace,
    K: DtStateSpace,
    form: str = "filter",
    forced_S=None,
    Qn=1.0,
    Rn=1e7,
    rank_by: str = "product",
    margin_cut: int | None = None,
    workers: int | None = None,
) -> SearchResult:
    """Enumerate, solve, build and score every admissible realisation.

    forced_S defaults to the closed-loop modes that are uncontrollable
    from the plant input (those cannot leave the state-feedback set).  An
    unknown ``form`` raises ValueError before any split is solved.
    Results are sorted ascending by the chosen metric ("product" or
    "noise"), ties broken by the S index tuple; with ``workers`` > 1 the
    choices are evaluated in parallel and merged back in choice order, so
    the outcome is identical to the sequential run.
    """
    if rank_by not in ("product", "noise"):
        raise ValueError("rank_by must be 'product' or 'noise'")
    _form(form)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    if forced_S is None:
        B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
        forced_S = unobservable_modes(A_cl.T, B_cl.T, eig.values)
    choices = enumerate_choices(eig, G.n, K.n, forced_S)

    jobs = [
        (i, c, A_cl, eig, G, K, form, Qn, Rn, margin_cut)
        for i, c in enumerate(choices)
    ]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_choice, jobs, chunksize=64))
    else:
        outcomes = [_evaluate_choice(j) for j in jobs]
    outcomes.sort(key=lambda t: t[0])

    result = SearchResult()
    for idx, built, reason in outcomes:
        if built is None:
            result.rejected.append((choices[idx], reason))
        else:
            result.ranked.append(built)
    if not result.ranked:
        counts: dict = {}
        for _, reason in result.rejected:
            counts[reason] = counts.get(reason, 0) + 1
        detail = "; ".join(f"{v} x {k}" for k, v in sorted(counts.items()))
        raise NumericalError(f"no feasible realisation: {detail}")

    key = (lambda rs: rs[1].product) if rank_by == "product" else (lambda rs: rs[1].h2_noise)
    result.ranked.sort(key=lambda rs: (key(rs), rs[0].choice.state_feedback_set))
    return result


def check_decoupling(M: np.ndarray, blocks) -> float:
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
