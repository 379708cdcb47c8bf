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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EigenStructure,
    LoopMargins,
    NumericalError,
    _kalman_gains,
    _modal_h2_stack,
    eig_paired,
    loop_margins,
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


def _real_eigenbasis(eig: EigenStructure):
    """Real basis of the whole spectrum, and the eigenvalue each column spans.

    A real eigenvalue contributes its eigenvector; a conjugate pair
    contributes (Re u, Im u) of the member with positive imaginary part,
    both owned by the pair's lower index.  Columns are in index order, so
    the columns owned by a sorted index set form, in order, the real basis
    of its invariant subspace (see :func:`_columns`).
    """
    cols, owner = [], []
    for i, j in enumerate(eig.pair_index):
        if j is None:
            cols.append(eig.vectors[:, i].real)
            owner.append(i)
        elif i < j:
            u = eig.vectors[:, i if eig.values[i].imag > 0 else j]
            cols += [u.real, u.imag]
            owner += [i, i]
    return np.column_stack(cols), np.array(owner)


def _columns(eig: EigenStructure, owner, selections) -> np.ndarray:
    """(k, n) indices of the real-eigenbasis columns spanning each of k
    equally sized index selections."""
    sizes = [len(indices) for indices in selections]
    chosen = np.zeros((len(selections), eig.n), dtype=bool)
    chosen[np.repeat(np.arange(len(sizes)), sizes),
           np.fromiter(itertools.chain.from_iterable(selections), int, sum(sizes))] = True
    partner = [i if j is None else j for i, j in enumerate(eig.pair_index)]
    split = np.argwhere(chosen & ~chosen[:, partner])
    if split.size:
        i = int(split[0, 1])
        raise ValueError(f"conjugate pair ({i}, {partner[i]}) split by the selection")
    return np.nonzero(chosen[:, owner])[1].reshape(len(selections), -1)


def solve_T(A_cl: np.ndarray, choice: RealisationChoice, eig: EigenStructure) -> TSolveResult:
    """Solve the non-symmetric Riccati equation for one eigenvalue split.

    Builds [U1; U2] from the S-set eigenvectors and returns T = U2 U1^-1.
    The split is declared infeasible when U1 is ill conditioned (> 1e10)
    or the residual of [-T I] A_cl [I; T] exceeds 1e-8 ||A_cl||.
    """
    basis, owner = _real_eigenbasis(eig)
    U = basis.T[_columns(eig, owner, [choice.state_feedback_set])].transpose(0, 2, 1)
    T, resid, reasons = _solve_T_stack(A_cl, U)
    if reasons[0]:
        return TSolveResult(False, None, float(resid[0]), reasons[0])
    return TSolveResult(True, T[0], float(resid[0]))


def _solve_T_stack(A_cl: np.ndarray, U: np.ndarray):
    """solve_T on a stack of invariant-subspace bases U (k, n + n_K, n).

    Returns (T, residual, reasons): the (k, n_K, n) solutions (NaN where
    U1 is ill conditioned), their Riccati residuals (inf there) and, per
    member, "" or why the split is infeasible.
    """
    k, m, n = U.shape
    U1, U2 = U[:, :n], U[:, n:]
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.linalg.svd(U1, compute_uv=False)
        cond = sv[:, 0] / sv[:, -1]
    ok = np.isfinite(cond) & (cond <= _COND_LIMIT)
    T = np.full((k, m - n, n), np.nan)
    resid = np.full(k, math.inf)
    T[ok] = np.linalg.solve(
        U1[ok].transpose(0, 2, 1), U2[ok].transpose(0, 2, 1)
    ).transpose(0, 2, 1)
    resid[ok] = _riccati_residuals(A_cl, T[ok])
    bound = _RESID_TOL * np.linalg.norm(A_cl)
    reasons = [
        "" if r <= bound else f"residual {r:.2e} above {bound:.2e}" for r in resid
    ]
    for i in np.flatnonzero(~ok):
        reasons[i] = "U1 ill conditioned"
    return T, resid, reasons


def riccati_residual(A_cl: np.ndarray, T: np.ndarray) -> float:
    return float(_riccati_residuals(A_cl, T[np.newaxis])[0])


def _riccati_residuals(A_cl, T) -> np.ndarray:
    """||[-T I] A_cl [I; T]|| for each member of a stack T (k, n_K, n)."""
    k, n_K, n = T.shape
    left = np.concatenate([-T, np.broadcast_to(np.eye(n_K), (k, n_K, n_K))], axis=2)
    right = np.concatenate([np.broadcast_to(np.eye(n), (k, n, n)), T], axis=1)
    return np.linalg.norm(left @ A_cl @ right, axis=(1, 2))


def _t_svds(T: np.ndarray):
    """One SVD per member of a stack T (k, n_K, n), shared by everything a
    split needs from it.

    Returns (sv, T_perp, T_pinv): the singular values for the rank test,
    an orthonormal basis of the right null space of each T with a
    deterministic sign (largest-magnitude entry of each column positive),
    and pinv(T) with numpy's default cutoff.
    """
    n_K = T.shape[1]
    u, sv, vh = np.linalg.svd(T)
    basis = vh[:, n_K:].transpose(0, 2, 1)
    lead = np.argmax(np.abs(basis), axis=1)[:, np.newaxis]
    basis = np.where(np.take_along_axis(basis, lead, axis=1) < 0, -basis, basis)
    big = sv > 1e-15 * sv.max(axis=1, initial=0.0, keepdims=True)
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=big)
    T_pinv = vh[:, :n_K].transpose(0, 2, 1) @ (
        inv[:, :, np.newaxis] * u[:, :, :n_K].transpose(0, 2, 1)
    )
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
    X, errors = _free_pole_gains(G, K, _t_svds(T[np.newaxis])[1], Qn, Rn)
    if errors[0] is not None:
        raise errors[0]
    return X[0]


def _free_pole_gains(G, K, T_perp, Qn, Rn):
    """design_free_poles on a stack of T-perp bases (k, n, n - n_K).

    Returns (X, errors): the (k, n - n_K, n_K) gains and, per member, None
    or the error design_free_poles raises for it -- NumericalError for an
    undetectable reduced pair or a failed DARE, ValueError for bad
    covariances.
    """
    A_shift = G.A + G.B @ K.D @ G.C
    A_red = T_perp.transpose(0, 2, 1) @ A_shift @ T_perp
    C_red = K.B @ G.C @ T_perp
    errors = [None] * len(T_perp)
    for i, values in enumerate(np.linalg.eigvals(A_red)):
        marginal = [lam for lam in values if abs(lam) >= 1.0 - 1e-9]
        bad = unobservable_modes(A_red[i], C_red[i], marginal) if marginal else []
        if bad:
            errors[i] = NumericalError(
                "free-pole design: reduced pair undetectable at modes "
                + ", ".join(f"{complex(marginal[j]):.4f}" for j in bad)
            )
    X = np.full((len(T_perp), C_red.shape[2], C_red.shape[1]), np.nan)
    live = [i for i, e in enumerate(errors) if e is None]
    if live:
        try:
            X[live], dare_errors = _kalman_gains(A_red[live], C_red[live], Qn, Rn)
        except ValueError as exc:
            dare_errors = [exc] * len(live)
        for i, e in zip(live, dare_errors):
            errors[i] = e
    return X, errors


class _Form:
    def noise_system(self, r, G, K):
        return DtStateSpace(*self.noise_matrices(G, K, r.K_f), G.Ts)


class _FilterForm(_Form):
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

    def feedthrough_gap(self, K_c, K_f, K):
        return K_c @ K_f - K.D

    def noise_matrices(self, G, K, K_f):
        A, C = G.A, G.C
        ImKfC = np.eye(G.n) - K_f @ C
        return A @ ImKfC, A @ K_f, C @ ImKfC, C @ K_f

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


class _PredictorForm(_Form):
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

    def feedthrough_gap(self, K_c, K_f, K):
        return None

    def noise_matrices(self, G, K, K_f):
        A_shift = G.A + G.B @ K.D @ G.C
        Ae = A_shift - K_f @ G.C
        return Ae, K_f, G.C, np.zeros(K_f.shape[:-2] + (G.n_y, G.n_y))

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
# preconditions; gains(G, K, T, T_dagger) -> (K_c, K_f);
# feedthrough_gap(K_c, K_f, K), K_c K_f - D_K where the form makes it zero
# (else None); noise_matrices(G, K, K_f) -> (A, B, C, D) of the
# measured-output-to-estimate map, whose state matrix is the observer
# error dynamics, and noise_system, that map as a system; controller, the
# observer-based controller from y to u;
# margin_loop -> (A_ol, C_ol); and, for the simulation, estimate(obs, y),
# the estimate the control step reads, and advance(obs, u, y), the
# observer update once u is known.  gains, feedthrough_gap and
# noise_matrices also take stacks (a leading axis on T, T_dagger, K_c, K_f).
_FORMS = {"filter": _FilterForm(), "predictor": _PredictorForm()}


def _form(name):
    """The filter- or predictor-form formulas, by ``ObserverRealisation.form``."""
    try:
        return _FORMS[name]
    except KeyError:
        raise ValueError(f"unknown form {name!r}") from None


def _check_orders(G, K):
    """An observer realisation needs 1 <= n_K <= n (T is n_K x n of full row rank)."""
    if K.n == 0:
        raise ValueError(
            "the controller is static (no states); an observer realisation "
            "needs a dynamic controller, n_K >= 1"
        )
    if K.n > G.n:
        raise ValueError(
            f"controller order {K.n} exceeds plant order {G.n}; an observer "
            "realisation needs n_K <= n, so augment the plant first"
        )


def _form_error(f, G, K):
    """The ValueError of the form's preconditions on (G, K), or None."""
    try:
        f.check(G, K)
    except ValueError as exc:
        return exc
    return None


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
    away first).  A static controller, or one of higher order than the
    plant, is refused.
    """
    f = _form(form)
    _check_orders(G, K)
    if G.n != T.shape[1] or K.n != T.shape[0]:
        raise ValueError("T shape does not match the (G, K) dimensions")
    n_K, n = T.shape
    if X is None:
        X = np.zeros((n - n_K, n_K))
    X = np.asarray(X, dtype=float).reshape(n - n_K, n_K)
    A_cl = closed_loop_matrix(G, K)
    T = T[np.newaxis]
    (out,) = _build_stack(
        form, G, K, T, _t_svds(T), X[np.newaxis], _riccati_residuals(A_cl, T),
        _RESID_TOL * np.linalg.norm(A_cl), _form_error(f, G, K), [choice],
    )
    if isinstance(out, Exception):
        raise out
    return out


def _build_stack(form, G, K, T, t_svd, X, resid, bound, form_error, choices) -> list:
    """build_realisation on a stack of Riccati solutions T (k, n_K, n).

    ``t_svd`` is ``_t_svds(T)``, X the (k, n - n_K, n_K) free-pole gains,
    ``resid`` the Riccati residuals, ``bound`` the residual bound and
    ``form_error`` the form's precondition error (or None).  Returns, per
    member, the ObserverRealisation or the error build_realisation raises:
    rank deficiency first, then the form's preconditions, then the
    invariant checks.
    """
    f = _FORMS[form]
    sv, T_perp, T_pinv = t_svd
    out = [
        ValueError("T is rank deficient") if deficient else form_error
        for deficient in sv[:, -1] <= 1e-8 * sv[:, 0]
    ]
    live = [i for i, e in enumerate(out) if e is None]
    if not live:
        return out
    T, T_perp, X, resid = T[live], T_perp[live], X[live], resid[live]
    K_c, K_f = f.gains(G, K, T, T_pinv[live] + T_perp @ X)
    errors = _check_stack(f, K, T, T_perp, K_c, K_f, resid, bound)
    for m, i in enumerate(live):
        out[i] = errors[m] or ObserverRealisation(
            form=form,
            T=T[m].copy(),
            T_perp=T_perp[m].copy(),
            X=X[m].copy(),
            K_c=K_c[m].copy(),
            K_f=K_f[m].copy(),
            choice=choices[i],
            riccati_residual=float(resid[m]),
        )
    return out


def _check_stack(f, K, T, T_perp, K_c, K_f, resid, bound) -> list:
    """The ObserverRealisation invariants of each stacked member: None, or
    the NumericalError of the first check it fails."""
    fro = lambda M: np.linalg.norm(M, axis=(1, 2))
    errors = [
        NumericalError(f"Riccati residual {r:.2e} above {bound:.2e}") if r > bound else None
        for r in resid
    ]
    if T_perp.shape[2]:
        ortho = fro(T_perp.transpose(0, 2, 1) @ T_perp - np.eye(T_perp.shape[2]))
        null = fro(T @ T_perp)
        for i in np.flatnonzero((ortho > 1e-10) | (null > 1e-10 * np.maximum(1.0, fro(T)))):
            errors[i] = errors[i] or NumericalError("T_perp basis failed orthogonality checks")
    gap = f.feedthrough_gap(K_c, K_f, K)
    if gap is not None:
        err = fro(gap)
        for i in np.flatnonzero(err > 1e-8 * (1.0 + np.linalg.norm(K.D))):
            errors[i] = errors[i] or NumericalError(f"K_c K_f - D_K = {err[i]:.2e}, expected 0")
    return errors


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
    num = np.linalg.norm(R1 - R0, 2, axis=(1, 2))
    den = 1.0 + np.linalg.norm(R0, 2, axis=(1, 2))
    return max([0.0, *(num / den)])


def _dist_injection(G):
    """(E, D) of the disturbance-to-estimate map used for the h2_dist score.

    The error dynamics Ae are driven through the designated disturbance-state
    channels (identity injection on those rows); the output is the full
    estimate deviation, which carries a direct -I feedthrough on the same
    rows.
    """
    n = G.n
    dist = tuple(G.disturbance_states)
    if not dist:
        return np.eye(n), np.zeros((n, n))
    E = np.zeros((n, len(dist)))
    D = np.zeros((n, len(dist)))
    for j, s in enumerate(dist):
        E[s, j] = 1.0
        D[s, j] = -1.0
    return E, D


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
    h2 = _h2_scores(_form(r.form), G, K, r.K_f[np.newaxis])
    return _score(r, G, h2[0], margin_cut)


def _h2_scores(f, G, K, K_f) -> np.ndarray:
    """(h2_noise, h2_dist) rows for a stack of injection gains K_f, inf
    where the error dynamics are unstable."""
    Ae, B, C, D = f.noise_matrices(G, K, K_f)
    E, D_dist = _dist_injection(G)
    values = np.empty(Ae.shape[:2], dtype=complex)
    vectors = np.empty(Ae.shape, dtype=complex)
    for i, A in enumerate(Ae):  # stacking does not speed up LAPACK's eig
        values[i], vectors[i] = np.linalg.eig(A)
    maps = [(B, C, D), (E, np.eye(G.n), D_dist)]
    return _modal_h2_stack(Ae, maps, values, vectors, G.Ts)


def _score(r, G, h2, margin_cut) -> RealisationScore:
    h2n, h2d = float(h2[0]), float(h2[1])
    if not math.isfinite(h2n):
        return RealisationScore(math.inf, math.inf, math.inf, None, stable=False)
    margins = None
    if margin_cut is not None:
        margins = loop_margins(margin_loop(r, G, margin_cut), feedback_sign=1)
    return RealisationScore(h2n, h2d, h2n * h2d, margins)


# Splits per stacked chunk of the search: enough to pay the Python
# overhead once per chunk, few enough to keep each chunk's stacks at a
# few MB (on the 21-state surrogate, 256 raised the peak resident memory
# of a search by ~10 MB over 64, at the same speed).
_CHUNK = 64


class _Search:
    """The constants of one search over (G, K), and the stacked kernel that
    solves, designs, builds and scores its splits a chunk at a time."""

    def __init__(self, G, K, form, Qn, Rn, margin_cut):
        self.G, self.K, self.form = G, K, form
        self.Qn, self.Rn, self.margin_cut = Qn, Rn, margin_cut
        self.A_cl = closed_loop_matrix(G, K)
        self.eig = eig_paired(self.A_cl)
        self.basis, self.owner = _real_eigenbasis(self.eig)
        self.bound = _RESID_TOL * np.linalg.norm(self.A_cl)
        self.form_error = _form_error(_FORMS[form], G, K)

    def evaluate(self, choices) -> list:
        """Per choice, (ObserverRealisation, RealisationScore) or the
        reason the split was rejected."""
        G, K = self.G, self.K
        cols = _columns(self.eig, self.owner, [c.state_feedback_set for c in choices])
        T, resid, out = _solve_T_stack(self.A_cl, self.basis.T[cols].transpose(0, 2, 1))
        live = np.array([i for i, reason in enumerate(out) if not reason], dtype=int)
        if not live.size:
            return out
        T, resid = T[live], resid[live]
        t_svd = _t_svds(T)
        if K.n < G.n:
            X, errors = _free_pole_gains(G, K, t_svd[1], self.Qn, self.Rn)
        else:
            X, errors = np.zeros((live.size, 0, K.n)), [None] * live.size
        for i, e in zip(live, errors):
            if e is not None:
                out[i] = str(e)
        keep = [m for m, e in enumerate(errors) if e is None]
        live = live[keep]
        built = _build_stack(
            self.form, G, K, T[keep], [a[keep] for a in t_svd], X[keep], resid[keep],
            self.bound, self.form_error, [choices[i] for i in live],
        )
        realisations = []
        for i, b in zip(live, built):
            if isinstance(b, Exception):
                out[i] = str(b)
            else:
                realisations.append((i, b))
        if realisations:
            K_f = np.stack([r.K_f for _, r in realisations])
            h2 = _h2_scores(_FORMS[self.form], G, K, K_f)
            for (i, r), row in zip(realisations, h2):
                out[i] = (r, _score(r, G, row, self.margin_cut))
        return out


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
    unknown ``form``, a static controller, or a controller of higher order
    than the plant raises ValueError before any split is solved.  The
    splits are evaluated in stacked chunks in this process; ``workers`` is
    accepted for compatibility and ignored.  Results are sorted ascending by the
    chosen metric ("product" or "noise"), ties broken by the S index tuple.
    """
    if rank_by not in ("product", "noise"):
        raise ValueError("rank_by must be 'product' or 'noise'")
    _form(form)
    _check_orders(G, K)
    search = _Search(G, K, form, Qn, Rn, margin_cut)
    if forced_S is None:
        B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
        forced_S = unobservable_modes(search.A_cl.T, B_cl.T, search.eig.values)
    choices = enumerate_choices(search.eig, G.n, K.n, forced_S)

    result = SearchResult()
    for start in range(0, len(choices), _CHUNK):
        chunk = choices[start : start + _CHUNK]
        for choice, outcome in zip(chunk, search.evaluate(chunk)):
            if isinstance(outcome, str):
                result.rejected.append((choice, outcome))
            else:
                result.ranked.append(outcome)
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
