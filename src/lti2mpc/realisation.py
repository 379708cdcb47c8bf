"""Observer realisations of an existing output-feedback controller.

Given a plant G and a stabilising controller K with closed-loop state
matrix A_cl, every way of splitting the closed-loop eigenvalues into a
state-feedback set S (|S| = n) and an observer set O (|O| = n_K) that
admits a real solution T of the non-symmetric Riccati equation

    [-T  I] A_cl [I; T] = 0

yields gains (K_c, K_f) realising K as an observer plus state feedback.
This module enumerates the splits, solves for T via invariant subspaces,
assigns the free observer poles through the T-dagger parametrisation,
scores realisations by H2 norms, and certifies controller equivalence
exactly from T (:func:`equivalence_residual`).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EigenStructure,
    NumericalError,
    UnstableSystemError,
    _h2_stack,
    _inner,
    _kalman_gains,
    _noise_weights,
    _solve_each,
    eig_paired,
)
from .statespace import DtStateSpace, unobservable_modes

__all__ = [
    "RealisationChoice",
    "ObserverRealisation",
    "ObserverState",
    "RealisationScore",
    "SearchResult",
    "closed_loop_matrix",
    "make_observer",
    "margin_loop",
    "equivalence_residual",
    "search_realisations",
]

_COND_LIMIT = 1e10
_RESID_TOL = 1e-8
_OBSERVABILITY_COND = 1e8  # above it, O_K does not determine T (see _recovered_T)
# Most splits a search enumerates: 12 times the full surrogate's 41958, and
# 76 MB of its int32 S and O rows (see _splits)
_MAX_SPLITS = 500_000


@dataclass(frozen=True)
class RealisationChoice:
    """One eigenvalue split: S goes to state feedback, O to the observer."""

    state_feedback_set: tuple
    observer_set: tuple

    def __post_init__(self):
        if not set(self.state_feedback_set).isdisjoint(self.observer_set):
            raise ValueError("S and O overlap")


@dataclass(frozen=True)
class ObserverRealisation:
    """A split's T (n_K x n), K_c (n_u x n) and K_f (n x n_y), read-only from a search.
    The free-pole T_perp and X stay in the search: T_perp is any orthonormal basis
    of null(T), so only T_perp X, which K_f carries, is determined by the design."""

    form: str  # "filter" | "predictor"
    T: np.ndarray
    K_c: np.ndarray
    K_f: np.ndarray
    choice: RealisationChoice | None
    riccati_residual: float


@dataclass
class RealisationScore:
    """Prop.-1 style H2 norms, inf when the error dynamics are unstable; smaller is better."""

    h2_noise: float
    h2_dist: float

    @property
    def product(self) -> float:
        return self.h2_noise * self.h2_dist

    @property
    def stable(self) -> bool:
        return math.isfinite(self.h2_noise)


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


def _splits(eig: EigenStructure, n: int, n_K: int, forced_S=()):
    """All admissible S/O splits of the closed-loop spectrum, as two integer
    arrays S (k, n) and O (k, n_K), each row ascending and the rows in
    lexicographic order of S.

    Conjugate pairs and repeated eigenvalues travel as the atoms of
    :func:`_value_groups`; any atom touching a forced-S index is placed in
    S unconditionally.  A forced_S entry that is a bool or not an integer,
    or that is out of range, and a forced block larger than n raise
    ValueError.  The splits are counted before any row is built; more than
    _MAX_SPLITS raise NumericalError naming the count and the bytes its
    rows would need.
    """
    if eig.n != n + n_K:
        raise ValueError(f"spectrum has {eig.n} values, expected n + n_K = {n + n_K}")
    forced = set()
    for i in forced_S:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"forced_S entry {i!r} is not an integer")
        forced.add(int(i))
    if not forced <= set(range(eig.n)):
        raise ValueError("forced_S contains out-of-range indices")

    in_S = np.zeros((1, eig.n), dtype=bool)
    free = []
    for a in _value_groups(eig):
        if forced.isdisjoint(a):
            free.append(list(a))
        else:
            in_S[0, list(a)] = True
    need = n - int(in_S.sum())
    if need < 0:
        raise ValueError(f"forced-S block of size {n - need} exceeds |S| = {n}")
    count = [1] + [0] * need  # count[m]: ways to fill m places of S with free atoms
    for a in free:
        for m in range(need, len(a) - 1, -1):
            count[m] += count[m - len(a)]
    if count[need] > _MAX_SPLITS:
        raise NumericalError(
            f"{count[need]} splits of the closed-loop spectrum, more than the {_MAX_SPLITS} "
            f"a search enumerates: their S and O rows alone would need "
            f"{4 * eig.n * count[need]} bytes")

    # Each free atom is taken or skipped on every partial split that can still
    # reach |S| = n.  Going last to first, takes stacked above skips, orders
    # the rows by the first atom taken, then the second, ...: the order of
    # the S tuples, since two splits first differ at the smallest index of
    # the first atom they differ on.
    mask, size = in_S, np.zeros(1, dtype=int)
    before = np.cumsum([0] + [len(a) for a in free])  # sizes of the atoms before each
    for j in reversed(range(len(free))):
        take = size + len(free[j]) <= need
        skip = size + before[j] >= need
        mask = np.concatenate([mask[take], mask[skip]])
        size = np.concatenate([size[take] + len(free[j]), size[skip]])
        mask[: np.count_nonzero(take), free[j]] = True
    mask = mask[size == need]
    # 4-byte indices: a search holds its splits until it returns
    index = np.broadcast_to(np.arange(eig.n, dtype=np.int32), mask.shape)
    return index[mask].reshape(len(mask), n), index[~mask].reshape(len(mask), n_K)


class _Eigenbasis:
    """Real basis of the whole spectrum, from which each split's invariant
    subspace basis is cut.

    A real eigenvalue contributes its eigenvector; a conjugate pair
    contributes (Re u, Im u) of the member with positive imaginary part,
    both owned by the pair's lower index.  Columns are in index order, so
    the columns owned by a sorted index set form, in order, the real basis
    of its invariant subspace.
    """

    def __init__(self, eig: EigenStructure):
        cols, owner = [], []
        for i, j in enumerate(eig.pair_index):
            if j is None:
                cols.append(eig.vectors[:, i].real)
                owner.append(i)
            elif i < j:
                u = eig.vectors[:, i if eig.values[i].imag > 0 else j]
                cols += [u.real, u.imag]
                owner += [i, i]
        self.basis = np.column_stack(cols)
        self.owner = np.array(owner)
        self.partner = np.array([i if j is None else j for i, j in enumerate(eig.pair_index)])

    def subspaces(self, S) -> np.ndarray:
        """(k, n + n_K, s) real bases of the k index rows of S (k, s)."""
        S = np.asarray(S)
        chosen = np.zeros((len(S), len(self.partner)), dtype=bool)
        chosen[np.arange(len(S))[:, np.newaxis], S] = True
        split = np.argwhere(chosen & ~chosen[:, self.partner])
        if split.size:
            i = int(split[0, 1])
            raise ValueError(f"conjugate pair ({i}, {self.partner[i]}) split by the selection")
        cols = np.nonzero(chosen[:, self.owner])[1].reshape(len(S), -1)
        return self.basis.T[cols].transpose(0, 2, 1)


def _solve_T_stack(A_cl: np.ndarray, U: np.ndarray, sigma_min: float):
    """The Riccati solutions T = U2 U1^-1 of a stack of invariant-subspace
    bases U = [U1; U2] (k, n + n_K, n), each a column subset of one basis
    whose smallest singular value is at least ``sigma_min`` (0 when
    unknown).

    Returns (T, residual, reasons): the (k, n_K, n) solutions (NaN where
    U1 is ill conditioned), their Riccati residuals (inf there) and, per
    member, "" or why the split is infeasible: U1 ill conditioned
    (cond_2 > 1e10), or a residual of [-T I] A_cl [I; T] above
    1e-8 ||A_cl||.

    U1' X = U2' gives T = X'.  Since [I; T] = U U1^-1, U1^-1 = U^+ [I; T],
    so cond_2(U1) <= ||U1||_F sqrt(1 + ||T||_F^2) / sigma_min(U), and
    sigma_min(U) >= ``sigma_min`` (a column subset cannot lower it).  A
    member whose bound is at most _COND_LIMIT / 2 (the half absorbs the
    rounding in T) is well conditioned without an SVD; only the members
    the bound leaves uncertified (NaN, or above it; all of them when
    ``sigma_min`` is 0) take the SVD test cond_2 <= 1e10.
    """
    k, m, n = U.shape
    U1, U2 = U[:, :n], U[:, n:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        X = _solve_each(U1.transpose(0, 2, 1), U2.transpose(0, 2, 1))
        cond_bound = (np.linalg.norm(U1, axis=(1, 2))
                      * np.sqrt(1.0 + np.einsum("kij,kij->k", X, X)) / sigma_min)
    ok = cond_bound <= 0.5 * _COND_LIMIT
    unsure = np.flatnonzero(~ok)
    if unsure.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            sv = np.linalg.svd(U1[unsure], compute_uv=False)
            cond = sv[:, 0] / sv[:, -1]
        ok[unsure] = np.isfinite(cond) & (cond <= _COND_LIMIT)
    del U, U1, U2  # a chunk's memory peaks in the residuals below
    T = np.full((k, m - n, n), np.nan)
    resid = np.full(k, math.inf)
    T_ok = X[ok].transpose(0, 2, 1)
    del X
    T[ok] = T_ok
    resid[ok] = _riccati_residuals(A_cl, T_ok)
    bound = float(_RESID_TOL * np.linalg.norm(A_cl))
    above = f"above {bound:.2e}"
    reasons = ["" if r <= bound else f"residual {r:.2e} {above}" for r in resid.tolist()]
    for i in np.flatnonzero(~ok):
        reasons[i] = "U1 ill conditioned"
    return T, resid, reasons


def riccati_residual(A_cl: np.ndarray, T: np.ndarray) -> float:
    return float(_riccati_residuals(A_cl, T[np.newaxis])[0])


def _riccati_residuals(A_cl, T) -> np.ndarray:
    """||[-T I] A_cl [I; T]|| for each member of a stack T (k, n_K, n)."""
    k, n_K, n = T.shape
    left = np.concatenate([T, np.broadcast_to(np.eye(n_K), (k, n_K, n_K))], axis=2)
    np.negative(left[:, :, :n], out=left[:, :, :n])
    left = left @ A_cl  # before [I; T] is built, so [-T I] is freed first
    right = np.concatenate([np.broadcast_to(np.eye(n), (k, n, n)), T], axis=1)
    return np.linalg.norm(left @ right, axis=(1, 2))


def _t_qr(T: np.ndarray):
    """One complete QR of T' per member of a stack T (k, n_K, n), shared
    by everything a split needs from it.

    With T' = [Q1 Q2][R1; 0], Q2 is an orthonormal basis of the right null
    space of T, and T^+ = Q1 R1^-T when T has full row rank.  Returns
    (deficient, T_perp, T_pinv): per member whether T fails the rank test
    sigma_min > 1e-8 sigma_max, Q2 with a deterministic sign
    (largest-magnitude entry of each column positive), and Q1 R1^-T (NaN
    where R1 is exactly singular; meaningless where T is deficient).

    Y = R1^-1 Q1' is T^+', and ||T^+||_2 = 1 / sigma_min, so
    cond_2(T) <= ||T||_F ||Y||_F.  A member whose bound is at most 0.5e8
    (the half absorbs the rounding in Y) passes the rank test without an
    SVD; only the members the bound leaves uncertified (NaN, or above it)
    take the singular values, and those decide their verdict.
    """
    n_K = T.shape[1]
    Q, R = np.linalg.qr(T.transpose(0, 2, 1), mode="complete")
    basis = Q[:, :, n_K:]
    lead = np.argmax(np.abs(basis), axis=1)[:, np.newaxis]
    basis = np.where(np.take_along_axis(basis, lead, axis=1) < 0, -basis, basis)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Y = _solve_each(R[:, :n_K], Q[:, :, :n_K].transpose(0, 2, 1))
        rank_bound = np.linalg.norm(T, axis=(1, 2)) * np.linalg.norm(Y, axis=(1, 2))
    deficient = ~(rank_bound <= 0.5e8)
    unsure = np.flatnonzero(deficient)
    if unsure.size:
        sv = np.linalg.svd(T[unsure], compute_uv=False)
        deficient[unsure] = ~(sv[:, -1] > 1e-8 * sv[:, 0])
    return deficient, basis, Y.transpose(0, 2, 1)


@dataclass
class ObserverState:
    """Mutable observer instance: its matrices from the form's
    ``observer`` and the current state x_hat, the estimate x-hat(k|k-1)."""

    A_o: np.ndarray
    B: np.ndarray
    B_y: np.ndarray
    C_o: np.ndarray
    D_y: np.ndarray
    x_hat: np.ndarray

    def estimate(self, y):
        """The estimate the control step reads; the state is left unchanged."""
        y = np.asarray(y, float).ravel()
        return self.C_o @ self.x_hat + self.D_y @ y

    def advance(self, u, y):
        """x-hat(k+1|k) = A_o x-hat(k|k-1) + B u(k) + B_y y(k)."""
        u = np.asarray(u, float).ravel()
        y = np.asarray(y, float).ravel()
        self.x_hat = self.A_o @ self.x_hat + self.B @ u + self.B_y @ y


def make_observer(realisation, G: DtStateSpace) -> ObserverState:
    """Observer, started from x-hat = 0, from an ObserverRealisation and its
    design model (the loop-shifted one if loop-shifting was used), which
    must be strictly proper."""
    if np.any(G.D != 0.0):
        raise ValueError("observer design model must be strictly proper")
    A_o, B_y, C_o, D_y = _form(realisation.form).observer(G, np.atleast_2d(realisation.K_f))
    return ObserverState(A_o, G.B, B_y, C_o, D_y, x_hat=np.zeros(G.n))


class _Form:
    """What differs between the two observer forms, and what follows from it.

    A form defines check(G, K), its preconditions on the loop;
    gains(G, K, T, T_dagger) -> (K_c, K_f); and observer(G, K_f) ->
    (A_o, B_y, C_o, D_y), the observer

        x-hat+ = A_o x-hat + B u + B_y y,   estimate = C_o x-hat + D_y y.

    Everything else is derived here from that observer: the map from the
    measured output to its own estimate (:func:`_noise_matrices`), whose
    state matrix A_o is the error dynamics; the controller u = K_c estimate,
    which :func:`equivalence_residual` checks against the baseline; and the
    margin loop.  make_observer builds the ObserverState that steps it, and
    runtime.build_prefilter runs the same observer on the reference.  gains
    and observer also take stacks (a leading axis on T, T_dagger, K_c, K_f).
    """

    def noise_system(self, r, G):
        return DtStateSpace(*_noise_matrices(G, self.observer(G, r.K_f)), G.Ts)

    def controller(self, r, G):
        A_o, B_y, C_o, D_y = self.observer(G, r.K_f)
        BKc = G.B @ r.K_c
        return DtStateSpace(A_o + BKc @ C_o, B_y + BKc @ D_y, r.K_c @ C_o, r.K_c @ D_y, G.Ts)

    def margin_loop(self, r, G, cut):
        A_o, B_y, C_o, D_y = self.observer(G, r.K_f)
        A_ol = np.block([[G.A, np.zeros_like(G.A)], [B_y @ G.C, A_o]])
        C_ol = np.hstack([r.K_c @ D_y @ G.C, r.K_c @ C_o])[cut : cut + 1]
        b = G.B[:, cut : cut + 1]
        return DtStateSpace(A_ol, np.vstack([b, b]), C_ol, np.zeros((1, 1)), G.Ts)


class _FilterForm(_Form):
    """The control reads x-hat(k|k) = (I - K_f C) x-hat(k|k-1) + K_f y(k):
    the measurement enters the estimate within the same step."""

    def check(self, G, K):
        if np.linalg.cond(K.A) > 1e12:
            raise ValueError("filter form needs a nonsingular controller A_K")
        k0 = K.D + K.C @ np.linalg.solve(-K.A, K.B)
        if np.linalg.norm(k0) > 1e-6 * (1.0 + np.linalg.norm(K.D)):
            raise ValueError(
                "filter form needs K(0) = 0; add a dipole to the controller"
            )
        if np.linalg.cond(G.A) > 1e12:
            raise ValueError("filter form needs a nonsingular plant A")

    def gains(self, G, K, T, T_dagger):
        K_c = K.D @ G.C + K.C @ T
        K_f = np.linalg.solve(G.A, T_dagger @ K.B - G.B @ K.D)
        return K_c, K_f

    def observer(self, G, K_f):
        ImKfC = np.eye(G.n) - K_f @ G.C
        return G.A @ ImKfC, G.A @ K_f, ImKfC, K_f


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

    def observer(self, G, K_f):
        return G.A - K_f @ G.C, K_f, np.eye(G.n), np.zeros(K_f.shape[:-2] + (G.n, G.n_y))


# keyed by ObserverRealisation.form
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


def margin_loop(
    r: ObserverRealisation, G: DtStateSpace, cut_input: int
) -> DtStateSpace:
    """Open-loop SISO system for margins, cut just after the controller
    output on one input channel.

    Plant and observer both run open loop on the injected signal; the
    return is the controller output on the same channel, so closing
    signal = L(signal) recovers the nominal loop (critical point +1).
    A ``cut_input`` that is a bool, not an integer, not an input channel
    of G or an input the controller never drives (its row of K_c is
    zero, so the loop would be identically 0) raises ValueError.
    """
    if isinstance(cut_input, bool) or not isinstance(cut_input, numbers.Integral):
        raise ValueError(f"cut_input {cut_input!r} is not an integer")
    if not 0 <= cut_input < G.n_u:
        raise ValueError(f"cut_input {cut_input} is not an input channel: the plant "
                         f"has n_u = {G.n_u} inputs")
    if not np.any(r.K_c[cut_input]):
        raise ValueError(f"cut_input {cut_input} is an input the controller never drives: "
                         f"row {cut_input} of K_c is zero")
    return _form(r.form).margin_loop(r, G, cut_input)


def equivalence_residual(r: ObserverRealisation, G: DtStateSpace, K: DtStateSpace) -> float:
    """The largest relative residual of T A-hat = A_K T, T B-hat = B_K,
    C-hat = C_K T and D-hat = D_K, each over the Frobenius norms of its
    terms' factors, where (A-hat, B-hat, C-hat, D-hat) is r's controller on
    G and K the baseline.  The four identities give both the same transfer
    function at every z, so a residual of rounding size certifies
    equivalence with no frequency grid.  An identity with both sides zero
    reads 0 and a residual that is not finite (overflowing gains) inf; an
    empty r.T (supplied gains) is recovered by :func:`_recovered_T`."""
    ctrl = _form(r.form).controller(r, G)
    T = r.T if r.T.size else _recovered_T(ctrl, K)
    fro = np.linalg.norm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = fro(T)
        terms = [(fro(T @ ctrl.A - K.A @ T), (fro(ctrl.A) + fro(K.A)) * t),
                 (fro(T @ ctrl.B - K.B), t * fro(ctrl.B) + fro(K.B)),
                 (fro(ctrl.C - K.C @ T), fro(ctrl.C) + fro(K.C) * t),
                 (fro(ctrl.D - K.D), fro(ctrl.D) + fro(K.D))]
        worst = np.max([gap / scale if gap else 0.0 for gap, scale in terms])
    return float(worst) if np.isfinite(worst) else math.inf


def _recovered_T(ctrl: DtStateSpace, K: DtStateSpace) -> np.ndarray:
    """T = O_K^+ O-hat, since O-hat = O_K T for the observability matrices
    of K and of the controller ``ctrl`` over n = ctrl.n steps; ValueError
    when O_K is numerically rank deficient, so that it does not fix T."""
    obs = lambda A, C: np.vstack([C @ np.linalg.matrix_power(A, i) for i in range(ctrl.n)])
    U, s, Vt = np.linalg.svd(obs(K.A, K.C), full_matrices=False)
    if K.n and not (s.size == K.n and s[0] > 0 and s[-1] * _OBSERVABILITY_COND >= s[0]):
        raise ValueError(f"the baseline controller's observability matrix O_K over {ctrl.n} "
                         f"steps has numerical rank below n_K = {K.n} (cond_2 above "
                         f"{_OBSERVABILITY_COND:.0e}), so the gains do not determine T")
    return Vt.T @ ((U.T @ obs(ctrl.A, ctrl.C)) / s[:, np.newaxis])


def _real_by_complex(R, Z):
    """R @ Z for a real R and a complex Z, as one real product on Z's float
    view (Z's last axis contiguous)."""
    return (R @ Z.view(np.float64)).view(np.complex128)


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


def _noise_matrices(G, observer):
    """The map from y to its own estimate, of one or a stack of observers."""
    A_o, B_y, C_o, D_y = observer
    return A_o, B_y, G.C @ C_o, G.C @ D_y


def _h2_scores(G, observer, modal=None) -> np.ndarray:
    """(h2_noise, h2_dist) rows for a stack of the form's ``observer``
    quadruples, inf where the error dynamics Ae are unstable: the noise
    map (Ae, B, C, D) of :func:`_noise_matrices` and the disturbance map
    (Ae, E, I, D_dist) of :func:`_dist_injection`.

    ``modal(Ae, noise, dist)``, a search's :meth:`_ModalBasis.scores`,
    scores the members it certifies from the search's eigenbasis.  It
    leaves to the doubling a member with an error pole on or outside the
    unit circle, one whose eigenvector basis is too ill conditioned for its
    bound (a free pole near an observer eigenvalue among them), and, by
    passing no ``modal``, every member of a search with a fused eigenvalue
    group.  Those members, and all of them without ``modal``, are scored
    by :func:`~lti2mpc.linalg._h2_stack`: both Gramians advance on the same
    powers of Ae, each residual-checked against Ae, and a norm no Gramian
    certifies is NaN."""
    Ae, B, C, D = _noise_matrices(G, observer)
    E, D_dist = _dist_injection(G)
    maps = [(B, C, D), (E, np.eye(G.n), D_dist)]
    if modal is None:
        return _h2_stack(Ae, maps)
    out, certified = modal(Ae, *maps)
    rest = np.flatnonzero(~certified)
    if rest.size:
        out[rest] = _h2_stack(Ae[rest], [tuple(M[rest] if M.ndim == 3 else M for M in m)
                                         for m in maps])
    return out


class _ModalBasis:
    """The split-free pieces of the modal H2 scores, from the closed loop's
    one eigendecomposition A_cl = V diag(lambda) V^-1, and the stacked
    kernel that scores built splits from them.

    Needs an eigenvector per eigenvalue, so a search whose spectrum has a
    fused eigenvalue group has none (see :class:`_Search`).  A singular V
    leaves V^-1 NaN, and every member then goes to the doubling.
    """

    def __init__(self, eig: EigenStructure, G):
        n = G.n
        self.values = eig.values.astype(complex)
        V = eig.vectors.astype(complex)
        V_inv = _solve_each(V[np.newaxis], np.eye(len(V), dtype=complex)[np.newaxis])[0]
        # columns gathered per O set: W = V[:, O] and L1' = V^-1[O, :n]'
        self.W_top, self.W_bot = V[:n], V[n:]
        self.L1_t = V_inv[:, :n].T.copy()
        b = V_inv[:, :n] @ _dist_injection(G)[0]
        with np.errstate(divide="ignore", invalid="ignore"):  # |lambda| = 1 is never certified
            self.kernel = (1.0 / (1.0 - np.outer(self.values, self.values.conj()))).ravel()
            # the disturbance map's modal Gramian on the O set is split-free
            self.P_dist = (b @ b.conj().T).ravel() * self.kernel

    def scores(self, O, T, T_perp, T_pinv, Ae, noise, dist):
        """Modal H2 norms of a stack of built splits, and which of them the
        modal path certifies; see :func:`_h2_scores` for the maps.

        O (k, n_K) holds each split's observer indices.  In z = [T; T_perp'] x
        the error dynamics are [[Lambda_O, 0], [H, F]], H = T_perp' Ae T^+,
        F = T_perp' Ae T_perp, because T Ae = Lambda_O T (the Riccati
        equation, in both forms).  Lambda_O = A_K - T B C_K has the
        eigenvectors Y = W2 - T W1, W = V_cl[:, O], and the O-set rows of
        V_cl^-1, [L1 L2], satisfy L1 = -L2 T, L2 Y = I.  With F = Z mu Z^-1
        and What_ij = (Z^-1 H Y)_ij / (lambda_j - mu_i), Ae = X nu X^-1 for

            X = [T^+ T_perp] [[Y, 0], [Z What, Z]],
            X^-1 = [-L1;  Z^-1 T_perp' + What L1],

        so a map (B, C, D) has the Gramian X Pt X^* with
        Pt = (b b^*) / (1 - nu_i conj(nu_j)), b = X^-1 B, and
        h^2 = Re tr(C X Pt X^* C') + ||D||_F^2.  The disturbance map's
        input is the search's, so its Pt on the O set is gathered from
        the one formed with V_cl^-1.

        A member is certified when max |nu| < 1 and
        eps cond_F(X) / (1 - max |nu|^2) <= 1e-10, cond_F(X) =
        ||X||_F ||X^-1||_F; a free pole near an O eigenvalue makes What,
        and so cond_F(X), large.  The rest, NaN here, go to the doubling.
        """
        k, n_K, n = T.shape
        flat = O[:, :, np.newaxis] * len(self.values) + O[:, np.newaxis, :]  # O x O gathers
        nu = np.empty((k, n), complex)
        nu[:, :n_K] = self.values[O]
        Y = np.take(self.W_bot, O, axis=1).transpose(1, 0, 2) - _real_by_complex(
            T, np.take(self.W_top, O, axis=1).transpose(1, 0, 2))
        L1_t = np.take(self.L1_t, O, axis=1).transpose(1, 0, 2)  # (k, n, n_K)
        T_perp_t = T_perp.transpose(0, 2, 1)
        PT = T_perp_t @ Ae
        mu, Z = np.linalg.eig(PT @ T_perp)
        nu[:, n_K:] = mu
        Zb = np.zeros((k, n, n), complex)  # X = [T^+ T_perp] Zb
        Zb[:, :n_K, :n_K] = Y
        Zb[:, n_K:, n_K:] = Z
        Z = Zb[:, n_K:, n_K:]  # complex even where eig returned a real Z
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Z_inv = _solve_each(Z, np.broadcast_to(np.eye(n - n_K, dtype=complex), Z.shape))
            W_hat = (Z_inv @ _real_by_complex(PT @ T_pinv, Y)) / (
                nu[:, np.newaxis, :n_K] - mu[:, :, np.newaxis])
            Zb[:, n_K:, :n_K] = Z @ W_hat
            X = _real_by_complex(np.concatenate([T_pinv, T_perp], axis=2), Zb)
            # each stack goes as soon as it is used: a chunk's memory peaks
            # in the products below
            del Zb, Z, Y
            Xi_F = Z_inv @ T_perp_t + W_hat @ L1_t.transpose(0, 2, 1)  # X^-1 below -L1
            rho = np.abs(nu).max(axis=1)
            norm2 = lambda M: _inner(M.view(float), M.view(float))  # ||M||_F^2
            cond = np.sqrt(norm2(X) * (norm2(L1_t) + norm2(Xi_F)))
            certified = (rho < 1.0) & (np.finfo(float).eps * cond <= 1e-10 * (1.0 - rho * rho))
            # the kernel 1 / (1 - nu_i conj(nu_j)) is gathered on O x O; its
            # F columns are K_F, and its F x O block their conjugate transpose
            K_F = 1.0 / (1.0 - nu[:, :, np.newaxis] * mu.conj()[:, np.newaxis, :])

            B, C, D = noise
            b = np.empty((k, n, B.shape[-1]), complex)  # X^-1 B
            b[:, :n_K] = _real_by_complex(-B.transpose(0, 2, 1), L1_t).transpose(0, 2, 1)
            b[:, n_K:] = Xi_F @ B
            Pt = b @ b.conj().transpose(0, 2, 1)
            del b
            Pt[:, :n_K, :n_K] *= np.take(self.kernel, flat)
            Pt[:, :, n_K:] *= K_F
            Pt[:, n_K:, :n_K] *= K_F[:, :n_K].conj().transpose(0, 2, 1)
            CX = _real_by_complex(C, X)
            h_noise = _inner((CX @ Pt).view(float), CX.view(float)) + _inner(D, D)
            del CX

            # X^-1 E (X^-1 E)^* on the F columns is X^-1 g, g = E (Xi_F E)^*
            E, _, D = dist
            g = E @ (Xi_F @ E).conj().transpose(0, 2, 1)
            Pt[:, :n_K, :n_K] = np.take(self.P_dist, flat)
            Pt[:, :n_K, n_K:] = -(L1_t.transpose(0, 2, 1) @ g)
            Pt[:, n_K:, n_K:] = Xi_F @ g
            Pt[:, :, n_K:] *= K_F
            Pt[:, n_K:, :n_K] = Pt[:, :n_K, n_K:].conj().transpose(0, 2, 1)
            h_dist = _inner((X @ Pt).view(float), X.view(float)) + _inner(D, D)
        h2 = np.stack([h_noise, h_dist], axis=1)
        certified &= (h2 >= 0.0).all(axis=1)
        return np.sqrt(np.maximum(h2, 0.0)), certified


# Splits per stacked chunk of the search, serial and on the pool alike:
# enough to pay the Python overhead (and, on the pool, the GIL hand-overs
# of the many small numpy calls) once per chunk, few enough to keep each
# chunk's stacks at a few MB.  On the 21-state surrogate's 4754-split
# search (2-vCPU host, one BLAS thread), 128 over 64 cut the wall time by
# about a fifth with workers=2 and 8 % serially, at +6 % and +5 % peak
# resident memory; 256 cut the workers=2 time by a further ~16 % but took
# +20 % memory over 64.
_CHUNK = 128


class _Search:
    """One search over (G, K): the constants every split shares, checked and
    computed once, and the stacked kernel that solves, designs, builds and
    scores its splits a chunk of (S, O) rows at a time.  The kernel returns
    reasons and array stacks only; it builds no per-split object."""

    def __init__(self, G, K, form, Qn, Rn):
        self.G, self.K, self.form = G, K, form
        self.f = _FORMS[form]
        # the free-pole design's reduced pairs are cut from these two
        self.A_shift = G.A + G.B @ K.D @ G.C
        self.BkC = K.B @ G.C
        self.q, self.lr = _noise_weights(Qn, Rn)
        self.A_cl = closed_loop_matrix(G, K)
        self.eig = eig_paired(self.A_cl)
        self.basis = _Eigenbasis(self.eig)
        self.sigma_min = float(np.linalg.svd(self.basis.basis, compute_uv=False)[-1])
        # the modal scores need an eigenvector per eigenvalue: none when a
        # fused group holds more than one eigenvalue or one conjugate pair
        pair = self.eig.pair_index
        fused = any(len(g) > 2 or (len(g) == 2 and pair[g[0]] != g[1])
                    for g in _value_groups(self.eig))
        self.modal = None if fused else _ModalBasis(self.eig, G)

    def free_pole_gains(self, T_perp):
        """The free-pole gains X of a stack of T-perp bases (k, n, n - n_K).

        When n_K < n the observer error dynamics have n - n_K modes that T
        does not pin down; they are assigned through X in
        T-dagger = T^+ + T_perp X.  X is the steady-state Kalman gain for
        the reduced pair

            A_red = T_perp' (A + B D_K C) T_perp,   C_red = B_K C T_perp

        with the search's scalar weights: process covariance Qn I (an
        identity-injection noise channel) and measurement covariance Rn I,
        so the extra modes are the eigenvalues of A_red - X C_red.  T_perp is any orthonormal basis
        of null(T): turning it by an orthogonal W turns A_red, C_red and X by
        W and leaves T_perp X, and so K_f, unchanged, because Qn is scalar.
        When n_K = n no pole is free and X is 0 x n_K.

        Returns (X, errors): the (k, n - n_K, n_K) gains and, per member,
        None or the NumericalError of an undetectable reduced pair or a
        failed DARE.
        """
        k, _, free = T_perp.shape
        if not free:
            return np.zeros((k, 0, self.K.n)), [None] * k
        A_red = T_perp.transpose(0, 2, 1) @ self.A_shift @ T_perp
        C_red = self.BkC @ T_perp
        errors = [None] * k
        # rho <= ||A_red||_F: only members the norm leaves near the circle
        # need their eigenvalues
        near = np.flatnonzero(~(np.linalg.norm(A_red, axis=(1, 2)) < 1.0 - 1e-8))
        values = np.linalg.eigvals(A_red[near])
        on_circle = np.abs(values) >= 1.0 - 1e-9
        for m in np.flatnonzero(on_circle.any(axis=1)):
            i, marginal = near[m], values[m][on_circle[m]]
            bad = unobservable_modes(A_red[i], C_red[i], marginal)
            if bad:
                errors[i] = NumericalError(
                    "free-pole design: reduced pair undetectable at modes "
                    + ", ".join(f"{complex(marginal[j]):.4f}" for j in bad)
                )
        X = np.full((k, free, self.K.n), np.nan)
        live = [i for i, e in enumerate(errors) if e is None]
        if live:
            X[live], dare_errors = _kalman_gains(A_red[live], C_red[live], self.q, self.lr)
            for i, e in zip(live, dare_errors):
                errors[i] = e
        return X, errors

    def evaluate(self, S, O):
        """(reasons, kept) of the chunk of split rows S (k, n), O (k, n_K):
        per split the reason it was rejected or "" if kept, and None if no
        split reached the scores, else (at, stacks, residuals, h2).  The
        kept splits, in chunk order, are the ``at`` members of ``stacks``
        (T, K_c, K_f) and ``residuals`` (Riccati), and the rows of ``h2``.

        A split is rejected for the first of these that applies: an
        infeasible T (see :func:`_solve_T_stack`), a failed free-pole
        design, a rank-deficient T, the invariants of the built
        realisation, then an H2 norm that no path certifies.  A built
        split is scored from the search's eigenbasis where the modal bound
        certifies it, and otherwise by the Stein doubling, the only path
        for a spectrum with a fused eigenvalue group (see
        :func:`_h2_scores`).  The gains are the form's, from T and
        T-dagger = T^+ + T_perp X.
        """
        G, K, f = self.G, self.K, self.f
        # passed on directly, so that _solve_T_stack can drop the bases
        T, resid, out = _solve_T_stack(self.A_cl, self.basis.subspaces(S), self.sigma_min)
        live = np.flatnonzero([not reason for reason in out])
        if not live.size:
            return out, None
        T, resid = T[live], resid[live]
        deficient, T_perp, T_pinv = _t_qr(T)
        X, errors = self.free_pole_gains(T_perp)
        for m, i in enumerate(live):
            out[i] = str(errors[m] or ("T is rank deficient" if deficient[m] else ""))
        keep = [m for m, i in enumerate(live) if not out[i]]
        if not keep:
            return out, None
        live, T, T_perp, T_pinv, X, resid = (a[keep] for a in (live, T, T_perp, T_pinv, X, resid))
        K_c, K_f = f.gains(G, K, T, T_pinv + T_perp @ X)
        observer = f.observer(G, K_f)  # read by the feedthrough check and the scores

        fro = lambda M: np.linalg.norm(M, axis=(1, 2))
        if T_perp.shape[2]:
            ortho = fro(T_perp.transpose(0, 2, 1) @ T_perp - np.eye(T_perp.shape[2]))
            null = fro(T @ T_perp)
            for m in np.flatnonzero((ortho > 1e-10) | (null > 1e-10 * np.maximum(1.0, fro(T)))):
                out[live[m]] = "T_perp basis failed orthogonality checks"
        # the controller's feedthrough K_c D_y is D_K (K_c K_f in the filter form)
        err = fro(K_c @ observer[3] - K.D)
        for m in np.flatnonzero(err > 1e-8 * (1.0 + np.linalg.norm(K.D))):
            out[live[m]] = out[live[m]] or f"K_c K_f - D_K = {err[m]:.2e}, expected 0"

        built = np.array([m for m, i in enumerate(live) if not out[i]], dtype=int)
        if not built.size:
            return out, None
        modal = None
        if self.modal is not None:
            modal = functools.partial(self.modal.scores, O[live[built]], T[built],
                                      T_perp[built], T_pinv[built])
        if len(built) < len(live):  # a 2-d matrix (the predictor's C_o) is shared
            observer = tuple(M[built] if M.ndim == 3 else M for M in observer)
        h2 = _h2_scores(G, observer, modal)
        certified = ~np.isnan(h2).any(axis=1)
        for m in built[~certified]:
            out[live[m]] = "H2 norm not certified"
        return out, (built[certified], (T, K_c, K_f), resid, h2[certified])


def _run_chunks(evaluate, chunks, workers, merge):
    """merge(chunk, evaluate(chunk)) for every chunk, in chunk order.

    With ``workers`` > 1 the chunks are evaluated on a pool of that many
    threads.  Only this thread merges, so what a merge keeps is allocated
    here, not in a pool thread's malloc arena.  The first failed chunk in
    chunk order, the one a serial run would fail on, is raised once the
    chunks not yet started are cancelled and every pool thread is joined.
    """
    pool = ThreadPoolExecutor(workers, thread_name_prefix="lti2mpc-search") if workers > 1 else None
    try:
        for chunk, out in zip(chunks, (pool.map if pool else map)(evaluate, chunks)):
            merge(chunk, out)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def search_realisations(
    G: DtStateSpace,
    K: DtStateSpace,
    form: str = "filter",
    forced_S=None,
    Qn=1.0,
    Rn=1e7,
    rank_by: str = "product",
    workers: int | None = None,
) -> SearchResult:
    """Enumerate, solve, build and score every admissible realisation.

    forced_S defaults to the closed-loop modes that are uncontrollable
    from the plant input (those cannot leave the state-feedback set).  A
    forced_S of n indices with conjugate pairs kept whole admits exactly
    one split, so ``forced_S=S`` realises the single split S, with the
    same numbers as S's row of the full search.  Results are sorted
    ascending by the chosen metric ("product" or "noise"), ties broken by
    the S index tuple.

    Refused, in this order and before any split is solved unless said:
    with ValueError, a ``workers`` that is not None or an integer >= 1, a bad
    ``rank_by`` or ``form``, a static controller or one of higher order
    than the plant, a ``Qn`` or ``Rn`` that is not a scalar (the free-pole
    basis is arbitrary, see :meth:`_Search.free_pole_gains`), that is not
    finite, a Qn < 0 or an Rn <= 0 (even when n_K = n); with
    UnstableSystemError, a closed loop with a pole outside the unit
    circle; with ValueError, a loop that fails the form's preconditions
    (the message names the fix: add a dipole, loop-shift the feedthrough),
    then a given forced_S with an entry that is a bool or not an integer
    (numpy integers are integers), out of range or whose blocks outnumber
    n; with
    NumericalError, a spectrum with more admissible splits than
    ``_MAX_SPLITS`` (counted, never built), a spectrum with no admissible
    split (the default forced set's blocks outnumbering n among them), and,
    once every split is evaluated, no feasible split.

    The splits (the rows of :func:`_splits`) are evaluated in stacked
    chunks of 128.  ``workers`` None or 1 evaluates them on the calling
    thread; an int k > 1 evaluates them on a pool of k threads, joined
    before the call returns, which overlap the stacked LAPACK and BLAS
    calls that release the GIL.  The calling thread merges the chunks in
    order, builds each split's objects once and copies each kept T, K_c and
    K_f once, read-only (T_perp and X stay in the chunk), so that a controller
    built from a realisation cannot go out of step with an edited gain.  The
    chunks, and so every number and message of the result, are the same for
    every ``workers``.  Pool threads and BLAS threads multiply: pin BLAS to
    one thread (OPENBLAS_NUM_THREADS=1) when the search runs on more than one.
    """
    if workers is not None and (
        not isinstance(workers, numbers.Integral) or isinstance(workers, bool) or workers < 1
    ):
        raise ValueError(f"workers must be None or an integer >= 1, got {workers!r}")
    if rank_by not in ("product", "noise"):
        raise ValueError("rank_by must be 'product' or 'noise'")
    _form(form)
    _check_orders(G, K)
    search = _Search(G, K, form, Qn, Rn)
    rho = float(np.max(np.abs(search.eig.values)))
    # poles exactly on the circle are legitimate (disturbance integrators
    # are uncontrollable closed-loop modes at z = 1); reject strict growth
    if rho > 1.0 + 1e-9:
        raise UnstableSystemError(
            f"the closed loop of the plant and controller is unstable (spectral "
            f"radius {rho:.4f}); realisation requires a stabilising controller")
    search.f.check(G, K)
    forced_by = "forced_S indices"
    if forced_S is None:
        B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
        forced_S = unobservable_modes(search.A_cl.T, B_cl.T, search.eig.values)
        forced_by = "input-uncontrollable modes"
    try:
        S, O = _splits(search.eig, G.n, K.n, forced_S)
    except ValueError:
        if forced_by == "forced_S indices":
            raise
        S = ()  # the uncontrollable modes' blocks alone outnumber n
    if not len(S):
        forced = sorted({int(i) for i in forced_S})
        among = f", the {forced_by} {forced} among them," if forced else ""
        raise NumericalError(
            f"no feasible realisation: no split of the closed-loop spectrum puts n = {G.n} "
            f"eigenvalues in S{among} with conjugate pairs and repeated eigenvalues kept "
            "together")

    result = SearchResult()

    def merge(chunk, outcome):
        # the copies are allocated on this thread, not in a pool thread's
        # malloc arena, and hold none of the chunk's stacks
        reasons, kept = outcome
        choices = [RealisationChoice(tuple(s), tuple(o)) for s, o in
                   zip(chunk[0].tolist(), chunk[1].tolist())]
        result.rejected += [(c, reason) for c, reason in zip(choices, reasons) if reason]
        if kept is not None:
            at, stacks, resid, h2 = kept
            stacks = [a[at] for a in stacks]
            for a in stacks:
                a.flags.writeable = False
            ranked = (c for c, reason in zip(choices, reasons) if not reason)
            result.ranked += [(ObserverRealisation(form, *arrays, c, r), RealisationScore(*h))
                              for c, r, h, *arrays in zip(ranked, resid[at].tolist(),
                                                          h2.tolist(), *stacks)]

    chunks = [(S[start : start + _CHUNK], O[start : start + _CHUNK])
              for start in range(0, len(S), _CHUNK)]
    _run_chunks(lambda chunk: search.evaluate(*chunk), chunks, workers or 1, merge)
    if not result.ranked:
        counts = Counter(reason for _, reason in result.rejected)
        detail = "; ".join(f"{v} x {k}" for k, v in sorted(counts.items()))
        raise NumericalError(f"no feasible realisation: {detail}")

    key = (lambda rs: rs[1].product) if rank_by == "product" else (lambda rs: rs[1].h2_noise)
    result.ranked.sort(key=lambda rs: (key(rs), rs[0].choice.state_feedback_set))
    return result

