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
    "enumerate_choices",
    "realisation_controller",
    "margin_loop",
    "verify_equivalence",
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
        if not set(self.state_feedback_set).isdisjoint(self.observer_set):
            raise ValueError("S and O overlap")


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

    # a split takes m_s of the free atoms of each size s, with sum s m_s = need
    by_size: dict = {}
    for a in free_atoms:
        by_size.setdefault(len(a), []).append(a)
    sizes = sorted(by_size)
    all_idx = set(range(eig.n))
    choices = []
    for counts in itertools.product(*(range(len(by_size[s]) + 1) for s in sizes)):
        if sum(s * m for s, m in zip(sizes, counts)) != need:
            continue
        for picked in itertools.product(
            *(itertools.combinations(by_size[s], m) for s, m in zip(sizes, counts))
        ):
            s = sorted(base + [i for group in picked for a in group for i in a])
            choices.append(RealisationChoice(tuple(s), tuple(sorted(all_idx.difference(s)))))
    choices.sort(key=lambda c: c.state_feedback_set)
    return choices


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

    def subspaces(self, selections) -> np.ndarray:
        """(k, n + n_K, s) real bases of k index selections of size s each."""
        sizes = [len(indices) for indices in selections]
        chosen = np.zeros((len(selections), len(self.partner)), dtype=bool)
        chosen[np.repeat(np.arange(len(sizes)), sizes),
               np.fromiter(itertools.chain.from_iterable(selections), int, sum(sizes))] = True
        split = np.argwhere(chosen & ~chosen[:, self.partner])
        if split.size:
            i = int(split[0, 1])
            raise ValueError(f"conjugate pair ({i}, {self.partner[i]}) split by the selection")
        cols = np.nonzero(chosen[:, self.owner])[1].reshape(len(selections), -1)
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
    gains(G, K, T, T_dagger) -> (K_c, K_f); feedthrough_gap(K_c, K_f, K),
    K_c K_f - D_K where the form makes it zero (else None); and
    observer(G, K_f) -> (A_o, B_y, C_o, D_y), the observer

        x-hat+ = A_o x-hat + B u + B_y y,   estimate = C_o x-hat + D_y y.

    Everything else is derived here from that observer: the map from the
    measured output to its own estimate, whose state matrix A_o is the
    error dynamics; the controller u = K_c estimate; and the margin loop.
    make_observer builds the ObserverState that steps it, and
    runtime.build_prefilter runs the same observer on the reference.  gains,
    feedthrough_gap, observer and noise_matrices also take stacks (a
    leading axis on T, T_dagger, K_c, K_f).
    """

    def noise_matrices(self, G, K_f):
        A_o, B_y, C_o, D_y = self.observer(G, K_f)
        return A_o, B_y, G.C @ C_o, G.C @ D_y

    def noise_system(self, r, G):
        return DtStateSpace(*self.noise_matrices(G, r.K_f), G.Ts)

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

    def feedthrough_gap(self, K_c, K_f, K):
        return K_c @ K_f - K.D

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

    def feedthrough_gap(self, K_c, K_f, K):
        return None

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


def _owned(r: ObserverRealisation) -> ObserverRealisation:
    """r with its arrays copied out of the chunk's stacks that
    _Search.evaluate views, so the copies are allocated by the calling
    thread and free of the stacks."""
    return ObserverRealisation(r.form, r.T.copy(), r.T_perp.copy(), r.X.copy(), r.K_c.copy(),
                               r.K_f.copy(), r.choice, r.riccati_residual)


def realisation_controller(r: ObserverRealisation, G: DtStateSpace) -> DtStateSpace:
    """The observer-based controller as an n-state system from y to u,
    defined by r's gains on G."""
    return _form(r.form).controller(r, G)


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


def verify_equivalence(K_obs: DtStateSpace, K0: DtStateSpace) -> float:
    """Max relative transfer-function deviation on a 200-point log grid;
    inf when a response overflows, so the deviation is not a number."""
    if (K_obs.n_u, K_obs.n_y) != (K0.n_u, K0.n_y):
        raise ValueError("systems have different I/O dimensions")
    w_ts = np.logspace(-4, math.log10(math.pi), 200)
    with np.errstate(over="ignore", invalid="ignore"):
        R1 = K_obs.freq_response(w_ts)
        R0 = K0.freq_response(w_ts)
        gap = R1 - R0
        if not (np.isfinite(gap).all() and np.isfinite(R0).all()):
            return math.inf  # an overflowed response matches nothing
        ratios = np.linalg.norm(gap, 2, axis=(1, 2)) / (1.0 + np.linalg.norm(R0, 2, axis=(1, 2)))
    if np.isnan(ratios).any():
        return math.inf
    return max([0.0, *ratios])


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


def _h2_scores(f, G, K_f) -> np.ndarray:
    """(h2_noise, h2_dist) rows for a stack of injection gains K_f, inf
    where the error dynamics are unstable; both Gramians of a member advance
    on the same powers of its Ae, each residual-checked against Ae with a
    Schur fallback (see :func:`~lti2mpc.linalg._h2_stack`)."""
    Ae, B, C, D = f.noise_matrices(G, K_f)
    E, D_dist = _dist_injection(G)
    return _h2_stack(Ae, [(B, C, D), (E, np.eye(G.n), D_dist)], G.Ts)


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
    scores its splits a chunk at a time."""

    def __init__(self, G, K, form, Qn, Rn):
        self.G, self.K, self.form = G, K, form
        self.f = _FORMS[form]
        # the free-pole design's reduced pairs are cut from these two
        self.A_shift = G.A + G.B @ K.D @ G.C
        self.BkC = K.B @ G.C
        if np.shape(Qn) not in ((), (1,)):
            raise ValueError(
                f"Qn must be a scalar, got shape {np.shape(Qn)}: the free-pole basis T_perp "
                "is an arbitrary orthonormal basis of null(T), so a matrix Qn has no "
                "basis-free meaning")
        self.Qn, self.Lr = _noise_weights(Qn, Rn, G.n - K.n, K.n)
        self.A_cl = closed_loop_matrix(G, K)
        self.eig = eig_paired(self.A_cl)
        self.basis = _Eigenbasis(self.eig)
        self.sigma_min = float(np.linalg.svd(self.basis.basis, compute_uv=False)[-1])

    def free_pole_gains(self, T_perp):
        """The free-pole gains X of a stack of T-perp bases (k, n, n - n_K).

        When n_K < n the observer error dynamics have n - n_K modes that T
        does not pin down; they are assigned through X in
        T-dagger = T^+ + T_perp X.  X is the steady-state Kalman gain for
        the reduced pair

            A_red = T_perp' (A + B D_K C) T_perp,   C_red = B_K C T_perp

        with process covariance Qn times the identity (an identity-injection
        noise channel) and measurement covariance Rn, so the extra modes are
        the eigenvalues of A_red - X C_red.  T_perp is any orthonormal basis
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
            X[live], dare_errors = _kalman_gains(A_red[live], C_red[live], self.Qn, self.Lr)
            for i, e in zip(live, dare_errors):
                errors[i] = e
        return X, errors

    def evaluate(self, choices) -> list:
        """Per choice, (ObserverRealisation, RealisationScore) or the
        reason the split was rejected; the realisations' arrays are views
        of this chunk's stacks (see :func:`_owned`).

        A split is rejected for the first of these that applies: an
        infeasible T (see :func:`_solve_T_stack`), a failed free-pole
        design, a rank-deficient T, the invariants of the built
        realisation, then an H2 norm that no path certifies (see
        :func:`~lti2mpc.linalg._h2_stack`).  The gains are

            filter form:    K_c = D_K C + C_K T,  K_f = A^-1 (T-dagger B_K - B D_K)
            predictor form: K_c = C_K T,          K_f = T-dagger B_K
        """
        G, K, f = self.G, self.K, self.f
        # passed on directly, so that _solve_T_stack can drop the bases
        T, resid, out = _solve_T_stack(
            self.A_cl, self.basis.subspaces([c.state_feedback_set for c in choices]),
            self.sigma_min)
        live = np.flatnonzero([not reason for reason in out])
        if not live.size:
            return out
        T, resid = T[live], resid[live]
        deficient, T_perp, T_pinv = _t_qr(T)
        X, errors = self.free_pole_gains(T_perp)
        for m, i in enumerate(live):
            out[i] = str(errors[m] or ("T is rank deficient" if deficient[m] else ""))
        keep = [m for m, i in enumerate(live) if not out[i]]
        if not keep:
            return out
        live, T, T_perp, X, resid = live[keep], T[keep], T_perp[keep], X[keep], resid[keep]
        K_c, K_f = f.gains(G, K, T, T_pinv[keep] + T_perp @ X)

        fro = lambda M: np.linalg.norm(M, axis=(1, 2))
        if T_perp.shape[2]:
            ortho = fro(T_perp.transpose(0, 2, 1) @ T_perp - np.eye(T_perp.shape[2]))
            null = fro(T @ T_perp)
            for m in np.flatnonzero((ortho > 1e-10) | (null > 1e-10 * np.maximum(1.0, fro(T)))):
                out[live[m]] = "T_perp basis failed orthogonality checks"
        gap = f.feedthrough_gap(K_c, K_f, K)
        if gap is not None:
            err = fro(gap)
            for m in np.flatnonzero(err > 1e-8 * (1.0 + np.linalg.norm(K.D))):
                out[live[m]] = out[live[m]] or f"K_c K_f - D_K = {err[m]:.2e}, expected 0"

        built = [m for m, i in enumerate(live) if not out[i]]
        if built:
            for m, row in zip(built, _h2_scores(f, G, K_f[built])):
                if np.isnan(row).any():
                    out[live[m]] = "H2 norm not certified"
                    continue
                r = ObserverRealisation(
                    form=self.form, T=T[m], T_perp=T_perp[m], X=X[m], K_c=K_c[m],
                    K_f=K_f[m], choice=choices[live[m]], riccati_residual=float(resid[m]),
                )
                out[live[m]] = (r, RealisationScore(float(row[0]), float(row[1])))
        return out


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
    with ValueError, a ``workers`` that is not None or an int >= 1, a bad
    ``rank_by`` or ``form``, a static controller or one of higher order
    than the plant, a ``Qn`` that is not a scalar (the free-pole basis is
    arbitrary, see :meth:`_Search.free_pole_gains`) or a ``Qn``/``Rn`` the
    free-pole Kalman design refuses (even when n_K = n); with
    UnstableSystemError, a closed loop with a pole outside the unit
    circle; with ValueError, a loop that fails the form's preconditions
    (the message names the fix: add a dipole, loop-shift the feedthrough),
    then a given forced_S out of range or whose blocks outnumber n; with
    NumericalError, a spectrum with no admissible split (the default forced
    set's blocks outnumbering n among them), and, once every split is
    evaluated, no feasible split.

    The splits are evaluated in stacked chunks of 128.  ``workers`` None or
    1 evaluates them on the calling thread; an int k > 1 evaluates them on
    a pool of k threads, joined before the call returns, which overlap the
    stacked LAPACK and BLAS calls that release the GIL, while the calling
    thread merges them.  The chunks, and so every number and message of
    the result, are the same for every ``workers``.  Pool threads and BLAS
    threads multiply: pin BLAS to one thread (OPENBLAS_NUM_THREADS=1) when
    the search runs on more than one.
    """
    if workers is not None and (
        not isinstance(workers, int) or isinstance(workers, bool) or workers < 1
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
        choices = enumerate_choices(search.eig, G.n, K.n, forced_S)
    except ValueError:
        if forced_by == "forced_S indices":
            raise
        choices = []  # the uncontrollable modes' blocks alone outnumber n
    if not choices:
        forced = sorted({int(i) for i in forced_S})
        among = f", the {forced_by} {forced} among them," if forced else ""
        raise NumericalError(
            f"no feasible realisation: no split of the closed-loop spectrum puts n = {G.n} "
            f"eigenvalues in S{among} with conjugate pairs and repeated eigenvalues kept "
            "together")

    result = SearchResult()

    def merge(chunk, outcomes):
        for choice, outcome in zip(chunk, outcomes):
            if isinstance(outcome, str):
                result.rejected.append((choice, outcome))
            else:
                result.ranked.append((_owned(outcome[0]), outcome[1]))

    chunks = [choices[start : start + _CHUNK] for start in range(0, len(choices), _CHUNK)]
    _run_chunks(search.evaluate, chunks, workers or 1, merge)
    if not result.ranked:
        counts = Counter(reason for _, reason in result.rejected)
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
