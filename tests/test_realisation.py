"""Observer realisation tests.

The scalar cases are worked by hand: for a one-state plant (a, b, c) and a
one-state strictly proper controller (f, g, h) the coupling equation
collapses to the quadratic  b h T^2 + (a - f) T - g = 0, one root per
admissible eigenvalue split.  The satellite and pendulum numbers are pinned
regression values computed from the worked models in lti2mpc.models.
"""

import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from conftest import ORACLE_GRID, check_decoupling, stacked_h2, with_narrow_resonance
from lti2mpc import linalg, realisation
from lti2mpc.linalg import (
    NumericalError,
    UnstableSystemError,
    eig_paired,
    loop_margins,
    spectral_radius,
)
from lti2mpc.models import (
    CASE_STUDIES,
    pendulum_controller,
    pendulum_plant,
    satellite_controller,
    satellite_plant,
    scale_surrogate,
)
from lti2mpc.realisation import (
    ObserverRealisation,
    RealisationChoice,
    RealisationScore,
    _dist_injection,
    _form,
    _h2_scores,
    _noise_matrices,
    _t_qr,
    closed_loop_matrix,
    equivalence_residual,
    margin_loop,
    search_realisations,
)
from lti2mpc.statespace import DtStateSpace, add_dipole, loop_shift, unobservable_modes


def _scalar(a, b, c, d=0.0, Ts=1.0):
    return DtStateSpace([[a]], [[b]], [[c]], [[d]], Ts)


def _random_stable_pair(rng, n, n_K, n_u=1, n_y=1, strictly_proper_K=True):
    """Plant/controller pair with a stable positive closure, by resampling."""
    for _ in range(200):
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.3, 0.9) / max(spectral_radius(A), 1e-9)
        G = DtStateSpace(A, rng.standard_normal((n, n_u)),
                         rng.standard_normal((n_y, n)), np.zeros((n_y, n_u)), 1.0)
        AK = rng.standard_normal((n_K, n_K))
        AK *= rng.uniform(0.2, 0.8) / max(spectral_radius(AK), 1e-9)
        DK = np.zeros((n_u, n_y)) if strictly_proper_K else 0.1 * rng.standard_normal((n_u, n_y))
        K = DtStateSpace(AK, 0.2 * rng.standard_normal((n_K, n_y)),
                         0.2 * rng.standard_normal((n_u, n_K)), DK, 1.0)
        if spectral_radius(closed_loop_matrix(G, K)) < 0.97:
            return G, K
    raise AssertionError("no stable pair found")


def _one_split(G, K, form, S):
    """The realisation and score of the single split S: a forced_S of n
    indices admits no other split."""
    ((r, score),) = search_realisations(G, K, form=form, forced_S=S).ranked
    return r, score


# the reasons a split's T solve gives (see _solve_T_stack): any later
# rejection, of a T that solved, is a fault of the built realisation
_T_SOLVE_REASONS = ("U1 ill conditioned", "residual")


def _feasible(G, K, form):
    """The ranked rows of the search over every split, [] when none is
    feasible; fails unless every rejected split failed its T solve."""
    try:
        result = search_realisations(G, K, form=form, forced_S=())
    except NumericalError as exc:
        message = str(exc)
        if "no split of the closed-loop spectrum" in message:
            return []
        counts = message.removeprefix("no feasible realisation: ").split("; ")
        if not all(c.split(" x ", 1)[1].startswith(_T_SOLVE_REASONS) for c in counts):
            raise
        return []
    for _, reason in result.rejected:
        assert reason.startswith(_T_SOLVE_REASONS), reason
    return result.ranked


def _random_free_poles(monkeypatch, rng):
    """Make every search take random free-pole gains X, which any X may be:
    T-dagger = T^+ + T_perp X satisfies T T-dagger = I for every X."""
    def gains(self, T_perp):
        k, _, free = T_perp.shape
        return rng.standard_normal((k, free, self.K.n)), [None] * k

    monkeypatch.setattr(realisation._Search, "free_pole_gains", gains)


def _spy_free_poles(monkeypatch):
    """Record the free-pole basis T_perp and gains X of every split the
    search designs, where the kernel forms them: the basis _t_qr gives for
    a stack T, and the gains free_pole_gains (as patched so far) returns
    for that basis.  Returns the lookup r -> (T_perp, X) of a ranked row,
    found by its T."""
    t_qr, gains = realisation._t_qr, realisation._Search.free_pole_gains
    of_basis, designed = {}, {}

    def spy_t_qr(T):
        out = t_qr(T)
        of_basis[id(out[1])] = T
        return out

    def spy_gains(self, T_perp):
        X, errors = gains(self, T_perp)
        for T, basis, x in zip(of_basis.pop(id(T_perp)), T_perp, X):
            designed[T.tobytes()] = basis, x
        return X, errors

    monkeypatch.setattr(realisation, "_t_qr", spy_t_qr)
    monkeypatch.setattr(realisation._Search, "free_pole_gains", spy_gains)
    return lambda r: designed[r.T.tobytes()]


def _score_one(r, G):
    """The search's scores of one realisation."""
    observer = _form(r.form).observer(G, r.K_f[np.newaxis])
    return RealisationScore(*map(float, _h2_scores(G, observer)[0]))


def _verify_equivalence(K_obs, K0):
    """The grid oracle, independent of T: the largest relative
    transfer-function deviation of K_obs from K0 on ORACLE_GRID, inf when
    a response overflows.  It is blind between its points (see
    test_the_grid_oracle_misses_a_narrow_resonance_that_the_exact_check_sees)."""
    if (K_obs.n_u, K_obs.n_y) != (K0.n_u, K0.n_y):
        raise ValueError("systems have different I/O dimensions")
    with np.errstate(over="ignore", invalid="ignore"):
        R1 = K_obs.freq_response(ORACLE_GRID)
        R0 = K0.freq_response(ORACLE_GRID)
        gap = R1 - R0
        if not (np.isfinite(gap).all() and np.isfinite(R0).all()):
            return math.inf  # an overflowed response matches nothing
        ratios = np.linalg.norm(gap, 2, axis=(1, 2)) / (1.0 + np.linalg.norm(R0, 2, axis=(1, 2)))
    if np.isnan(ratios).any():
        return math.inf
    return max([0.0, *ratios])


def _assert_exactly_equivalent(r, G, K):
    """equivalence_residual certifies r against K, and fails r with its
    K_f moved by 1e-6 relative."""
    assert equivalence_residual(r, G, K) <= 1e-11
    assert equivalence_residual(dataclasses.replace(r, K_f=r.K_f * (1.0 + 1e-6)), G, K) >= 1e-8


def _split_choices(eig, n, n_K, forced_S=()):
    """The rows of ``realisation._splits`` as RealisationChoices, in its
    order and with its refusals, as the search builds them."""
    S, O = realisation._splits(eig, n, n_K, forced_S)
    return [RealisationChoice(tuple(s), tuple(o)) for s, o in zip(S.tolist(), O.tolist())]


# -- scalar oracles ----------------------------------------------------------

def test_scalar_predictor_both_splits():
    G = _scalar(0.5, 1.0, 1.0)
    K = _scalar(0.2, 0.3, 0.4)  # strictly proper
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    assert_allclose(eig.values, [-0.027492, 0.727492], atol=1e-6)

    choices = _split_choices(eig, 1, 1)
    assert [c.state_feedback_set for c in choices] == [(0,), (1,)]

    # roots of 0.4 T^2 + 0.3 T - 0.3 = 0
    expect = {(1,): (0.568729, 0.227492, 0.527492),
              (0,): (-1.318729, -0.527492, -0.227492)}
    for c in choices:
        r, _ = _one_split(G, K, "predictor", c.state_feedback_set)
        assert r.choice == c
        T_ref, Kc_ref, Kf_ref = expect[c.state_feedback_set]
        assert_allclose(r.T, [[T_ref]], atol=1e-6)
        assert_allclose(r.K_c, [[Kc_ref]], atol=1e-6)
        assert_allclose(r.K_f, [[Kf_ref]], atol=1e-6)
        # quadratic satisfied
        T = r.T[0, 0]
        assert abs(0.4 * T * T + 0.3 * T - 0.3) < 1e-12
        assert _verify_equivalence(_form(r.form).controller(r, G), K) < 1e-12
        # observer error pole is the eigenvalue left out of S
        left_out = eig.values[1 - c.state_feedback_set[0]].real
        assert_allclose(G.A[0, 0] - r.K_f[0, 0] * G.C[0, 0], left_out, atol=1e-6)


def test_scalar_filter_both_splits_and_feedthrough_identity():
    G = _scalar(0.5, 1.0, 1.0)
    # h g / f = d  so the controller has a zero at the origin
    K = _scalar(0.2, 0.3, 0.1, d=0.15)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    assert_allclose(eig.values, [0.141055, 0.708945], atol=1e-6)

    expect = {(1,): (0.589454, 0.208945, 0.717891),
              (0,): (-5.089454, -0.358945, -0.417891)}
    for c in _split_choices(eig, 1, 1):
        r, _ = _one_split(G, K, "filter", c.state_feedback_set)
        assert r.choice == c
        T_ref, Kc_ref, Kf_ref = expect[c.state_feedback_set]
        assert_allclose(r.T, [[T_ref]], atol=1e-6)
        assert_allclose(r.K_c, [[Kc_ref]], atol=1e-6)
        assert_allclose(r.K_f, [[Kf_ref]], atol=1e-6)
        # K_c K_f recovers the controller feedthrough exactly
        assert_allclose(r.K_c @ r.K_f, K.D, atol=1e-10)
        assert _verify_equivalence(_form(r.form).controller(r, G), K) < 1e-12


# -- choice enumeration ------------------------------------------------------

def test_enumerate_keeps_conjugate_pairs_together():
    M = np.zeros((4, 4))
    M[:2, :2] = [[0.4, 0.3], [-0.3, 0.4]]
    M[2, 2], M[3, 3] = 0.2, -0.5
    eig = eig_paired(M)
    choices = _split_choices(eig, 2, 2)
    sets = {c.state_feedback_set for c in choices}
    # pair as one atom: either both pair members or both reals go to S
    assert len(choices) == 2
    pair_idx = tuple(sorted(i for i in range(4) if abs(eig.values[i].imag) > 1e-12))
    assert pair_idx in sets
    # a hand-made split that separates the pair has no real basis
    real_idx = tuple(i for i in range(4) if i not in pair_idx)
    half = RealisationChoice((pair_idx[0], real_idx[0]), (pair_idx[1], real_idx[1]))
    with pytest.raises(ValueError, match="conjugate pair .* split by the selection"):
        realisation._Eigenbasis(eig).subspaces([half.state_feedback_set])


def test_enumerate_fuses_repeated_eigenvalues():
    eig = eig_paired(np.diag([0.5, 0.5, 0.3, 0.2]))
    choices = _split_choices(eig, 2, 2)
    assert len(choices) == 2  # {0.5, 0.5} or {0.3, 0.2}


def test_enumerate_honours_forced_modes():
    M = np.zeros((4, 4))
    M[:2, :2] = [[0.4, 0.3], [-0.3, 0.4]]
    M[2, 2], M[3, 3] = 0.2, -0.5
    eig = eig_paired(M)
    forced = [i for i in range(4) if abs(eig.values[i] - 0.2) < 1e-9]
    choices = _split_choices(eig, 2, 2, forced_S=forced)
    assert len(choices) == 1
    assert forced[0] in choices[0].state_feedback_set


def _recursive_choices(eig, n, n_K, forced_S=()):
    """The admissible splits as RealisationChoices, by a recursion over the
    free atoms that copies the picked list at every level, as the
    enumeration was first written."""
    forced = set(forced_S)
    atoms = realisation._value_groups(eig)
    free = [a for a in atoms if not forced & set(a)]
    base = [i for a in atoms if forced & set(a) for i in a]
    need = n - len(base)
    out = []

    def rec(pos, picked, size):
        if size == need:
            s = tuple(sorted(base + [i for a in picked for i in a]))
            out.append(RealisationChoice(s, tuple(sorted(set(range(eig.n)) - set(s)))))
            return
        if pos == len(free) or size > need:
            return
        rec(pos + 1, picked + [free[pos]], size + len(free[pos]))
        rec(pos + 1, picked, size)

    rec(0, [], 0)
    out.sort(key=lambda c: c.state_feedback_set)
    return out


def _random_spectrum(rng):
    """A real matrix with distinct reals and conjugate pairs, and at random a
    double real, a triple real and a double pair (fused blocks), in a random
    orthogonal basis."""
    blocks = []
    for _ in range(rng.integers(1, 4)):
        blocks.append([[rng.uniform(-0.9, 0.9)]])
    for _ in range(rng.integers(1, 4)):
        r, w = rng.uniform(0.1, 0.9), rng.uniform(0.1, 3.0)
        blocks.append([[r * np.cos(w), r * np.sin(w)], [-r * np.sin(w), r * np.cos(w)]])
    lam = rng.uniform(-0.9, 0.9)
    blocks += [[[lam]]] * int(rng.integers(0, 3)) + [[[-0.95]]] * 3 * int(rng.integers(0, 2))
    if rng.integers(0, 2):
        blocks += [[[0.3, 0.4], [-0.4, 0.3]]] * 2
    M = np.zeros((0, 0))
    for b in blocks:
        M = np.block([[M, np.zeros((len(M), len(b)))], [np.zeros((len(b), len(M))), np.array(b)]])
    Q = np.linalg.qr(rng.standard_normal(M.shape))[0]
    return eig_paired(Q @ M @ Q.T)


def _assert_split_arrays(eig, n, n_K, forced, expect):
    """_splits gives the rows of ``expect`` as S (k, n) and O (k, n_K)."""
    S, O = realisation._splits(eig, n, n_K, forced)
    assert S.shape == (len(expect), n) and O.shape == (len(expect), n_K)
    assert S.dtype.kind == O.dtype.kind == "i"
    assert S.tolist() == [list(c.state_feedback_set) for c in expect]
    assert O.tolist() == [list(c.observer_set) for c in expect]


def test_iterative_enumeration_matches_the_recursive_one():
    G, K = scale_surrogate(0)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
    uncontrollable = unobservable_modes(A_cl.T, B_cl.T, eig.values)
    pairs = [i for i in range(eig.n) if eig.pair_index[i] is not None]
    for forced in (sorted(set(uncontrollable) | set(pairs[:k])) for k in (4, 8)):
        expect = _recursive_choices(eig, G.n, K.n, forced)
        assert len(expect) > 100
        assert _split_choices(eig, G.n, K.n, forced) == expect
        _assert_split_arrays(eig, G.n, K.n, forced, expect)
    rng = np.random.default_rng(31)
    fused = 0
    for _ in range(40):
        eig = _random_spectrum(rng)
        fused += any(len(a) > 2 or (len(a) == 2 and eig.pair_index[a[0]] is None)
                     for a in realisation._value_groups(eig))
        forced = rng.choice(eig.n, size=rng.integers(0, 3), replace=False).tolist()
        for n in range(eig.n + 1):
            expect = _recursive_choices(eig, n, eig.n - n, forced)
            try:
                got = _split_choices(eig, n, eig.n - n, forced)
            except ValueError as exc:  # the forced block alone is larger than S
                assert "exceeds" in str(exc) and not expect
                with pytest.raises(ValueError, match="exceeds"):
                    realisation._splits(eig, n, eig.n - n, forced)
                continue
            assert got == expect
            _assert_split_arrays(eig, n, eig.n - n, forced, expect)
    assert fused >= 20


@pytest.mark.parametrize("entry", [True, np.True_, 1.0, 1.5, "1", None])
def test_a_forced_S_entry_that_is_not_an_integer_is_refused(entry):
    # True and 1.0 would otherwise force index 1 (the pendulum's pair (0, 1))
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    message = rf"forced_S entry {re.escape(repr(entry))} is not an integer"
    with pytest.raises(ValueError, match=message):
        search_realisations(Gs, Ks, form="predictor", forced_S=[entry])
    with pytest.raises(ValueError, match=message):
        realisation._splits(eig_paired(closed_loop_matrix(Gs, Ks)), Gs.n, Ks.n, [3, entry])


def test_a_forced_S_of_numpy_integers_is_accepted():
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    assert len(search_realisations(Gs, Ks, form="predictor").ranked) == 3
    for forced in ([1], [np.int64(1)], np.array([1], dtype=np.int32)):
        out = search_realisations(Gs, Ks, form="predictor", forced_S=forced)
        assert sorted(r.choice.state_feedback_set for r, _ in out.ranked) == [(0, 1, 2, 3),
                                                                             (0, 1, 4, 5)]


def test_overlapping_split_rejected():
    with pytest.raises(ValueError):
        RealisationChoice((0, 1), (1, 2))


def test_every_searched_split_partitions_the_spectrum():
    # RealisationChoice checks only that S and O are disjoint: each one the
    # search returns, ranked or rejected, must put every closed-loop mode in
    # exactly one of S (n modes) and O (n_K modes)
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    out = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    choices = [r.choice for r, _ in out.ranked] + [c for c, _ in out.rejected]
    assert len(choices) == 170 and out.ranked and out.rejected
    for c in choices:
        assert len(c.state_feedback_set) == G.n and len(c.observer_set) == K.n
        assert sorted(c.state_feedback_set + c.observer_set) == list(range(G.n + K.n))
        assert set(forced) <= set(c.state_feedback_set)


def test_solve_T_reports_infeasible_direction():
    # eigenvector of 0.2 has no component on the plant state: U1 singular
    G, K = _scalar(0.5, 1.0, 1.0), _scalar(0.2, 1.0, 0.0)
    A_cl = closed_loop_matrix(G, K)
    assert np.array_equal(A_cl, [[0.5, 0.0], [1.0, 0.2]])
    eig = eig_paired(A_cl)
    (bad,) = [i for i in range(2) if abs(eig.values[i] - 0.2) < 1e-9]
    with pytest.raises(NumericalError, match="^no feasible realisation: 1 x U1 ill conditioned$"):
        search_realisations(G, K, form="predictor", forced_S=[bad])


def test_rank_deficient_T_is_rejected():
    # the output never sees the plant mode 0.4, so its eigenvector has no
    # controller component and T = [[10/3, 0], [5, 0]] has rank 1
    G = DtStateSpace(np.diag([0.5, 0.4]), np.ones((2, 1)), [[1.0, 0.0]], [[0.0]], 1.0)
    K = DtStateSpace(np.diag([0.2, 0.3]), np.ones((2, 1)), np.zeros((1, 2)), [[0.0]], 1.0)
    eig = eig_paired(closed_loop_matrix(G, K))
    plant = [i for i in range(4) if min(abs(eig.values[i] - 0.5), abs(eig.values[i] - 0.4)) < 1e-9]
    with pytest.raises(NumericalError, match="^no feasible realisation: 1 x T is rank deficient$"):
        search_realisations(G, K, form="predictor", forced_S=plant)


def test_a_spectrum_without_an_admissible_split_is_a_numerical_error():
    # the closed loop is one conjugate pair, which n = 1 cannot hold whole
    G, K = _scalar(0.5, 1.0, 1.0), _scalar(0.5, 1.0, -0.1)
    assert np.all(eig_paired(closed_loop_matrix(G, K)).values.imag != 0)
    with pytest.raises(NumericalError, match="no split of the closed-loop spectrum puts n = 1 "
                                             "eigenvalues in S with conjugate pairs"):
        search_realisations(G, K, form="predictor")


def test_a_forced_set_that_leaves_no_admissible_split_is_named():
    # one real eigenvalue and a conjugate pair: S may be the pair, but once
    # the real one is forced, n = 2 leaves one place, which the pair cannot fill
    G = DtStateSpace(np.diag([0.5, 0.3]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]], 1.0)
    K = _scalar(0.2, 1.0, -0.2)
    eig = eig_paired(closed_loop_matrix(G, K))
    (real,) = np.flatnonzero(eig.values.imag == 0)
    assert search_realisations(G, K, form="predictor").ranked
    with pytest.raises(NumericalError, match=rf"puts n = 2 eigenvalues in S, the forced_S "
                                             rf"indices \[{real}\] among them, with conjugate"):
        search_realisations(G, K, form="predictor", forced_S=[real])


# -- reconstruction property over random pairs -------------------------------

def test_predictor_reconstructs_random_controllers(monkeypatch):
    rng = np.random.default_rng(21)
    _random_free_poles(monkeypatch, np.random.default_rng(121))  # any X works
    checked = 0
    for _ in range(15):
        n_K = int(rng.integers(1, 4))
        G, K = _random_stable_pair(rng, 3, n_K)
        for r, _ in _feasible(G, K, "predictor"):
            assert _verify_equivalence(_form(r.form).controller(r, G), K) < 1e-7
            # no moved-K_f check: a random X makes K_f large, and a 1e-6
            # relative move of it then moves K(z) by as little as ~1e-10
            assert equivalence_residual(r, G, K) <= 1e-11
            checked += 1
    assert checked >= 20


def test_filter_reconstructs_dipole_augmented_controllers():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(12):
        G, K0 = _random_stable_pair(rng, 2, 1, strictly_proper_K=False)
        K = add_dipole(K0, W=50.0)
        A_cl = closed_loop_matrix(G, K)
        if spectral_radius(A_cl) >= 1.0 or np.linalg.cond(G.A) > 1e10:
            continue
        for r, _ in _feasible(G, K, "filter"):
            assert _verify_equivalence(_form(r.form).controller(r, G), K) < 1e-7
            _assert_exactly_equivalent(r, G, K)
            assert_allclose(r.K_c @ r.K_f, K.D, atol=1e-7)
            checked += 1
    assert checked >= 8


def test_equivalence_check_catches_a_wrong_gain():
    G = _scalar(0.5, 1.0, 1.0)
    K = _scalar(0.2, 0.3, 0.4)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    r, _ = _one_split(G, K, "predictor", _split_choices(eig, 1, 1)[1].state_feedback_set)
    # rebuild the observer controller with a perturbed injection gain
    A_obs = G.A + G.B @ r.K_c - np.array([[1.1 * r.K_f[0, 0]]]) @ G.C
    wrong = DtStateSpace(A_obs, [[1.1 * r.K_f[0, 0]]], r.K_c, [[0.0]], 1.0)
    assert _verify_equivalence(wrong, K) > 1e-3


def test_equivalence_check_fails_overflowing_responses():
    # opposite signs, but both responses overflow to inf and inf - inf is NaN
    K0 = _scalar(0.5, 1e200, 1e200)
    K_obs = _scalar(0.5, 1e200, -1e200)
    assert _verify_equivalence(K_obs, K0) == np.inf
    assert _verify_equivalence(_scalar(0.5, 1.0, -1.0), _scalar(0.5, 1.0, 1.0)) > 1.0


def test_the_grid_oracle_misses_a_narrow_resonance_that_the_exact_check_sees():
    # the pendulum baseline plus a resonance of radius 1 - 1e-5 between two
    # grid points, which the rank-1 realisation of the plain baseline lacks
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    r = search_realisations(Gs, Ks, form="predictor", rank_by="noise").ranked[0][0]
    K_res, theta = with_narrow_resonance(Ks, 1e-2, 3.5e-5)
    ctrl = _form(r.form).controller(r, Gs)
    assert _verify_equivalence(ctrl, K_res) < 1e-6  # the grid would pass it
    R1, R0 = ctrl.freq_response([theta])[0], K_res.freq_response([theta])[0]
    assert np.linalg.norm(R1 - R0, 2) / (1.0 + np.linalg.norm(R0, 2)) > 1e-4
    # with T recovered from the gains, as for gains supplied without one
    assert equivalence_residual(dataclasses.replace(r, T=np.zeros((0, 0))), Gs, K_res) > 1e-6


def test_a_split_whose_gains_break_the_feedthrough_identity_is_rejected(monkeypatch):
    # K_f of each chunk's first split moved by 1e-6 relative, so that
    # K_c K_f - D_K is about 1e-6 D_K
    gains = realisation._FilterForm.gains

    def moved(self, G, K, T, T_dagger):
        K_c, K_f = gains(self, G, K, T, T_dagger)
        K_f[0] *= 1.0 + 1e-6
        return K_c, K_f

    monkeypatch.setattr(realisation._FilterForm, "gains", moved)
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    out = search_realisations(G, K, form="filter")
    assert len(out.ranked) == 3
    ((choice, reason),) = out.rejected
    assert choice.state_feedback_set == (0, 1, 5)
    err = re.fullmatch(r"K_c K_f - D_K = (\d\.\d\de-\d\d), expected 0", reason)
    assert_allclose(float(err.group(1)), 1e-6 * np.linalg.norm(K.D), rtol=1e-2)


# -- free observer poles -----------------------------------------------------

def test_free_poles_follow_reduced_pair_spectrum(monkeypatch):
    rng = np.random.default_rng(23)
    G, K = _random_stable_pair(rng, 4, 2)
    _random_free_poles(monkeypatch, rng)
    free_poles = _spy_free_poles(monkeypatch)
    eig = eig_paired(closed_loop_matrix(G, K))
    found = _feasible(G, K, "predictor")
    assert found, "no feasible choice in fixture"
    for r, _ in found:
        Tp, X = free_poles(r)
        A_red = Tp.T @ G.A @ Tp
        C_red = K.B @ G.C @ Tp
        Ae = G.A - r.K_f @ G.C
        want = np.concatenate([
            np.array([eig.values[i] for i in r.choice.observer_set]),
            np.linalg.eigvals(A_red - X @ C_red),
        ])
        got = np.linalg.eigvals(Ae)
        assert_allclose(np.sort_complex(got), np.sort_complex(want), atol=1e-7)


def test_design_free_poles_quiet_measurements_keep_reduced_dynamics(monkeypatch):
    rng = np.random.default_rng(24)
    G, K = _random_stable_pair(rng, 4, 2)
    free_poles = _spy_free_poles(monkeypatch)
    found = search_realisations(G, K, form="predictor", forced_S=(), Qn=1.0, Rn=1e7)
    for r, _ in found.ranked:
        Tp, X = free_poles(r)
        assert np.linalg.norm(X) < 1e-3
        A_red = Tp.T @ G.A @ Tp
        got = np.sort_complex(np.linalg.eigvals(A_red - X @ (K.B @ G.C @ Tp)))
        assert_allclose(got, np.sort_complex(np.linalg.eigvals(A_red)), atol=1e-3)


def test_design_free_poles_without_free_poles_is_empty_and_checks_the_covariances(monkeypatch):
    # n_K = n (satellite): no free pole, an empty X, and the covariances
    # judged as for any search
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    assert K.n == G.n
    free_poles = _spy_free_poles(monkeypatch)
    found = search_realisations(G, K, form="filter")
    assert found.ranked and all(free_poles(r)[1].shape == (0, K.n) for r, _ in found.ranked)
    monkeypatch.undo()  # the call below takes its basis from no _t_qr
    X, errors = realisation._Search(G, K, "filter", 1.0, 1e7).free_pole_gains(
        np.zeros((2, G.n, 0)))
    assert X.shape == (2, 0, K.n) and errors == [None, None]
    for Qn, Rn, message in [(-1.0, 1e7, "Qn must be positive semidefinite"),
                            (np.eye(G.n), 1e7, "Qn must be a scalar"),
                            (1.0, 0.0, "Rn must be positive definite")]:
        with pytest.raises(ValueError, match=message):
            search_realisations(G, K, form="filter", Qn=Qn, Rn=Rn)


def test_free_pole_gain_rejects_an_undetectable_reduced_pair():
    # on T_perp = span(e1, e2) the reduced pair is (diag(1, 0.5), [0 1]):
    # the integrator at 1 never reaches the measurement
    G = DtStateSpace(np.diag([1.0, 0.5, 0.2]), np.ones((3, 1)), [[0.0, 1.0, 1.0]],
                     [[0.0]], 1.0)
    K = DtStateSpace([[0.3]], [[1.0]], [[0.5]], [[0.0]], 1.0)
    search = realisation._Search(G, K, "predictor", 1.0, 1e7)
    _, (err,) = search.free_pole_gains(np.eye(3)[np.newaxis, :, :2])
    assert isinstance(err, NumericalError)
    assert "undetectable at modes 1.0000" in str(err)


# -- shared factorisations -----------------------------------------------------

def _oracle_null_basis(T):
    """Null basis of T by its own SVD, largest-magnitude entry positive."""
    basis = np.linalg.svd(T)[2][T.shape[0]:].T
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


@pytest.mark.parametrize("shape", [(1, 3), (2, 4), (3, 5), (3, 3)])
def test_t_qr_gives_a_null_basis_pinv_and_rank_verdict(shape, monkeypatch):
    # basis-free: T_perp is checked through its projector, not entry by
    # entry, and the rank verdict against the SVD rule on members on both
    # sides of sigma_min / sigma_max = 1e-8, so the SVD fallback runs
    rng = np.random.default_rng(25)
    n_K, n = shape
    Ts = [10.0 ** rng.uniform(-2, 3) * rng.standard_normal(shape) for _ in range(5)]
    for ratio in (3e-8, 1.2e-8, 0.8e-8, 1e-12, 0.0):  # sigma_min / sigma_max when n_K > 1
        U = np.linalg.qr(rng.standard_normal((n_K, n_K)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0][:n_K]
        Ts.append(U @ np.diag([*np.ones(n_K - 1), ratio]) @ V)
    Ts = np.stack(Ts)
    svd_calls = _spy_svd(monkeypatch)
    deficient, T_perps, T_pinvs = _t_qr(Ts)
    monkeypatch.undo()
    for i, (T, bad, T_perp, T_pinv) in enumerate(zip(Ts, deficient, T_perps, T_pinvs)):
        sv = np.linalg.svd(T, compute_uv=False)
        assert bad == (sv[-1] <= 1e-8 * sv[0])
        assert T_perp.shape == (n, n - n_K)
        assert_allclose(T_perp.T @ T_perp, np.eye(n - n_K), rtol=0, atol=1e-12)
        assert np.linalg.norm(T @ T_perp) <= 1e-12 * max(1.0, np.linalg.norm(T))
        if i >= 5:
            continue  # near rank deficient: null space and T^+ are ill conditioned
        oracle = _oracle_null_basis(T)
        assert_allclose(T_perp @ T_perp.T, oracle @ oracle.T, rtol=0, atol=1e-12)
        P = np.linalg.pinv(T)
        assert_allclose(T_pinv, P, rtol=0, atol=1e-12 * np.abs(P).max())
    # one row has sigma_min = sigma_max: only the zero row is deficient
    expect = [False, False, True, True, True] if n_K > 1 else [False] * 4 + [True]
    assert list(deficient) == [False] * 5 + expect
    (checked,) = svd_calls  # the uncertified members took the SVD, and only they
    assert len(checked) == (4 if n_K > 1 else 1)


def _dist_system(G, Ae):
    """The disturbance-to-estimate map whose norm is h2_dist."""
    E, D = _dist_injection(G)
    return DtStateSpace(Ae, E, np.eye(G.n), D, G.Ts)


def _with_disturbance_states(G, states):
    return DtStateSpace(G.A, G.B, G.C, G.D, G.Ts, disturbance_states=states)


def _scored_random_realisations(monkeypatch):
    """(realisation, G) over random predictor- and filter-form pairs, the
    predictor form with random free-pole gains."""
    rng = np.random.default_rng(26)
    _random_free_poles(monkeypatch, np.random.default_rng(126))
    out = []
    for _ in range(10):
        n_K = int(rng.integers(1, 4))
        G, K = _random_stable_pair(rng, 3, n_K)
        out += [(r, G) for r, _ in _feasible(G, K, "predictor")]
    for _ in range(8):
        G, K0 = _random_stable_pair(rng, 2, 1, strictly_proper_K=False)
        K = add_dipole(K0, W=50.0)
        A_cl = closed_loop_matrix(G, K)
        if spectral_radius(A_cl) >= 1.0 or np.linalg.cond(G.A) > 1e10:
            continue
        out += [(r, G) for r, _ in _feasible(G, K, "filter")]
    return out


def _lyapunov_h2(sys):
    """H2 norm from scipy's Schur/bilinear Lyapunov solver: an oracle
    independent of the package's Stein doubling."""
    P = scipy.linalg.solve_discrete_lyapunov(sys.A, sys.B @ sys.B.T)
    return math.sqrt(np.trace(sys.C @ P @ sys.C.T) + np.trace(sys.D @ sys.D.T))


def test_doubling_scores_match_lyapunov_h2_norms(monkeypatch):
    realisations = _scored_random_realisations(monkeypatch)
    checked = {"filter": 0, "predictor": 0}
    for r, G in realisations:
        for Gs in (G, _with_disturbance_states(G, (0,))):
            s = _score_one(r, Gs)
            if not s.stable:
                continue
            noise = _form(r.form).noise_system(r, Gs)
            assert_allclose(s.h2_noise, _lyapunov_h2(noise), rtol=1e-10)
            assert_allclose(s.h2_dist, _lyapunov_h2(_dist_system(Gs, noise.A)), rtol=1e-10)
            assert s.product == s.h2_noise * s.h2_dist
            checked[r.form] += 1
    assert checked["predictor"] >= 20 and checked["filter"] >= 8


def _hand_realisation(A):
    """Predictor-form realisation with K_f = 0, so its error dynamics are A."""
    n = A.shape[0]
    G = DtStateSpace(A, np.ones((n, 1)), np.eye(1, n), [[0.0]], 1.0)
    r = ObserverRealisation(form="predictor", T=np.ones((1, n)), K_c=np.zeros((1, n)),
                            K_f=np.zeros((n, 1)), choice=None, riccati_residual=0.0)
    return r, G


def test_defective_error_dynamics_score_by_doubling():
    # a Jordan block has no eigenbasis; the doubling needs none
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    r, G = _hand_realisation(A)
    s = _score_one(r, G)
    assert s.stable
    assert_allclose(s.h2_noise, _lyapunov_h2(_form(r.form).noise_system(r, G)), rtol=1e-10)
    assert_allclose(s.h2_dist, _lyapunov_h2(_dist_system(G, G.A)), rtol=1e-10)


def test_unstable_error_dynamics_score_infinite():
    r, G = _hand_realisation(np.array([[1.2, 0.3], [0.0, 0.4]]))
    s = _score_one(r, G)
    assert not s.stable
    assert s.h2_noise == s.h2_dist == s.product == np.inf
    assert stacked_h2(_form(r.form).noise_system(r, G)) == np.inf


def test_unexcited_unstable_mode_still_scores_infinite():
    # K_f = 0 and E = e_0 never reach state 1, whose mode 1.5 is unstable:
    # both Gramians stay finite, so only the powers of Ae can tell
    A = np.array([[0.5, 0.3], [0.0, 1.5]])
    r, G = _hand_realisation(A)
    G = _with_disturbance_states(G, (0,))
    E, _ = _dist_injection(G)
    assert not np.any([(np.linalg.matrix_power(A, j) @ E)[1] for j in range(8)])
    s = _score_one(r, G)
    assert not s.stable
    assert s.h2_noise == s.h2_dist == s.product == np.inf


def test_error_dynamics_near_the_unit_circle_score_by_doubling():
    # 2^60 doublings leave (1 - 1e-13)^(2^60), about e^-115000, of the slow
    # mode: certified within the cap
    A = np.array([[1.0 - 1e-13, 0.3], [0.0, 0.5]])
    r, G = _hand_realisation(A)
    s = _score_one(r, G)
    assert s.stable
    assert_allclose(s.h2_noise, _lyapunov_h2(_form(r.form).noise_system(r, G)), rtol=1e-6)
    assert_allclose(s.h2_dist, _lyapunov_h2(_dist_system(G, G.A)), rtol=1e-6)
    assert s.h2_dist > 1e5  # the slow mode's Gramian is about 1 / (2e-13)


@pytest.mark.parametrize("A, cap", [
    # 2^40 doublings leave (1 - 1e-13)^(2^40), about 0.9, of the slow mode
    (np.array([[1.0 - 1e-13, 0.3], [0.0, 0.5]]), 40),
    # the first doubling overflows
    (np.array([[0.5, 1e200], [0.0, 0.5]]), None),
], ids=["past the cap", "overflow"])
def test_stable_error_dynamics_the_doubling_does_not_certify_score_nan(monkeypatch, A, cap):
    if cap is not None:
        monkeypatch.setattr(linalg, "_STEIN_MAX_DOUBLINGS", cap)
    r, G = _hand_realisation(A)
    assert spectral_radius(A) < 1.0
    s = _score_one(r, G)
    assert np.isnan(s.h2_noise) and np.isnan(s.h2_dist)
    assert np.isnan(stacked_h2(_form(r.form).noise_system(r, G)))


# -- pinned case studies -----------------------------------------------------

SAT_TABLE = {
    # S indices: (noise, dist, gain margin, delay margin)
    (0, 4, 5): (0.6308, 3.1938, 2.012, 0.990),
    (0, 1, 5): (0.4070, 5.7897, 1.662, 0.514),
    (1, 4, 5): (0.9853, 3.0056, 4.420, 2.831),
    (2, 3, 5): (0.9903, 5.0354, 11.670, 4.361),
}
SAT_ORDER = [(0, 4, 5), (0, 1, 5), (1, 4, 5), (2, 3, 5)]  # by product


def test_satellite_search_ranks_by_product():
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    out = search_realisations(G, K, form="filter", rank_by="product")
    assert len(out.ranked) == 4 and not out.rejected
    assert [r.choice.state_feedback_set for r, _ in out.ranked] == SAT_ORDER
    for r, s in out.ranked:
        noise, dist, gm, dm = SAT_TABLE[r.choice.state_feedback_set]
        assert_allclose(s.h2_noise, noise, rtol=2e-3)
        assert_allclose(s.h2_dist, dist, rtol=2e-3)
        assert_allclose(s.product, noise * dist, rtol=4e-3)
        margins = loop_margins(margin_loop(r, G, 0))
        assert_allclose(margins.gain_margin, gm, rtol=2e-3)
        assert_allclose(margins.delay_margin, dm, rtol=2e-3)
        # the uncontrollable integrator never leaves the state-feedback set
        assert 5 in r.choice.state_feedback_set
        # feedthrough identity holds for every realisation
        assert_allclose(r.K_c @ r.K_f, K.D, rtol=1e-8, atol=1e-8)
        assert _verify_equivalence(_form(r.form).controller(r, G), K) < 1e-8
        _assert_exactly_equivalent(r, G, K)


@pytest.mark.parametrize("name", ["satellite", "pendulum"])
def test_closed_margin_loop_has_the_separation_spectrum(name):
    # closing signal = L(signal) on input 0 is the nominal observer loop when
    # K_c acts through input 0 alone: eig(A + B K_c) with the error dynamics
    case = CASE_STUDIES[name]
    _, _, G, K = case.loop()
    found = search_realisations(G, K, form=case.form, rank_by=case.rank_by)
    assert found.ranked
    for r, _ in found.ranked:
        assert not np.any(r.K_c[1:])
        L = margin_loop(r, G, 0)
        closed = np.linalg.eigvals(L.A + L.B @ L.C)
        want = np.concatenate([np.linalg.eigvals(G.A + G.B @ r.K_c),
                               np.linalg.eigvals(_form(r.form).noise_system(r, G).A)])
        rows, cols = linear_sum_assignment(np.abs(want[:, None] - closed[None, :]))
        assert np.max(np.abs(closed[cols] - want[rows])) < 1e-12


def _default_forced_S(monkeypatch, G, K, form):
    """forced_S that search_realisations hands to the split enumeration."""
    seen = []

    def spy(eig, n, n_K, forced_S=()):
        seen.append(list(forced_S))
        return np.zeros((0, n), dtype=int), np.zeros((0, n_K), dtype=int)

    monkeypatch.setattr(realisation, "_splits", spy)
    with pytest.raises(NumericalError, match="no feasible realisation"):
        search_realisations(G, K, form=form)
    return seen[0]


def test_default_forced_S_is_the_input_uncontrollable_modes(monkeypatch):
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    forced = _default_forced_S(monkeypatch, G, K, "filter")
    assert forced == [5]
    assert_allclose(eig_paired(closed_loop_matrix(G, K)).values[5], 1.0, atol=1e-12)
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    assert _default_forced_S(monkeypatch, Gs, Ks, "predictor") == []


@pytest.mark.parametrize("G, K, kwargs, message", [
    (satellite_plant(), add_dipole(satellite_controller(), W=50.0),
     {"form": "filter", "rank_by": "bogus"}, "rank_by must be 'product' or 'noise'"),
    # A = 0 with K(0) = 0.2 - 0.1 / 0.5 = 0: a stable loop, closed-loop
    # poles 0 and 0.7, that the filter form cannot realise
    (_scalar(0.0, 1.0, 1.0), _scalar(0.5, 1.0, 0.1, 0.2), {"form": "filter"},
     "filter form needs a nonsingular plant A"),
], ids=["rank_by", "singular plant"])
def test_a_search_refuses_a_bad_ranking_or_a_singular_filter_plant(monkeypatch, G, K, kwargs,
                                                                   message):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    with pytest.raises(ValueError, match=message):
        search_realisations(G, K, **kwargs)


def test_closed_loop_matrix_refuses_a_plant_with_feedthrough():
    with pytest.raises(ValueError, match="expects a strictly proper plant"):
        closed_loop_matrix(_scalar(0.5, 1.0, 1.0, d=1e-12), _scalar(0.2, 0.3, 0.4))


def test_unknown_form_fails_before_any_split_is_solved(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    with pytest.raises(ValueError, match="unknown form 'bogus'"):
        search_realisations(G, K, form="bogus")


def test_satellite_best_injection_gain_pinned():
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    out = search_realisations(G, K, form="filter", rank_by="product")
    best = out.ranked[0][0]
    assert_allclose(best.K_f.ravel(), [30.0537, 20.0100, 79.3326], rtol=1e-3)


def test_satellite_parallel_search_matches_sequential():
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    seq = search_realisations(G, K, form="filter", rank_by="product")
    par = search_realisations(G, K, form="filter", rank_by="product", workers=2)
    assert [r.choice.state_feedback_set for r, _ in par.ranked] == \
           [r.choice.state_feedback_set for r, _ in seq.ranked]
    for (_, s1), (_, s2) in zip(seq.ranked, par.ranked):
        assert s1.h2_noise == s2.h2_noise
        assert s1.h2_dist == s2.h2_dist


PEND_TABLE = {
    (2, 3, 4, 5): (3.6235, 22.9652, (0.854, 0.1633)),
    (0, 1, 4, 5): (6.5779, 41.7376, (0.5138, 0.7347)),
    (0, 1, 2, 3): (19.6584, 28.3101, (0.3541, 0.6241)),
}
PEND_ORDER = [(2, 3, 4, 5), (0, 1, 4, 5), (0, 1, 2, 3)]  # by noise norm


def test_pendulum_search_ranks_by_noise():
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    out = search_realisations(Gs, Ks, form="predictor", rank_by="noise")
    assert len(out.ranked) == 3 and not out.rejected
    assert [r.choice.state_feedback_set for r, _ in out.ranked] == PEND_ORDER
    A_cl = closed_loop_matrix(Gs, Ks)
    eig = eig_paired(A_cl)
    for r, s in out.ranked:
        noise, dist, free_pole = PEND_TABLE[r.choice.state_feedback_set]
        assert_allclose(s.h2_noise, noise, rtol=2e-3)
        assert_allclose(s.h2_dist, dist, rtol=2e-3)
        # two observer poles are inherited, two come from the Kalman design
        Ae = Gs.A - r.K_f @ Gs.C
        ev = np.linalg.eigvals(Ae)
        inherited = [eig.values[i] for i in r.choice.observer_set]
        for lam in inherited:
            assert np.min(np.abs(ev - lam)) < 1e-6
        extra = sorted(ev, key=lambda z: min(abs(z - l) for l in inherited))[-2:]
        re, im = free_pole
        assert_allclose(sorted(np.abs(np.imag(extra))), [im, im], atol=2e-3)
        assert_allclose(np.real(extra), [re, re], atol=2e-3)
        assert _verify_equivalence(_form(r.form).controller(r, Gs), Ks) < 1e-8
        _assert_exactly_equivalent(r, Gs, Ks)


# -- refusals made once per search ---------------------------------------------

def test_controller_of_higher_order_than_the_plant_is_refused(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G, K = _random_stable_pair(np.random.default_rng(27), 2, 3)
    with pytest.raises(ValueError, match="controller order 3 exceeds plant order 2") as exc:
        search_realisations(G, K, form="predictor")
    assert "augment the plant" in str(exc.value)


@pytest.mark.parametrize("form", ["filter", "predictor"])
def test_static_controller_is_refused(monkeypatch, form):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G = _scalar(0.5, 1.0, 1.0)
    K = DtStateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-0.3]], 1.0)
    with pytest.raises(ValueError, match="controller is static"):
        search_realisations(G, K, form=form)


def test_unstable_closed_loop_is_refused_from_the_search_spectrum(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    eigs = []
    paired = realisation.eig_paired
    monkeypatch.setattr(realisation, "eig_paired", lambda A: eigs.append(A) or paired(A))
    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G, K = _scalar(1.1, 1.0, 1.0), _scalar(0.0, 1.0, 0.0)  # closed loop {1.1, 0}
    with pytest.raises(UnstableSystemError, match=r"unstable \(spectral radius 1\.1000\)"):
        search_realisations(G, K, form="predictor")
    assert len(eigs) == 1  # the refusal reads the search's own spectrum


@pytest.mark.parametrize("cut, message", [
    *((cut, f"cut_input {cut} is not an input channel: the plant has n_u = 2 inputs")
      for cut in (-1, 2, 5)),
    (0.5, "cut_input 0.5 is not an integer"),
    (True, "cut_input True is not an integer"),
    # the satellite's second input is the disturbance channel: K_c's row 1 is zero
    (1, "cut_input 1 is an input the controller never drives: row 1 of K_c is zero"),
])
def test_margin_loop_refuses_a_cut_outside_the_inputs(cut, message):
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    r = search_realisations(G, K, form="filter").ranked[0][0]
    assert G.n_u == 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        margin_loop(r, G, cut)
    assert margin_loop(r, G, np.int64(0)).n_u == 1


def test_a_split_whose_h2_norm_is_not_certified_is_rejected(monkeypatch):
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    full = search_realisations(G, K, form="filter")
    _modal_certifies_nothing(monkeypatch)
    scored = realisation._h2_stack
    calls = []

    def first_row_uncertified(A, maps):
        out = scored(A, maps)
        out[0, 1] = np.nan
        calls.append(A[0])
        return out

    monkeypatch.setattr(realisation, "_h2_stack", first_row_uncertified)
    found = search_realisations(G, K, form="filter")
    lost = [c.state_feedback_set for c, reason in found.rejected
            if reason == "H2 norm not certified"]
    assert len(calls) == len(lost) == 1
    assert len(found.ranked) == len(full.ranked) - 1
    assert lost[0] not in {r.choice.state_feedback_set for r, _ in found.ranked}
    with pytest.raises(NumericalError, match=r"^no feasible realisation: 1 x H2 norm not certified$"):
        search_realisations(G, K, form="filter", forced_S=lost[0])


@pytest.mark.parametrize("Qn, Rn, message", [
    (-1.0, 1e7, "Qn must be positive semidefinite"),
    (np.inf, 1e7, "Qn must be finite"),
    (1.0, 0.0, "Rn must be positive definite"),
    (1.0, np.nan, "Rn must be finite"),
    # the free-pole basis T_perp is arbitrary, so only a multiple of the
    # identity means the same in every basis; eye(2) is refused as well
    pytest.param(np.eye(2), 1e7, r"Qn must be a scalar, got shape \(2, 2\): the free-pole "
                 "basis T_perp is an arbitrary", id="Qn eye(2)"),
    pytest.param(np.diag([1.0, 8.0]), 1e7, r"Qn must be a scalar, got shape \(2, 2\)",
                 id="Qn diag(1, 8)"),
    pytest.param(1.0, 1e7 * np.eye(2), r"Rn must be a scalar, got shape \(2, 2\)",
                 id="Rn 1e7 eye(2)"),
    pytest.param(1.0, np.array([[1e7]]), r"Rn must be a scalar, got shape \(1, 1\)",
                 id="Rn [[1e7]]"),
])
@pytest.mark.parametrize("case", ["pendulum", "satellite"])
def test_bad_noise_covariances_are_refused_before_any_split_is_solved(monkeypatch, case, Qn, Rn,
                                                                      message):
    # the pendulum has two free observer poles (n_K < n); the satellite
    # has none (n_K = n), and its covariances are checked all the same
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    if case == "pendulum":
        (G, K), form = loop_shift(pendulum_plant(), pendulum_controller()), "predictor"
        assert K.n < G.n
    else:
        G, K, form = satellite_plant(), add_dipole(satellite_controller(), W=50.0), "filter"
        assert K.n == G.n
    with pytest.raises(ValueError, match=message):
        search_realisations(G, K, form=form, Qn=Qn, Rn=Rn)


# -- the stacked kernel against one-member calls ----------------------------------

def _per_split_doubling(A, C, Qn, Rn):
    """Kalman predictor gain by one doubling iteration per pair, as the
    search ran it before the stacked kernel."""
    n = A.shape[0]
    Ak, Gk, Hk = A.T.copy(), C.T @ np.linalg.solve(Rn, C), Qn.copy()
    for _ in range(200):
        W = np.linalg.solve(np.eye(n) + Gk @ Hk, np.hstack([Ak, Gk]))
        WA, WG = W[:, :n], W[:, n:]
        G_next = Gk + Ak @ WG @ Ak.T
        H_next = Hk + Ak.T @ Hk @ WA
        H_next = 0.5 * (H_next + H_next.T)
        step = np.linalg.norm(H_next - Hk)
        Ak, Gk, Hk = Ak @ WA, 0.5 * (G_next + G_next.T), H_next
        if step <= 1e-10 * max(1.0, np.linalg.norm(Hk)):
            break
    S = C @ Hk @ C.T + Rn
    return np.linalg.solve(S.T, (A @ Hk @ C.T).T).T


def test_stacked_dare_freezes_each_member_and_isolates_a_breakdown():
    rng = np.random.default_rng(28)
    A = [0.9 * rng.standard_normal((4, 4)) for _ in range(5)]
    A[2] = 0.05 * A[2]  # converges in fewer doublings than its neighbours
    A.insert(3, 2.0 * np.eye(4))  # undetectable and unstable: the doubling overflows
    A = np.stack(A)
    C = rng.standard_normal((len(A), 2, 4))
    C[3] = 0.0
    weights = linalg._noise_weights(1.0, 1e2)
    L, errors = linalg._kalman_gains(A, C, *weights)
    assert isinstance(errors[3], NumericalError) and "broke down" in str(errors[3])
    _, (alone,) = linalg._kalman_gains(A[3:4], C[3:4], *weights)
    assert isinstance(alone, NumericalError) and "broke down" in str(alone)
    for i in (0, 1, 2, 4, 5):
        assert errors[i] is None
        (one,), (alone,) = linalg._kalman_gains(A[i : i + 1], C[i : i + 1], *weights)
        assert alone is None
        assert_allclose(L[i], one, rtol=0, atol=1e-12 * np.abs(one).max())
        ref = _per_split_doubling(A[i], C[i], np.eye(4), 1e2 * np.eye(2))
        assert_allclose(L[i], ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_stacked_scores_match_one_member_calls():
    # predictor form with C = I, so K_f = A - Ae sets each member's error
    # dynamics Ae
    rng = np.random.default_rng(29)
    A = rng.standard_normal((2, 2))
    G = DtStateSpace(A, np.ones((2, 1)), np.eye(2), np.zeros((2, 1)), 1.0,
                     disturbance_states=(1,))
    ordinary = [rng.uniform(0.2, 0.8) * np.linalg.qr(rng.standard_normal((2, 2)))[0]
                for _ in range(4)]
    defective = np.array([[0.5, 1.0], [0.0, 0.5]])
    unstable = np.array([[1.2, 0.3], [0.0, 0.4]])
    Ae = np.stack(ordinary[:2] + [defective, unstable] + ordinary[2:])
    K_f = A - Ae
    stacked = _h2_scores(G, _form("predictor").observer(G, K_f))

    for i, gain in enumerate(K_f):
        r = ObserverRealisation(form="predictor", T=np.ones((1, 2)), K_c=np.zeros((1, 2)),
                                K_f=gain, choice=None, riccati_residual=0.0)
        s, one = RealisationScore(*map(float, stacked[i])), _score_one(r, G)
        assert s.stable == one.stable == (i != 3)
        if i == 3:
            assert s.h2_noise == s.h2_dist == s.product == np.inf
            continue
        assert_allclose([s.h2_noise, s.h2_dist], [one.h2_noise, one.h2_dist], rtol=1e-12)
        noise = _form("predictor").noise_system(r, G)
        assert_allclose(s.h2_noise, _lyapunov_h2(noise), rtol=1e-10)
        assert_allclose(s.h2_dist, _lyapunov_h2(_dist_system(G, noise.A)), rtol=1e-10)
    assert_allclose(
        stacked[2, 0],
        _lyapunov_h2(DtStateSpace(defective, K_f[2], np.eye(2), np.zeros((2, 2)), 1.0)),
        rtol=1e-10)


def _per_split_basis(eig, indices):
    """Real basis of the selected invariant subspace, one split at a time,
    as the search built it before the stacked kernel."""
    cols, seen = [], set()
    for i in indices:
        if i in seen:
            continue
        j = eig.pair_index[i]
        if j is None:
            cols.append(eig.vectors[:, i].real)
            seen.add(i)
        else:
            u = eig.vectors[:, i if eig.values[i].imag > 0 else j]
            cols += [u.real, u.imag]
            seen.update((i, j))
    return np.column_stack(cols)


def _per_split_modal_h2(Ae, maps):
    """H2 norms from one diagonalisation of Ae, per split."""
    lam, V = np.linalg.eig(Ae)
    if np.max(np.abs(lam)) >= 1.0:
        return [np.inf] * len(maps)
    V_inv = np.linalg.inv(V)
    denom = 1.0 - lam[:, np.newaxis] * lam.conj()[np.newaxis, :]
    out = []
    for B, C, D in maps:
        Bt = V_inv @ B
        P = (V @ ((Bt @ Bt.conj().T) / denom) @ V.conj().T).real
        P = 0.5 * (P + P.T)
        out.append(np.sqrt(max(np.trace(C @ P @ C.T) + np.trace(D @ D.T), 0.0)))
    return out


def _per_split_search(G, K, forced_S, Qn=1.0, Rn=1e7):
    """The predictor-form search on one split at a time: ranked
    (S, h2_noise, h2_dist, product) rows and (S, reason) rejections."""
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    n, n_K = G.n, K.n
    bound = 1e-8 * np.linalg.norm(A_cl)
    rows, rejected = [], []
    for c in _split_choices(eig, n, n_K, forced_S):
        U = _per_split_basis(eig, c.state_feedback_set)
        U1, U2 = U[:n], U[n:]
        cond = np.linalg.cond(U1)
        if not np.isfinite(cond) or cond > 1e10:
            rejected.append((c.state_feedback_set, "U1 ill conditioned"))
            continue
        T = np.linalg.solve(U1.T, U2.T).T
        resid = np.linalg.norm(np.hstack([-T, np.eye(n_K)]) @ A_cl @ np.vstack([np.eye(n), T]))
        if resid > bound:
            rejected.append((c.state_feedback_set, f"residual {resid:.2e} above {bound:.2e}"))
            continue
        Tp = _oracle_null_basis(T)
        X = _per_split_doubling(Tp.T @ G.A @ Tp, K.B @ G.C @ Tp,
                                Qn * np.eye(n - n_K), Rn * np.eye(n_K))
        K_f = (np.linalg.pinv(T) + Tp @ X) @ K.B
        Ae = G.A - K_f @ G.C
        h2n, h2d = _per_split_modal_h2(
            Ae, [(K_f, G.C, np.zeros((G.n_y, G.n_y))), (np.eye(n), np.eye(n), np.zeros((n, n)))])
        rows.append((c.state_feedback_set, h2n, h2d, h2n * h2d))
    rows.sort(key=lambda row: (row[3], row[0]))
    return rows, rejected


def _smoke_forced_S(G, K, pairs=4):
    """The surrogate's uncontrollable closed-loop modes plus its ``pairs``
    smallest-modulus conjugate pairs: 170 splits with four pairs, and the
    benchmark's 4754 with two."""
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
    forced = set(unobservable_modes(A_cl.T, B_cl.T, eig.values))
    smallest = sorted((abs(eig.values[i]), i) for i in range(eig.n)
                      if eig.pair_index[i] is not None and eig.values[i].imag > 0)
    for _, i in smallest[:pairs]:  # the smallest-modulus pairs stay in S
        forced.update((i, eig.pair_index[i]))
    return sorted(forced)


def test_smoke_surrogate_search_matches_the_per_split_reference():
    G, K = scale_surrogate(0)
    assert not G.disturbance_states and not np.any(K.D)
    forced = _smoke_forced_S(G, K)
    out = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    rows, rejected = _per_split_search(G, K, forced)
    assert len(out.ranked) + len(out.rejected) == 170
    assert len(rows) == len(out.ranked) >= 10
    assert [(c.state_feedback_set, reason) for c, reason in out.rejected] == rejected
    assert [r.choice.state_feedback_set for r, _ in out.ranked] == [row[0] for row in rows]
    for (_, s), row in zip(out.ranked, rows):
        assert_allclose([s.h2_noise, s.h2_dist, s.product], row[1:], rtol=1e-9)


# -- modal scores and their fallback to the doubling ---------------------------

def _modal_certifies_nothing(monkeypatch):
    """Send every member of every search to the doubling."""
    def nothing(self, O, *args):
        return np.full((len(O), 2), np.nan), np.zeros(len(O), dtype=bool)

    monkeypatch.setattr(realisation._ModalBasis, "scores", nothing)


def _spy_doubling(monkeypatch):
    """The error dynamics of the members each search scores by the
    doubling, one stack per call."""
    calls = []
    doubling = realisation._h2_stack

    def spy(A, maps):
        calls.append(A.copy())
        return doubling(A, maps)

    monkeypatch.setattr(realisation, "_h2_stack", spy)
    return calls


def _maps(f, G, K_f):
    """(Ae, [noise map, disturbance map]) of one realisation, as the search scores it."""
    Ae, B, C, D = _noise_matrices(G, f.observer(G, K_f))
    E, D_dist = _dist_injection(G)
    return Ae, [(B, C, D), (E, np.eye(G.n), D_dist)]


@pytest.mark.parametrize("case, fallbacks", [("satellite", 0), ("pendulum", 0), ("surrogate", 7)])
def test_certified_modal_scores_match_the_doubling_and_an_independent_oracle(monkeypatch, case,
                                                                            fallbacks):
    # the surrogate is the benchmark's 4754-split instance: 1703 ranked, of
    # which 7 are not certified by the modal bound and fall back
    if case == "surrogate":
        G, K = scale_surrogate(0)
        form, rank_by, forced = "predictor", "product", _smoke_forced_S(G, K, pairs=2)
    else:
        study = CASE_STUDIES[case]
        _, _, G, K = study.loop()
        form, rank_by, forced = study.form, study.rank_by, None
    f = _form(form)
    doubled = _spy_doubling(monkeypatch)
    out = search_realisations(G, K, form=form, rank_by=rank_by, forced_S=forced)
    fell_back = {A.tobytes() for stack in doubled for A in stack}
    assert len(fell_back) == fallbacks
    _modal_certifies_nothing(monkeypatch)
    ref = search_realisations(G, K, form=form, rank_by=rank_by, forced_S=forced)
    assert len(ref.ranked) >= 3 and sum(map(len, doubled)) == fallbacks + len(ref.ranked)

    assert [(c.state_feedback_set, reason) for c, reason in out.rejected] == \
           [(c.state_feedback_set, reason) for c, reason in ref.rejected]
    assert [r.choice.state_feedback_set for r, _ in out.ranked] == \
           [r.choice.state_feedback_set for r, _ in ref.ranked]
    rows = []  # (search, doubling, oracle) per certified member
    for (r, s), (_, s_ref) in zip(out.ranked, ref.ranked):
        Ae, maps = _maps(f, G, r.K_f)
        if Ae.tobytes() in fell_back:
            assert (s.h2_noise, s.h2_dist) == (s_ref.h2_noise, s_ref.h2_dist)
        else:
            rows.append([[s.h2_noise, s.h2_dist], [s_ref.h2_noise, s_ref.h2_dist],
                         _per_split_modal_h2(Ae, maps)])
    rows = np.array(rows)
    assert len(rows) == len(out.ranked) - fallbacks
    assert_allclose(rows[:, 0], rows[:, 1], rtol=1e-10)
    assert_allclose(rows[:, 0], rows[:, 2], rtol=1e-9)


def test_a_free_pole_near_an_observer_eigenvalue_falls_back_to_the_doubling(monkeypatch):
    # a split of the full surrogate search whose free pole is 2.5e-6 from an
    # O eigenvalue: What, and so cond_F(X), is large, and the modal bound
    # leaves it to the doubling (its modal norms are off by 9.7e-10)
    G, K = scale_surrogate(0)
    S = (4, 5, 6, 8, 11, 12, 13, 14, 15, 16, 19, 21, 25, 26, 27, 29, 32, 33, 34, 35, 37)
    doubled = _spy_doubling(monkeypatch)
    free_poles = _spy_free_poles(monkeypatch)
    ((r, s),) = search_realisations(G, K, form="predictor", forced_S=S).ranked
    assert [len(A) for A in doubled] == [1]
    f = _form("predictor")
    Ae, maps = _maps(f, G, r.K_f)
    Tp, _ = free_poles(r)
    free = np.linalg.eigvals(Tp.T @ Ae @ Tp)
    observer = eig_paired(closed_loop_matrix(G, K)).values[list(r.choice.observer_set)]
    assert np.abs(observer[:, np.newaxis] - free).min() < 2e-4
    assert (s.h2_noise, s.h2_dist) == tuple(linalg._h2_stack(Ae[np.newaxis], maps)[0])


def test_a_spectrum_with_a_fused_group_is_scored_by_the_doubling(monkeypatch):
    # criterion 13's two copies of the satellite loop: every eigenvalue is
    # double, so the search has no eigenvector per eigenvalue
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    G2 = DtStateSpace(*(scipy.linalg.block_diag(M, M) for M in (G.A, G.B, G.C)),
                      np.zeros((2, 4)), G.Ts)
    K2 = DtStateSpace(*(scipy.linalg.block_diag(M, M) for M in (K.A, K.B, K.C, K.D)), K.Ts)
    assert realisation._Search(G2, K2, "filter", 1.0, 1e7).modal is None
    doubled = _spy_doubling(monkeypatch)
    out = search_realisations(G2, K2, form="filter")
    assert len(out.ranked) == sum(map(len, doubled)) == 4 and not out.rejected
    for r, s in out.ranked:
        Ae, maps = _maps(_form("filter"), G2, r.K_f)
        assert (s.h2_noise, s.h2_dist) == tuple(linalg._h2_stack(Ae[np.newaxis], maps)[0])


def test_an_unstable_free_pole_scores_inf_by_the_doubling(monkeypatch):
    # free-pole gains X of ones put a free pole of two pendulum splits
    # outside the unit circle: no modal score, the doubling's inf
    (G, K), f = loop_shift(pendulum_plant(), pendulum_controller()), _form("predictor")

    def ones(self, T_perp):
        k, _, free = T_perp.shape
        return np.ones((k, free, self.K.n)), [None] * k

    monkeypatch.setattr(realisation._Search, "free_pole_gains", ones)
    doubled = _spy_doubling(monkeypatch)
    free_poles = _spy_free_poles(monkeypatch)
    out = search_realisations(G, K, form="predictor", rank_by="noise")
    assert [len(A) for A in doubled] == [2] and len(out.ranked) == 3
    for r, s in out.ranked:
        Ae, maps = _maps(f, G, r.K_f)
        Tp, _ = free_poles(r)
        unstable = np.abs(np.linalg.eigvals(Tp.T @ Ae @ Tp)).max() > 1.0
        assert s.stable != unstable
        if unstable:
            assert s.h2_noise == s.h2_dist == np.inf
        else:
            assert_allclose([s.h2_noise, s.h2_dist],
                            linalg._h2_stack(Ae[np.newaxis], maps)[0], rtol=1e-10)


@pytest.mark.parametrize("case", ["satellite", "pendulum", "surrogate"])
def test_a_one_split_search_reproduces_that_splits_row_of_the_full_search(case):
    if case == "surrogate":
        G, K = scale_surrogate(0)
        form, rank_by, forced = "predictor", "product", _smoke_forced_S(G, K)
    else:
        study = CASE_STUDIES[case]
        _, _, G, K = study.loop()
        form, rank_by, forced = study.form, study.rank_by, None
    full = search_realisations(G, K, form=form, forced_S=forced, rank_by=rank_by)
    assert len(full.ranked) >= 3
    for r, score in full.ranked:
        ((one, one_score),) = search_realisations(
            G, K, form=form, forced_S=r.choice.state_feedback_set, rank_by=rank_by).ranked
        assert (one.form, one.choice, one.riccati_residual) == (r.form, r.choice,
                                                                r.riccati_residual)
        for name in ("T", "K_c", "K_f"):
            assert np.array_equal(getattr(one, name), getattr(r, name)), name
        assert one_score == score


def test_the_search_is_the_same_in_every_free_pole_basis(monkeypatch):
    # K_f depends on T_perp only through T_perp X, which a scalar Qn makes
    # the same in every orthonormal basis of null(T): turn every T_perp by
    # one fixed orthogonal matrix, and the search keeps its rejections,
    # its order, its scores and its gains K_f
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    free_poles = _spy_free_poles(monkeypatch)
    plain = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    plain_poles = [free_poles(r) for r, _ in plain.ranked]
    monkeypatch.undo()
    W = np.linalg.qr(np.random.default_rng(27).standard_normal((G.n - K.n,) * 2))[0]
    t_qr = realisation._t_qr

    def turned(T):
        deficient, T_perp, T_pinv = t_qr(T)
        return deficient, T_perp @ W, T_pinv

    monkeypatch.setattr(realisation, "_t_qr", turned)
    free_poles = _spy_free_poles(monkeypatch)
    out = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    assert len(plain.ranked) >= 10 and plain.rejected
    assert [(c.state_feedback_set, reason) for c, reason in out.rejected] == \
           [(c.state_feedback_set, reason) for c, reason in plain.rejected]
    assert [r.choice.state_feedback_set for r, _ in out.ranked] == \
           [r.choice.state_feedback_set for r, _ in plain.ranked]
    for (r1, s1), (r2, s2), (basis, X) in zip(plain.ranked, out.ranked, plain_poles):
        turned_basis, turned_X = free_poles(r2)
        assert_allclose(turned_basis, basis @ W, rtol=0, atol=1e-15)
        # only the product T_perp X reaches K_f
        P = basis @ X
        assert_allclose(turned_basis @ turned_X, P, rtol=0, atol=1e-12 * np.abs(P).max())
        assert_allclose(r2.K_f, r1.K_f, rtol=0, atol=1e-12 * np.abs(r1.K_f).max())
        assert_allclose([s2.h2_noise, s2.h2_dist, s2.product],
                        [s1.h2_noise, s1.h2_dist, s1.product], rtol=1e-12)


def test_the_search_takes_no_singular_vectors_of_T(monkeypatch):
    # T_perp and T^+ come from one QR of T' per chunk; the singular values
    # of T are taken only for members the rank bound leaves uncertified,
    # and on the smoke search it certifies every member
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    compute_uv = []
    svd_calls = _spy_svd(monkeypatch, compute_uv)
    out = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    monkeypatch.undo()
    assert len(out.ranked) >= 10
    assert compute_uv and not any(compute_uv)  # singular values only, everywhere
    assert not [a for a in svd_calls if a.shape[-2:] == (K.n, G.n)]


def test_a_searched_realisation_is_read_only():
    # a controller's QP is built once from K_c, and each run builds its
    # observer and prefilter from the gains, so an edited gain would put
    # them out of step
    (r, _), *_ = search_realisations(satellite_plant(), add_dipole(satellite_controller(), W=50.0),
                                     form="filter").ranked
    for a in (r.T, r.K_c, r.K_f):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        r.K_f *= 1.05
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.K_f = 1.05 * r.K_f


def test_a_ranked_row_holds_no_array_but_T_and_the_gains():
    # T_perp and X stay inside the search: a ranked row keeps only the
    # arrays its readers use, each read-only
    G, K = scale_surrogate(0)
    out = search_realisations(G, K, form="predictor", rank_by="product",
                              forced_S=_smoke_forced_S(G, K))
    assert len(out.ranked) >= 10
    shapes = {"T": (K.n, G.n), "K_c": (G.n_u, G.n), "K_f": (G.n, G.n_y)}
    for r, _ in out.ranked:
        arrays = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
                  if isinstance(getattr(r, f.name), np.ndarray)}
        assert {name: a.shape for name, a in arrays.items()} == shapes
        assert not any(a.flags.writeable for a in arrays.values())


# -- structure check ---------------------------------------------------------

def test_check_decoupling():
    M = np.array([[1.0, 0.01], [0.02, 2.0]])
    assert check_decoupling(M, [((0,), (0,)), ((1,), (1,))]) == pytest.approx(0.01)
    assert check_decoupling(M, [((0, 1), (0, 1))]) == 0.0
    block = np.kron(np.eye(2), np.ones((2, 2)))
    pairs = [((0, 1), (0, 1)), ((2, 3), (2, 3))]
    assert check_decoupling(block, pairs) == 0.0


def test_importing_the_search_loads_no_online_machinery():
    # the form table steps the observer itself, so the search module needs
    # neither the MPC nor the QP nor the runtime; and a search that needs no
    # discretisation, and the stacked H2 norm and Lyapunov solver, run on
    # numpy alone, without scipy
    src = os.path.dirname(os.path.dirname(realisation.__file__))
    forced = _smoke_forced_S(*scale_surrogate(0))
    code = ("import sys, lti2mpc.realisation, lti2mpc.models; "
            "import numpy as np; from lti2mpc.linalg import _h2_stack, _stein_stack; "
            "G, K = lti2mpc.models.scale_surrogate(0); "
            "out = lti2mpc.realisation.search_realisations(G, K, form='predictor', "
            "rank_by='product', "
            f"forced_S={forced!r}); "
            "A = [[0.5, 0.2], [0.0, -0.3]]; "
            "h2 = float(_h2_stack(np.array([A]), [(np.ones((1, 2, 1)), np.eye(1, 2)[None], "
            "np.zeros((1, 1, 1)))])[0, 0]); "
            "P, status = _stein_stack(np.array([A]), np.eye(2)[None, None]); "
            "assert status.tolist() == [1]; P = P[0, 0]; "
            "print(sorted(m for m in sys.modules if m.startswith(('lti2mpc', 'scipy')))); "
            "print(len(out.ranked)); print(repr(h2)); print(P.tolist())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    modules, n_ranked, h2, P = proc.stdout.splitlines()
    loaded = set(ast.literal_eval(modules))
    assert "lti2mpc.realisation" in loaded
    assert not loaded & {"lti2mpc.runtime", "lti2mpc.mpc", "lti2mpc.qp"}
    assert int(n_ranked) >= 10
    A = np.array([[0.5, 0.2], [0.0, -0.3]])
    P_ref = scipy.linalg.solve_discrete_lyapunov(A, np.eye(2))
    assert_allclose(ast.literal_eval(P), P_ref, rtol=1e-12)
    B, C = np.ones((2, 1)), np.eye(1, 2)
    h2_ref = math.sqrt((C @ scipy.linalg.solve_discrete_lyapunov(A, B @ B.T) @ C.T).item())
    assert_allclose(float(h2), h2_ref, rtol=1e-12)
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


# -- threaded search -----------------------------------------------------------

def _search_outputs(out):
    """Every number and message of a search result, arrays as raw bytes."""
    ranked = [(r.choice.state_feedback_set, r.riccati_residual, s.h2_noise, s.h2_dist,
               s.product, *((a.shape, a.tobytes()) for a in (r.T, r.K_c, r.K_f)))
              for r, s in out.ranked]
    return ranked, [(c.state_feedback_set, reason) for c, reason in out.rejected]


def test_the_search_is_bitwise_the_same_for_every_chunk_size_and_workers(monkeypatch):
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    outputs = []
    for chunk in (16, 64, 128):
        monkeypatch.setattr(realisation, "_CHUNK", chunk)
        for workers in (None, 2, np.int64(2)):  # a numpy integer is an integer
            outputs.append(_search_outputs(search_realisations(
                G, K, form="predictor", rank_by="product", forced_S=forced, workers=workers)))
    ranked, rejected = outputs[0]
    assert len(ranked) + len(rejected) == 170 and ranked and rejected
    for out in outputs[1:]:
        assert out == outputs[0]


def test_each_split_object_is_built_once(monkeypatch):
    # every split's RealisationChoice once, every ranked row's
    # ObserverRealisation once, and the result holds exactly those objects
    built = {RealisationChoice: [], ObserverRealisation: []}
    for cls, seen in built.items():
        def spy(self, *args, __init__=cls.__init__, seen=seen, **kwargs):
            __init__(self, *args, **kwargs)
            seen.append(self)

        monkeypatch.setattr(cls, "__init__", spy)
    G, K = scale_surrogate(0)
    out = search_realisations(G, K, form="predictor", rank_by="product",
                              forced_S=_smoke_forced_S(G, K))
    choices = [r.choice for r, _ in out.ranked] + [c for c, _ in out.rejected]
    assert len(choices) == 170 and out.ranked and out.rejected
    assert sorted(map(id, built[RealisationChoice])) == sorted(map(id, choices))
    assert sorted(map(id, built[ObserverRealisation])) == sorted(id(r) for r, _ in out.ranked)


def test_a_split_count_past_the_bound_is_refused_before_any_row_is_built(monkeypatch):
    # forced_S=() lifts the forcing of the surrogate's uncontrollable modes:
    # 49,314,072 splits, whose int32 S and O rows alone would take 7.5 GB
    G, K = scale_surrogate(0)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=r"^49314072 splits of the closed-loop spectrum, "
                           r"more than the 500000 .* would need 7495738944 bytes$"):
            search_realisations(G, K, form="predictor", forced_S=())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"{peak / 1e6:.2f} MB"
    # the count is exact: a bound of 170 admits the smoke set's 170 splits
    search = realisation._Search(G, K, "predictor", 1.0, 1e7)
    forced = _smoke_forced_S(G, K)
    monkeypatch.setattr(realisation, "_MAX_SPLITS", 170)
    assert len(realisation._splits(search.eig, G.n, K.n, forced)[0]) == 170
    monkeypatch.setattr(realisation, "_MAX_SPLITS", 169)
    with pytest.raises(NumericalError, match="^170 splits"):
        realisation._splits(search.eig, G.n, K.n, forced)


def test_one_128_split_chunk_stays_within_its_traced_memory_peak():
    # 2.95 MB once _solve_T_stack drops the subspace bases and X early and
    # _riccati_residuals never holds [-T I] and [I; T] together (4.43 MB before)
    G, K = scale_surrogate(0)
    search = realisation._Search(G, K, "predictor", 1.0, 1e7)
    S, O = realisation._splits(search.eig, G.n, K.n, _smoke_forced_S(G, K))
    chunk = S[:128], O[:128]
    search.evaluate(*chunk)  # lazy imports
    tracemalloc.start()
    try:
        reasons, kept = search.evaluate(*chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reasons) == 128 and not all(reasons) and kept is not None
    assert peak <= 1.25 * 2.95e6, f"{peak / 1e6:.2f} MB"


def test_the_densest_benchmark_chunk_stays_within_its_traced_memory_peak():
    # chunk 33 of the benchmark's 4754 splits builds and scores 108 of its
    # 128: 6.92 MB, with the modal scores dropping their stacks as soon as
    # they are used (8.98 MB when they do not; 7.43 MB for the doubling alone)
    G, K = scale_surrogate(0)
    search = realisation._Search(G, K, "predictor", 1.0, 1e7)
    S, O = realisation._splits(search.eig, G.n, K.n, _smoke_forced_S(G, K, pairs=2))
    chunk = S[33 * 128 : 34 * 128], O[33 * 128 : 34 * 128]
    search.evaluate(*chunk)  # lazy imports
    tracemalloc.start()
    try:
        reasons, kept = search.evaluate(*chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(not reason for reason in reasons) == 108 == len(kept[0])
    assert peak <= 1.1 * 6.92e6, f"{peak / 1e6:.2f} MB"


def test_threaded_search_equals_the_serial_search(monkeypatch):
    monkeypatch.setattr(realisation, "_CHUNK", 32)  # at least three pool chunks
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    serial = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    before = threading.active_count()
    threaded = search_realisations(G, K, form="predictor", rank_by="product",
                                   forced_S=forced, workers=2)
    assert threading.active_count() == before
    assert len(serial.ranked) + len(serial.rejected) > 2 * realisation._CHUNK
    assert serial.rejected and serial.ranked
    assert [(c.state_feedback_set, reason) for c, reason in threaded.rejected] == \
           [(c.state_feedback_set, reason) for c, reason in serial.rejected]
    assert [r.choice.state_feedback_set for r, _ in threaded.ranked] == \
           [r.choice.state_feedback_set for r, _ in serial.ranked]
    for (r1, s1), (r2, s2) in zip(serial.ranked, threaded.ranked):
        assert (s1.h2_noise, s1.h2_dist, s1.product) == (s2.h2_noise, s2.h2_dist, s2.product)
        assert r1.riccati_residual == r2.riccati_residual
        for name in ("T", "K_c", "K_f"):
            a, b = getattr(r1, name), getattr(r2, name)
            assert np.array_equal(a, b), name
            # a row of the read-only copy merged on this thread, not a view
            # of a chunk's stacks
            assert b.base is not None and b.base.base is None and not b.base.flags.writeable


@pytest.mark.parametrize("workers", [0, -1, True, 1.5, np.int64(0)])
def test_a_bad_workers_value_is_refused_before_any_split_is_solved(monkeypatch, workers):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    with pytest.raises(ValueError, match="workers must be None or an integer >= 1"):
        search_realisations(G, K, form="filter", workers=workers)


def test_a_failing_chunk_is_raised_once_every_pool_thread_is_joined(monkeypatch):
    monkeypatch.setattr(realisation, "_CHUNK", 32)  # at least three pool chunks
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    S, _ = realisation._splits(eig_paired(closed_loop_matrix(G, K)), G.n, K.n, forced)
    second, third = S[realisation._CHUNK], S[2 * realisation._CHUNK]
    evaluate = realisation._Search.evaluate

    def failing(self, S, O):
        if np.array_equal(S[0], second):
            raise RuntimeError("chunk 2 failed")
        if np.array_equal(S[0], third):
            raise KeyError("chunk 3 failed")
        return evaluate(self, S, O)

    monkeypatch.setattr(realisation._Search, "evaluate", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 2 failed"):
        search_realisations(G, K, form="predictor", forced_S=forced, workers=2)
    assert threading.active_count() == before


def test_the_earliest_failed_chunk_is_raised_once_a_later_busy_chunk_is_done():
    # chunk 1 fails first, then chunk 0 fails while chunk 2 is still being
    # evaluated: chunk 0's error is raised, and only after chunk 2 is done
    failed_1, started_2, finished = threading.Event(), threading.Event(), []

    def evaluate(chunk):
        (i,) = chunk
        if i == 0:
            failed_1.wait(5.0)
            started_2.wait(5.0)
            raise RuntimeError("chunk 0 failed")
        if i == 1:
            failed_1.set()
            raise KeyError("chunk 1 failed")
        if i == 2:
            started_2.set()
            time.sleep(0.3)
        finished.append(i)
        return [i]

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        realisation._run_chunks(evaluate, [[i] for i in range(6)], 2, lambda chunk, out: None)
    assert 2 in finished
    assert threading.active_count() == before


def test_one_worker_evaluates_on_the_calling_thread():
    threads, merged = set(), []
    realisation._run_chunks(lambda chunk: threads.add(threading.current_thread()) or chunk,
                            [[i] for i in range(3)], 1,
                            lambda chunk, out: merged.append(out[0]))
    assert threads == {threading.current_thread()}
    assert merged == [0, 1, 2]


def test_many_threads_evaluate_each_chunk_once_and_merge_in_order():
    evaluated, merged = [], []

    def evaluate(chunk):
        evaluated.append(chunk[0])
        return [sum(range(200)) + chunk[0]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = threading.active_count()
        realisation._run_chunks(evaluate, [[i] for i in range(300)], 8,
                                lambda chunk, out: merged.append((chunk[0], out[0])))
        assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    assert sorted(evaluated) == list(range(300))
    assert merged == [(i, sum(range(200)) + i) for i in range(300)]


def _conditioned(rng, n, singular_values):
    """An n x n matrix Q1 diag(s) Q2 with random orthogonal Q1, Q2."""
    Q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q1 @ np.diag(singular_values) @ Q2


def _cond_bound(U1, U2, sigma_min):
    """The certificate _solve_T_stack applies, member by member: NaN where
    the plain LU solve fails."""
    try:
        T = np.linalg.solve(U1.T, U2.T).T
    except np.linalg.LinAlgError:
        return np.nan
    return np.linalg.norm(U1) * np.sqrt(1.0 + np.linalg.norm(T) ** 2) / sigma_min


def _svd_rule(A_cl, U1, U2):
    """One split judged as the search judged it before any certificate:
    (reason, T, residual) from the SVD of U1 and a plain solve."""
    sv = np.linalg.svd(U1, compute_uv=False) if np.isfinite(U1).all() else [np.nan]
    if not sv[-1] > 0 or not sv[0] / sv[-1] <= 1e10:
        return "U1 ill conditioned", None, np.inf
    T = np.linalg.solve(U1.T, U2.T).T
    n_K, n = T.shape
    r = np.linalg.norm(np.hstack([-T, np.eye(n_K)]) @ A_cl @ np.vstack([np.eye(n), T]))
    bound = 1e-8 * np.linalg.norm(A_cl)
    return ("" if r <= bound else f"residual {r:.2e} above {bound:.2e}"), T, r


def _spy_svd(monkeypatch, compute_uv=None):
    """The stacks np.linalg.svd is called on, recorded as they are passed;
    each call's compute_uv is appended to the list ``compute_uv`` if given."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kw):
        calls.append(np.array(a))
        if compute_uv is not None:  # svd(a, full_matrices, compute_uv, ...)
            compute_uv.append(args[1] if len(args) > 1 else kw.get("compute_uv", True))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _assert_matches_the_svd_rule(A_cl, U1, U2, T, resid, reasons):
    for i in range(len(U1)):
        reason, expect, r = _svd_rule(A_cl, U1[i], U2[i])
        assert reasons[i] == reason
        if expect is None:
            assert np.isnan(T[i]).all() and resid[i] == np.inf
        else:
            assert np.array_equal(T[i], expect)
            assert_allclose(resid[i], r, rtol=1e-12)


def test_solve_T_stack_conditioning_matches_the_svd_rule(monkeypatch):
    rng = np.random.default_rng(5)
    n, n_K = 4, 2
    U1 = np.stack([
        _conditioned(rng, n, np.logspace(0, -3, n)),              # certified by the bound
        _conditioned(rng, n, [1.0, 1.0, 1 / 0.3e10, 1 / 0.3e10]),  # cond 0.3e10
        _conditioned(rng, n, np.geomspace(1.0, 1 / 0.9e10, n)),    # cond 0.9e10
        _conditioned(rng, n, np.geomspace(1.0, 1 / 1.1e10, n)),    # cond 1.1e10
        _conditioned(rng, n, np.ones(n)),
    ])
    U1[4][:, -1] = 0.0  # exactly singular
    U2 = rng.standard_normal((len(U1), n_K, n))
    U = np.concatenate([U1, U2], axis=1)
    A_cl = rng.standard_normal((n + n_K, n + n_K))
    sigma_min = min(np.linalg.svd(u, compute_uv=False)[-1] for u in U)
    uncertified = [i for i in range(len(U1))
                   if not _cond_bound(U1[i], U2[i], sigma_min) <= 0.5e10]

    svd_calls = _spy_svd(monkeypatch)
    T, resid, reasons = realisation._solve_T_stack(A_cl, U, sigma_min)
    assert uncertified[0] == 1 and uncertified[1:] == [2, 3, 4]  # cond 0.3e10 is uncertified too
    assert len(svd_calls) == 1 and np.array_equal(svd_calls[0], U1[uncertified])
    _assert_matches_the_svd_rule(A_cl, U1, U2, T, resid, reasons)
    assert [r == "U1 ill conditioned" for r in reasons] == [False, False, False, True, True]


def _orthonormal_split(rng, n, n_K, cond):
    """[U1; U2] with orthonormal columns, as an eigenbasis gives them, and
    cond_2(U1) = cond: U2 lifts the n_K smallest singular values of U1."""
    tail = np.geomspace(1.0, 1.0 / cond, n_K)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    Q3 = np.linalg.qr(rng.standard_normal((n_K, n_K)))[0]
    lift = np.hstack([np.zeros((n_K, n - n_K)), np.diag(np.sqrt(1.0 - tail ** 2))])
    U1 = Q1 @ np.diag(np.concatenate([np.ones(n - n_K), tail])) @ Q2
    return np.vstack([U1, Q3 @ lift @ Q2])


def test_the_conditioning_certificate_never_passes_what_the_svd_rule_would_not(monkeypatch):
    # random stacks around both thresholds, plus an exactly singular U1 and
    # one whose LU solve ends in NaN: a member the bound certifies (no SVD)
    # has cond_2 <= 0.5e10, and every verdict, reason, T and residual is
    # the SVD rule's
    rng = np.random.default_rng(31)
    n, n_K = 5, 3
    conds = np.concatenate([
        10.0 ** rng.uniform(0, 9.7, 40),
        0.5e10 * (1.0 + rng.uniform(-0.2, 0.2, 20)),
        1e10 * (1.0 + rng.uniform(-0.2, 0.2, 20)),
    ])
    U = np.stack([_orthonormal_split(rng, n, n_K, c) for c in [*conds, 10.0, 10.0]])
    U *= 10.0 ** rng.uniform(-0.3, 0.3, (len(U), 1, 1))
    U[-2, :n, 1] = U[-2, :n, 0]  # exactly singular U1
    # U1' upper triangular with pivots 1e-200: back substitution overflows
    # and then meets inf - inf, so the bound is NaN although U1 is finite
    overflowing = np.triu(rng.standard_normal((n, n)))
    np.fill_diagonal(overflowing, [1.0, 1.0] + [1e-200] * (n - 2))
    U[-1] = np.vstack([overflowing.T, rng.standard_normal((n_K, n))])
    U1, U2 = U[:, :n], U[:, n:]
    A_cl = rng.standard_normal((n + n_K, n + n_K))
    sigma_min = min(np.linalg.svd(u, compute_uv=False)[-1] for u in U)
    assert sigma_min > 0.1
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_cond_bound(U1[-1], U2[-1], sigma_min))

    svd_calls = _spy_svd(monkeypatch)
    T, resid, reasons = realisation._solve_T_stack(A_cl, U, sigma_min)
    (checked,) = svd_calls
    certified = [i for i in range(len(U1))
                 if not any(np.array_equal(U1[i], u) for u in checked)]
    assert 20 <= len(certified) <= 40
    for i in certified:
        sv = np.linalg.svd(U1[i], compute_uv=False)
        assert sv[0] / sv[-1] <= 0.5e10
    _assert_matches_the_svd_rule(A_cl, U1, U2, T, resid, reasons)
    ill = [r == "U1 ill conditioned" for r in reasons]
    assert ill[-2:] == [True, True] and 5 <= sum(ill[40:-2]) <= 35


def test_ranked_realisations_keep_the_plain_solve_for_T():
    # guards the feasible set: T of each ranked split is bitwise the plain
    # LU solve on its own columns, whatever the stacked kernel does
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    eig = eig_paired(closed_loop_matrix(G, K))
    out = search_realisations(G, K, form="predictor", rank_by="product", forced_S=forced)
    assert len(out.ranked) >= 10
    for r, _ in out.ranked:
        U = _per_split_basis(eig, r.choice.state_feedback_set)
        assert np.array_equal(r.T, np.linalg.solve(U[:G.n].T, U[G.n:].T).T)
