"""Observer realisation tests.

The scalar cases are worked by hand: for a one-state plant (a, b, c) and a
one-state strictly proper controller (f, g, h) the coupling equation
collapses to the quadratic  b h T^2 + (a - f) T - g = 0, one root per
admissible eigenvalue split.  The satellite and pendulum numbers are pinned
regression values computed from the worked models in lti2mpc.models.
"""

import ast
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from lti2mpc import linalg, realisation
from lti2mpc.linalg import (
    NumericalError,
    UnstableSystemError,
    eig_paired,
    h2_norm,
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
    _dist_injection,
    _form,
    _FreePoles,
    _h2_scores,
    _score,
    _t_svds,
    build_realisation,
    check_decoupling,
    closed_loop_matrix,
    design_free_poles,
    enumerate_choices,
    margin_loop,
    realisation_controller,
    score_realisation,
    search_realisations,
    solve_T,
    verify_equivalence,
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


# -- scalar oracles ----------------------------------------------------------

def test_scalar_predictor_both_splits():
    G = _scalar(0.5, 1.0, 1.0)
    K = _scalar(0.2, 0.3, 0.4)  # strictly proper
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    assert_allclose(eig.values, [-0.027492, 0.727492], atol=1e-6)

    choices = enumerate_choices(eig, 1, 1)
    assert [c.state_feedback_set for c in choices] == [(0,), (1,)]

    # roots of 0.4 T^2 + 0.3 T - 0.3 = 0
    expect = {(1,): (0.568729, 0.227492, 0.527492),
              (0,): (-1.318729, -0.527492, -0.227492)}
    for c in choices:
        res = solve_T(A_cl, c, eig)
        assert res.feasible
        T_ref, Kc_ref, Kf_ref = expect[c.state_feedback_set]
        assert_allclose(res.T, [[T_ref]], atol=1e-6)
        r = build_realisation("predictor", G, K, res.T, choice=c)
        assert_allclose(r.K_c, [[Kc_ref]], atol=1e-6)
        assert_allclose(r.K_f, [[Kf_ref]], atol=1e-6)
        # quadratic satisfied
        T = res.T[0, 0]
        assert abs(0.4 * T * T + 0.3 * T - 0.3) < 1e-12
        assert verify_equivalence(realisation_controller(r, G), K) < 1e-12
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
    for c in enumerate_choices(eig, 1, 1):
        res = solve_T(A_cl, c, eig)
        assert res.feasible
        T_ref, Kc_ref, Kf_ref = expect[c.state_feedback_set]
        assert_allclose(res.T, [[T_ref]], atol=1e-6)
        r = build_realisation("filter", G, K, res.T, choice=c)
        assert_allclose(r.K_c, [[Kc_ref]], atol=1e-6)
        assert_allclose(r.K_f, [[Kf_ref]], atol=1e-6)
        # K_c K_f recovers the controller feedthrough exactly
        assert_allclose(r.K_c @ r.K_f, K.D, atol=1e-10)
        assert verify_equivalence(realisation_controller(r, G), K) < 1e-12


def test_filter_form_rejects_controller_with_bias():
    G = _scalar(0.5, 1.0, 1.0)
    K = _scalar(0.2, 0.3, 0.4)  # K(0) = -0.6, no zero at the origin
    T = np.array([[1.0]])
    with pytest.raises(ValueError, match="K\\(0\\)"):
        build_realisation("filter", G, K, T)


# -- choice enumeration ------------------------------------------------------

def test_enumerate_keeps_conjugate_pairs_together():
    M = np.zeros((4, 4))
    M[:2, :2] = [[0.4, 0.3], [-0.3, 0.4]]
    M[2, 2], M[3, 3] = 0.2, -0.5
    eig = eig_paired(M)
    choices = enumerate_choices(eig, 2, 2)
    sets = {c.state_feedback_set for c in choices}
    # pair as one atom: either both pair members or both reals go to S
    assert len(choices) == 2
    pair_idx = tuple(sorted(i for i in range(4) if abs(eig.values[i].imag) > 1e-12))
    assert pair_idx in sets
    # a hand-made split that separates the pair has no real basis
    real_idx = tuple(i for i in range(4) if i not in pair_idx)
    half = RealisationChoice((pair_idx[0], real_idx[0]), (pair_idx[1], real_idx[1]))
    with pytest.raises(ValueError, match="conjugate pair .* split by the selection"):
        solve_T(M, half, eig)


def test_enumerate_fuses_repeated_eigenvalues():
    eig = eig_paired(np.diag([0.5, 0.5, 0.3, 0.2]))
    choices = enumerate_choices(eig, 2, 2)
    assert len(choices) == 2  # {0.5, 0.5} or {0.3, 0.2}


def test_enumerate_honours_forced_modes():
    M = np.zeros((4, 4))
    M[:2, :2] = [[0.4, 0.3], [-0.3, 0.4]]
    M[2, 2], M[3, 3] = 0.2, -0.5
    eig = eig_paired(M)
    forced = [i for i in range(4) if abs(eig.values[i] - 0.2) < 1e-9]
    choices = enumerate_choices(eig, 2, 2, forced_S=forced)
    assert len(choices) == 1
    assert forced[0] in choices[0].state_feedback_set


def _recursive_choices(eig, n, n_K, forced_S=()):
    """enumerate_choices as a recursion over the free atoms that copies the
    picked list at every level, as it was first written."""
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
        assert enumerate_choices(eig, G.n, K.n, forced) == expect
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
                got = enumerate_choices(eig, n, eig.n - n, forced)
            except ValueError as exc:  # the forced block alone is larger than S
                assert "exceeds" in str(exc) and not expect
                continue
            assert got == expect
    assert fused >= 20


def test_overlapping_split_rejected():
    with pytest.raises(ValueError):
        RealisationChoice((0, 1), (1, 2))


def test_solve_T_reports_infeasible_direction():
    # eigenvector of 0.2 has no component on the plant state: U1 singular
    A_cl = np.array([[0.5, 0.0], [1.0, 0.2]])
    eig = eig_paired(A_cl)
    c_bad = [c for c in enumerate_choices(eig, 1, 1)
             if abs(eig.values[c.state_feedback_set[0]] - 0.2) < 1e-9][0]
    res = solve_T(A_cl, c_bad, eig)
    assert not res.feasible
    assert res.reason != ""


# -- reconstruction property over random pairs -------------------------------

def test_predictor_reconstructs_random_controllers():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(15):
        n_K = int(rng.integers(1, 4))
        G, K = _random_stable_pair(rng, 3, n_K)
        A_cl = closed_loop_matrix(G, K)
        eig = eig_paired(A_cl)
        for c in enumerate_choices(eig, 3, n_K):
            res = solve_T(A_cl, c, eig)
            if not res.feasible:
                continue
            X = None
            if n_K < 3:
                X = rng.standard_normal((3 - n_K, n_K))  # any X works
            r = build_realisation("predictor", G, K, res.T, X, c)
            assert verify_equivalence(realisation_controller(r, G), K) < 1e-7
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
        eig = eig_paired(A_cl)
        for c in enumerate_choices(eig, G.n, K.n):
            res = solve_T(A_cl, c, eig)
            if not res.feasible:
                continue
            r = build_realisation("filter", G, K, res.T, choice=c)
            assert verify_equivalence(realisation_controller(r, G), K) < 1e-7
            assert_allclose(r.K_c @ r.K_f, K.D, atol=1e-7)
            checked += 1
    assert checked >= 8


def test_equivalence_check_catches_a_wrong_gain():
    G = _scalar(0.5, 1.0, 1.0)
    K = _scalar(0.2, 0.3, 0.4)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    c = enumerate_choices(eig, 1, 1)[1]
    r = build_realisation("predictor", G, K, solve_T(A_cl, c, eig).T, choice=c)
    # rebuild the observer controller with a perturbed injection gain
    A_obs = G.A + G.B @ r.K_c - np.array([[1.1 * r.K_f[0, 0]]]) @ G.C
    wrong = DtStateSpace(A_obs, [[1.1 * r.K_f[0, 0]]], r.K_c, [[0.0]], 1.0)
    assert verify_equivalence(wrong, K) > 1e-3


def test_equivalence_check_fails_overflowing_responses():
    # opposite signs, but both responses overflow to inf and inf - inf is NaN
    K0 = _scalar(0.5, 1e200, 1e200)
    K_obs = _scalar(0.5, 1e200, -1e200)
    assert verify_equivalence(K_obs, K0) == np.inf
    assert verify_equivalence(_scalar(0.5, 1.0, -1.0), _scalar(0.5, 1.0, 1.0)) > 1.0


# -- free observer poles -----------------------------------------------------

def test_free_poles_follow_reduced_pair_spectrum():
    rng = np.random.default_rng(23)
    G, K = _random_stable_pair(rng, 4, 2)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    for c in enumerate_choices(eig, 4, 2):
        res = solve_T(A_cl, c, eig)
        if not res.feasible:
            continue
        X = rng.standard_normal((2, 2))
        r = build_realisation("predictor", G, K, res.T, X, c)
        Tp = r.T_perp
        A_red = Tp.T @ G.A @ Tp
        C_red = K.B @ G.C @ Tp
        Ae = G.A - r.K_f @ G.C
        want = np.concatenate([
            np.array([eig.values[i] for i in c.observer_set]),
            np.linalg.eigvals(A_red - X @ C_red),
        ])
        got = np.linalg.eigvals(Ae)
        assert_allclose(np.sort_complex(got), np.sort_complex(want), atol=1e-7)
        break
    else:
        raise AssertionError("no feasible choice in fixture")


def test_design_free_poles_quiet_measurements_keep_reduced_dynamics():
    rng = np.random.default_rng(24)
    G, K = _random_stable_pair(rng, 4, 2)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    for c in enumerate_choices(eig, 4, 2):
        res = solve_T(A_cl, c, eig)
        if res.feasible:
            break
    X = design_free_poles(G, K, res.T, Qn=1.0, Rn=1e7)
    assert np.linalg.norm(X) < 1e-3
    Tp = np.linalg.svd(res.T)[2][2:].T  # null basis of T
    A_red = Tp.T @ G.A @ Tp
    got = np.sort_complex(np.linalg.eigvals(A_red - X @ (K.B @ G.C @ Tp)))
    assert_allclose(got, np.sort_complex(np.linalg.eigvals(A_red)), atol=1e-3)


def test_design_free_poles_without_free_poles_is_empty_and_checks_the_covariances():
    # n_K = n (satellite) and n_K > n: no free pole, an empty X, and the
    # covariances judged as for any search
    rng = np.random.default_rng(25)
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    small, big = _random_stable_pair(rng, 2, 1)[0], _random_stable_pair(rng, 3, 3)[1]
    for G, K in [(G, K), (small, big)]:
        T = rng.standard_normal((K.n, G.n))
        assert design_free_poles(G, K, T).shape == (0, K.n)
        with pytest.raises(ValueError, match="Qn must be positive semidefinite"):
            design_free_poles(G, K, T, Qn=-1.0)
        with pytest.raises(ValueError, match="Qn must be scalar or 0x0"):
            design_free_poles(G, K, T, Qn=np.eye(G.n))
        with pytest.raises(ValueError, match="Rn must be positive definite"):
            design_free_poles(G, K, T, Rn=0.0)


def test_free_pole_gain_rejects_an_undetectable_reduced_pair():
    # on T_perp = span(e1, e2) the reduced pair is (diag(1, 0.5), [0 1]):
    # the integrator at 1 never reaches the measurement
    G = DtStateSpace(np.diag([1.0, 0.5, 0.2]), np.ones((3, 1)), [[0.0, 1.0, 1.0]],
                     [[0.0]], 1.0)
    K = DtStateSpace([[0.3]], [[1.0]], [[0.5]], [[0.0]], 1.0)
    _, (err,) = _FreePoles(G, K, 1.0, 1e7).gains(np.eye(3)[np.newaxis, :, :2])
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
def test_t_svd_matches_null_basis_and_pinv(shape):
    rng = np.random.default_rng(25)
    Ts = np.stack([10.0 ** rng.uniform(-2, 3) * rng.standard_normal(shape) for _ in range(5)])
    for T, sv, T_perp, T_pinv in zip(Ts, *_t_svds(Ts)):
        assert_allclose(sv, np.linalg.svd(T, compute_uv=False), rtol=1e-12)
        assert T_perp.shape == (shape[1], shape[1] - shape[0])
        assert_allclose(T_perp, _oracle_null_basis(T), rtol=0, atol=1e-12)
        P = np.linalg.pinv(T)
        assert_allclose(T_pinv, P, rtol=0, atol=1e-12 * np.abs(P).max())


def _dist_system(G, Ae):
    """The disturbance-to-estimate map whose norm is h2_dist."""
    E, D = _dist_injection(G)
    return DtStateSpace(Ae, E, np.eye(G.n), D, G.Ts)


def _with_disturbance_states(G, states):
    return DtStateSpace(G.A, G.B, G.C, G.D, G.Ts, disturbance_states=states)


def _scored_random_realisations():
    """(realisation, G) over random predictor- and filter-form pairs."""
    rng = np.random.default_rng(26)
    out = []
    for _ in range(10):
        n_K = int(rng.integers(1, 4))
        G, K = _random_stable_pair(rng, 3, n_K)
        A_cl = closed_loop_matrix(G, K)
        eig = eig_paired(A_cl)
        for c in enumerate_choices(eig, 3, n_K):
            res = solve_T(A_cl, c, eig)
            if res.feasible:
                X = rng.standard_normal((3 - n_K, n_K)) if n_K < 3 else None
                out.append((build_realisation("predictor", G, K, res.T, X, c), G))
    for _ in range(8):
        G, K0 = _random_stable_pair(rng, 2, 1, strictly_proper_K=False)
        K = add_dipole(K0, W=50.0)
        A_cl = closed_loop_matrix(G, K)
        if spectral_radius(A_cl) >= 1.0 or np.linalg.cond(G.A) > 1e10:
            continue
        eig = eig_paired(A_cl)
        for c in enumerate_choices(eig, G.n, K.n):
            res = solve_T(A_cl, c, eig)
            if res.feasible:
                out.append((build_realisation("filter", G, K, res.T, choice=c), G))
    return out


@pytest.fixture
def fallbacks(monkeypatch):
    """Systems the doubling scorer hands on to the Schur/bilinear h2_norm."""
    calls = []
    monkeypatch.setattr(linalg, "h2_norm", lambda sys: calls.append(sys) or h2_norm(sys))
    return calls


def test_doubling_scores_match_lyapunov_h2_norms(fallbacks):
    checked = {"filter": 0, "predictor": 0}
    for r, G in _scored_random_realisations():
        for Gs in (G, _with_disturbance_states(G, (0,))):
            s = score_realisation(r, Gs)
            if not s.stable:
                continue
            noise = _form(r.form).noise_system(r, Gs)
            assert_allclose(s.h2_noise, h2_norm(noise), rtol=1e-10)
            assert_allclose(s.h2_dist, h2_norm(_dist_system(Gs, noise.A)), rtol=1e-10)
            assert s.product == s.h2_noise * s.h2_dist
            checked[r.form] += 1
    assert checked["predictor"] >= 20 and checked["filter"] >= 8
    assert not fallbacks  # every Gramian came from the Stein doubling


def _hand_realisation(A):
    """Predictor-form realisation with K_f = 0, so its error dynamics are A."""
    n = A.shape[0]
    G = DtStateSpace(A, np.ones((n, 1)), np.eye(1, n), [[0.0]], 1.0)
    r = ObserverRealisation(form="predictor", T=np.ones((1, n)), T_perp=np.zeros((n, 0)),
                            X=np.zeros((0, 1)), K_c=np.zeros((1, n)),
                            K_f=np.zeros((n, 1)), choice=None, riccati_residual=0.0)
    return r, G


def test_defective_error_dynamics_score_by_doubling(fallbacks):
    # a Jordan block has no eigenbasis; the doubling needs none
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    r, G = _hand_realisation(A)
    s = score_realisation(r, G)
    assert not fallbacks
    assert s.stable
    assert_allclose(s.h2_noise, h2_norm(_form(r.form).noise_system(r, G)), rtol=1e-10)
    assert_allclose(s.h2_dist, h2_norm(_dist_system(G, G.A)), rtol=1e-10)


def test_unstable_error_dynamics_score_infinite():
    r, G = _hand_realisation(np.array([[1.2, 0.3], [0.0, 0.4]]))
    s = score_realisation(r, G)
    assert not s.stable
    assert s.h2_noise == s.h2_dist == s.product == np.inf
    with pytest.raises(UnstableSystemError):
        h2_norm(_form(r.form).noise_system(r, G))


def test_unexcited_unstable_mode_still_scores_infinite(fallbacks):
    # K_f = 0 and E = e_0 never reach state 1, whose mode 1.5 is unstable:
    # both Gramians stay finite, so only the powers of Ae can tell
    A = np.array([[0.5, 0.3], [0.0, 1.5]])
    r, G = _hand_realisation(A)
    G = _with_disturbance_states(G, (0,))
    E, _ = _dist_injection(G)
    assert not np.any([(np.linalg.matrix_power(A, j) @ E)[1] for j in range(8)])
    s = score_realisation(r, G)
    assert not s.stable
    assert s.h2_noise == s.h2_dist == s.product == np.inf
    assert not fallbacks


def test_error_dynamics_past_the_doubling_cap_take_the_eigenvalue_path(fallbacks, monkeypatch):
    # 2^40 doublings leave (1 - 1e-13)^(2^40) ~ 0.9 of the slow mode: not certified
    A = np.array([[1.0 - 1e-13, 0.3], [0.0, 0.5]])
    r, G = _hand_realisation(A)
    spectra = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: spectra.append(M) or eigvals(M))
    s = score_realisation(r, G)
    assert any(M.ndim == 3 and np.array_equal(M[0], A) for M in spectra)
    assert len(fallbacks) == 2  # noise and disturbance maps, both by the Schur path
    assert s.stable
    assert s.h2_noise == h2_norm(_form(r.form).noise_system(r, G))
    assert s.h2_dist == h2_norm(_dist_system(G, G.A))
    assert s.h2_dist > 1e5  # the slow mode's Gramian is about 1 / (2e-13)


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
    out = search_realisations(G, K, form="filter", rank_by="product", margin_cut=0)
    assert len(out.ranked) == 4 and not out.rejected
    assert [r.choice.state_feedback_set for r, _ in out.ranked] == SAT_ORDER
    for r, s in out.ranked:
        noise, dist, gm, dm = SAT_TABLE[r.choice.state_feedback_set]
        assert_allclose(s.h2_noise, noise, rtol=2e-3)
        assert_allclose(s.h2_dist, dist, rtol=2e-3)
        assert_allclose(s.product, noise * dist, rtol=4e-3)
        assert_allclose(s.margins.gain_margin, gm, rtol=2e-3)
        assert_allclose(s.margins.delay_margin, dm, rtol=2e-3)
        # the uncontrollable integrator never leaves the state-feedback set
        assert 5 in r.choice.state_feedback_set
        # feedthrough identity holds for every realisation
        assert_allclose(r.K_c @ r.K_f, K.D, rtol=1e-8, atol=1e-8)
        assert verify_equivalence(realisation_controller(r, G), K) < 1e-8


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
    """forced_S that search_realisations hands to enumerate_choices."""
    seen = []

    def spy(eig, n, n_K, forced_S=()):
        seen.append(list(forced_S))
        return []

    monkeypatch.setattr(realisation, "enumerate_choices", spy)
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


def test_unknown_form_fails_before_any_split_is_solved(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    with pytest.raises(ValueError, match="unknown form 'bogus'"):
        search_realisations(G, K, form="bogus")
    with pytest.raises(ValueError, match="unknown form 'bogus'"):
        build_realisation("bogus", G, K, np.ones((K.n, G.n)))


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
        assert verify_equivalence(realisation_controller(r, Gs), Ks) < 1e-8


# -- refusals made once per search ---------------------------------------------

def test_controller_of_higher_order_than_the_plant_is_refused(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G, K = _random_stable_pair(np.random.default_rng(27), 2, 3)
    for call in (lambda: search_realisations(G, K, form="predictor"),
                 lambda: build_realisation("predictor", G, K, np.ones((3, 2)))):
        with pytest.raises(ValueError, match="controller order 3 exceeds plant order 2") as exc:
            call()
        assert "augment the plant" in str(exc.value)


@pytest.mark.parametrize("form", ["filter", "predictor"])
def test_static_controller_is_refused(monkeypatch, form):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G = _scalar(0.5, 1.0, 1.0)
    K = DtStateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-0.3]], 1.0)
    for call in (lambda: search_realisations(G, K, form=form),
                 lambda: build_realisation(form, G, K, np.ones((0, 1)))):
        with pytest.raises(ValueError, match="controller is static"):
            call()


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


def test_margin_cut_outside_the_inputs_is_refused(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    for cut in (-1, 2):
        with pytest.raises(ValueError, match=f"margin_cut {cut} is not an input channel"):
            search_realisations(G, K, form="filter", margin_cut=cut)


@pytest.mark.parametrize("Qn, Rn, message", [
    (-1.0, 1e7, "Qn must be positive semidefinite"),
    (np.inf, 1e7, "Qn must be finite"),
    (1.0, 0.0, "Rn must be positive definite"),
    (1.0, np.nan, "Rn must be finite"),
])
@pytest.mark.parametrize("case", ["pendulum", "satellite"])
def test_bad_noise_covariances_are_refused_before_any_split_is_solved(monkeypatch, case, Qn, Rn,
                                                                      message):
    # the pendulum has free observer poles (n_K < n); the satellite has
    # none (n_K = n), and its covariances are checked all the same
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


def _per_split_reasons(G, K, form):
    """Why each split is rejected when it is solved, designed and built on
    its own through the public one-split calls."""
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
    reasons = []
    for c in enumerate_choices(eig, G.n, K.n, unobservable_modes(A_cl.T, B_cl.T, eig.values)):
        res = solve_T(A_cl, c, eig)
        if not res.feasible:
            reasons.append(res.reason)
            continue
        try:
            X = design_free_poles(G, K, res.T) if K.n < G.n else None
            build_realisation(form, G, K, res.T, X, c)
        except (ValueError, NumericalError) as exc:
            reasons.append(str(exc))
    return reasons


def test_filter_form_check_runs_once_and_rejects_like_the_per_split_path(monkeypatch):
    G = satellite_plant()
    K = satellite_controller()  # no dipole: K(0) != 0
    reasons = _per_split_reasons(G, K, "filter")
    assert reasons and all(r.startswith("filter form needs K(0) = 0") for r in reasons)
    counts = {r: reasons.count(r) for r in sorted(set(reasons))}
    expect = "no feasible realisation: " + "; ".join(f"{v} x {k}" for k, v in counts.items())

    calls = []
    check = _form("filter").check
    monkeypatch.setattr(_form("filter"), "check", lambda G, K: calls.append(1) or check(G, K))
    with pytest.raises(NumericalError) as exc:
        search_realisations(G, K, form="filter")
    assert str(exc.value) == expect
    assert len(calls) == 1


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
    L, errors = linalg._kalman_gains(A, C, *linalg._noise_weights(1.0, 1e2, 4, 2))
    assert isinstance(errors[3], NumericalError) and "broke down" in str(errors[3])
    with pytest.raises(NumericalError, match="broke down"):
        linalg.solve_dare_kalman(A[3], C[3], 1.0, 1e2)
    for i in (0, 1, 2, 4, 5):
        assert errors[i] is None
        one = linalg.solve_dare_kalman(A[i], C[i], 1.0, 1e2)
        assert_allclose(L[i], one, rtol=0, atol=1e-12 * np.abs(one).max())
        ref = _per_split_doubling(A[i], C[i], np.eye(4), 1e2 * np.eye(2))
        assert_allclose(L[i], ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_stacked_scores_match_one_member_calls(fallbacks):
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
    stacked = _h2_scores(_form("predictor"), G, K_f)
    assert not fallbacks  # the defective member scores by doubling too

    for i, gain in enumerate(K_f):
        r = ObserverRealisation(form="predictor", T=np.ones((1, 2)), T_perp=np.zeros((2, 0)),
                                X=np.zeros((0, 1)), K_c=np.zeros((1, 2)), K_f=gain,
                                choice=None, riccati_residual=0.0)
        s, one = _score(r, G, stacked[i], None), score_realisation(r, G)
        assert s.stable == one.stable == (i != 3)
        if i == 3:
            assert s.h2_noise == s.h2_dist == s.product == np.inf
            continue
        assert_allclose([s.h2_noise, s.h2_dist], [one.h2_noise, one.h2_dist], rtol=1e-12)
        noise = _form("predictor").noise_system(r, G)
        assert_allclose(s.h2_noise, h2_norm(noise), rtol=1e-10)
        assert_allclose(s.h2_dist, h2_norm(_dist_system(G, noise.A)), rtol=1e-10)
    assert_allclose(
        stacked[2, 0],
        h2_norm(DtStateSpace(defective, K_f[2], np.eye(2), np.zeros((2, 2)), 1.0)), rtol=1e-10)


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
    """H2 norms from one diagonalisation of Ae, per split (no fallbacks)."""
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
    for c in enumerate_choices(eig, n, n_K, forced_S):
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


def _smoke_forced_S(G, K):
    """The surrogate's uncontrollable closed-loop modes plus its four
    smallest-modulus conjugate pairs: 170 splits, three chunks."""
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
    forced = set(unobservable_modes(A_cl.T, B_cl.T, eig.values))
    pairs = sorted((abs(eig.values[i]), i) for i in range(eig.n)
                   if eig.pair_index[i] is not None and eig.values[i].imag > 0)
    for _, i in pairs[:4]:  # the four smallest-modulus pairs stay in S
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
    # neither the MPC nor the QP nor the runtime
    src = os.path.dirname(os.path.dirname(realisation.__file__))
    code = ("import sys, lti2mpc.realisation; "
            "print(sorted(m for m in sys.modules if m.startswith('lti2mpc')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert "lti2mpc.realisation" in loaded
    assert not loaded & {"lti2mpc.runtime", "lti2mpc.mpc", "lti2mpc.qp"}


# -- threaded search -----------------------------------------------------------

def test_threaded_search_equals_the_serial_search():
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
        for name in ("T", "T_perp", "X", "K_c", "K_f"):
            a, b = getattr(r1, name), getattr(r2, name)
            assert np.array_equal(a, b), name
            assert b.base is None  # owned, not a view of a chunk's stacks


@pytest.mark.parametrize("workers", [0, -1, True, 1.5])
def test_a_bad_workers_value_is_refused_before_any_split_is_solved(monkeypatch, workers):
    def no_solve(*args):
        raise AssertionError("a split was solved")

    monkeypatch.setattr(realisation, "_solve_T_stack", no_solve)
    G, K = satellite_plant(), add_dipole(satellite_controller(), W=50.0)
    with pytest.raises(ValueError, match="workers must be None or an integer >= 1"):
        search_realisations(G, K, form="filter", workers=workers)


def test_a_failing_chunk_is_raised_once_every_pool_thread_is_joined(monkeypatch):
    G, K = scale_surrogate(0)
    forced = _smoke_forced_S(G, K)
    choices = enumerate_choices(eig_paired(closed_loop_matrix(G, K)), G.n, K.n, forced)
    second, third = choices[realisation._CHUNK], choices[2 * realisation._CHUNK]
    evaluate = realisation._Search.evaluate

    def failing(self, chunk):
        if chunk[0] == second:
            raise RuntimeError("chunk 2 failed")
        if chunk[0] == third:
            raise KeyError("chunk 3 failed")
        return evaluate(self, chunk)

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


def _spy_svd(monkeypatch):
    """The stacks np.linalg.svd is called on, recorded as they are passed."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(np.array(a)) or svd(a, *args, **kw))
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
