"""Observer realisation tests.

The scalar cases are worked by hand: for a one-state plant (a, b, c) and a
one-state strictly proper controller (f, g, h) the coupling equation
collapses to the quadratic  b h T^2 + (a - f) T - g = 0, one root per
admissible eigenvalue split.  The satellite and pendulum numbers are pinned
regression values computed from the worked models in lti2mpc.models.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lti2mpc import linalg, realisation
from lti2mpc.linalg import (
    NumericalError,
    UnstableSystemError,
    eig_paired,
    h2_norm,
    spectral_radius,
)
from lti2mpc.models import (
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
    _free_pole_gains,
    _h2_scores,
    _score,
    _t_svds,
    build_realisation,
    check_decoupling,
    closed_loop_matrix,
    design_free_poles,
    enumerate_choices,
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
        assert verify_equivalence(realisation_controller(r, G, K), K) < 1e-12
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
        assert verify_equivalence(realisation_controller(r, G, K), K) < 1e-12


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
            assert verify_equivalence(realisation_controller(r, G, K), K) < 1e-7
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
            assert verify_equivalence(realisation_controller(r, G, K), K) < 1e-7
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


def test_free_pole_gain_rejects_an_undetectable_reduced_pair():
    # on T_perp = span(e1, e2) the reduced pair is (diag(1, 0.5), [0 1]):
    # the integrator at 1 never reaches the measurement
    G = DtStateSpace(np.diag([1.0, 0.5, 0.2]), np.ones((3, 1)), [[0.0, 1.0, 1.0]],
                     [[0.0]], 1.0)
    K = DtStateSpace([[0.3]], [[1.0]], [[0.5]], [[0.0]], 1.0)
    _, (err,) = _free_pole_gains(G, K, np.eye(3)[np.newaxis, :, :2], 1.0, 1e7)
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
    """(realisation, G, K) over random predictor- and filter-form pairs."""
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
                out.append((build_realisation("predictor", G, K, res.T, X, c), G, K))
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
                out.append((build_realisation("filter", G, K, res.T, choice=c), G, K))
    return out


@pytest.fixture
def fallbacks(monkeypatch):
    """Systems the modal scorer hands on to the Schur/bilinear h2_norm."""
    calls = []
    monkeypatch.setattr(linalg, "h2_norm", lambda sys: calls.append(sys) or h2_norm(sys))
    return calls


def test_modal_scores_match_lyapunov_h2_norms(fallbacks):
    checked = {"filter": 0, "predictor": 0}
    for r, G, K in _scored_random_realisations():
        for Gs in (G, _with_disturbance_states(G, (0,))):
            s = score_realisation(r, Gs, K)
            if not s.stable:
                continue
            noise = _form(r.form).noise_system(r, Gs, K)
            assert_allclose(s.h2_noise, h2_norm(noise), rtol=1e-10)
            assert_allclose(s.h2_dist, h2_norm(_dist_system(Gs, noise.A)), rtol=1e-10)
            assert s.product == s.h2_noise * s.h2_dist
            checked[r.form] += 1
    assert checked["predictor"] >= 20 and checked["filter"] >= 8
    assert not fallbacks  # every Gramian came from the eigendecomposition


def _hand_realisation(A):
    """Predictor-form realisation with K_f = 0, so its error dynamics are A."""
    n = A.shape[0]
    G = DtStateSpace(A, np.ones((n, 1)), np.eye(1, n), [[0.0]], 1.0)
    K = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    r = ObserverRealisation(form="predictor", T=np.ones((1, n)), T_perp=np.zeros((n, 0)),
                            X=np.zeros((0, 1)), K_c=np.zeros((1, n)),
                            K_f=np.zeros((n, 1)), choice=None, riccati_residual=0.0)
    return r, G, K


def test_defective_error_dynamics_fall_back_to_lyapunov(fallbacks):
    A = np.array([[0.5, 1.0], [0.0, 0.5]])  # Jordan block: V is singular to working precision
    r, G, K = _hand_realisation(A)
    s = score_realisation(r, G, K)
    assert len(fallbacks) == 2  # noise and disturbance maps, both by the Schur path
    assert s.stable
    assert s.h2_noise == h2_norm(_form(r.form).noise_system(r, G, K))
    assert s.h2_dist == h2_norm(_dist_system(G, G.A))


def test_unstable_error_dynamics_score_infinite():
    r, G, K = _hand_realisation(np.array([[1.2, 0.3], [0.0, 0.4]]))
    s = score_realisation(r, G, K)
    assert not s.stable
    assert s.h2_noise == s.h2_dist == s.product == np.inf
    lam, V = np.linalg.eig(G.A)
    with pytest.raises(UnstableSystemError):
        linalg.modal_h2_norms([_form(r.form).noise_system(r, G, K)], lam, V)


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
        assert verify_equivalence(realisation_controller(r, G, K), K) < 1e-8


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
        assert verify_equivalence(realisation_controller(r, Gs, Ks), Ks) < 1e-8


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
    L, errors = linalg._kalman_gains(A, C, 1.0, 1e2)
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
    # predictor form with C = I and A_shift = A, so K_f = A - Ae sets each
    # member's error dynamics Ae
    rng = np.random.default_rng(29)
    A = rng.standard_normal((2, 2))
    G = DtStateSpace(A, np.ones((2, 1)), np.eye(2), np.zeros((2, 1)), 1.0,
                     disturbance_states=(1,))
    K = DtStateSpace([[0.5]], np.ones((1, 2)), [[1.0]], [[0.0, 0.0]], 1.0)
    ordinary = [rng.uniform(0.2, 0.8) * np.linalg.qr(rng.standard_normal((2, 2)))[0]
                for _ in range(4)]
    defective = np.array([[0.5, 1.0], [0.0, 0.5]])
    unstable = np.array([[1.2, 0.3], [0.0, 0.4]])
    Ae = np.stack(ordinary[:2] + [defective, unstable] + ordinary[2:])
    K_f = A - Ae
    stacked = _h2_scores(_form("predictor"), G, K, K_f)
    assert len(fallbacks) == 2  # the defective member's noise and disturbance maps

    for i, gain in enumerate(K_f):
        r = ObserverRealisation(form="predictor", T=np.ones((1, 2)), T_perp=np.zeros((2, 0)),
                                X=np.zeros((0, 1)), K_c=np.zeros((1, 2)), K_f=gain,
                                choice=None, riccati_residual=0.0)
        s, one = _score(r, G, stacked[i], None), score_realisation(r, G, K)
        assert s.stable == one.stable == (i != 3)
        if i == 3:
            assert s.h2_noise == s.h2_dist == s.product == np.inf
            continue
        assert_allclose([s.h2_noise, s.h2_dist], [one.h2_noise, one.h2_dist], rtol=1e-12)
        noise = _form("predictor").noise_system(r, G, K)
        assert_allclose(s.h2_noise, h2_norm(noise), rtol=1e-10)
        assert_allclose(s.h2_dist, h2_norm(_dist_system(G, noise.A)), rtol=1e-10)
    assert stacked[2, 0] == h2_norm(DtStateSpace(defective, K_f[2], np.eye(2), np.zeros((2, 2)), 1.0))


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


def test_smoke_surrogate_search_matches_the_per_split_reference():
    G, K = scale_surrogate(0)
    assert not G.disturbance_states and not np.any(K.D)
    A_cl = closed_loop_matrix(G, K)
    eig = eig_paired(A_cl)
    B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])
    forced = set(unobservable_modes(A_cl.T, B_cl.T, eig.values))
    pairs = sorted((abs(eig.values[i]), i) for i in range(eig.n)
                   if eig.pair_index[i] is not None and eig.values[i].imag > 0)
    for _, i in pairs[:4]:  # the four smallest-modulus pairs stay in S
        forced.update((i, eig.pair_index[i]))
    out = search_realisations(G, K, form="predictor", rank_by="product", forced_S=sorted(forced))
    rows, rejected = _per_split_search(G, K, sorted(forced))
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
