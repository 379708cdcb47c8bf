import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import companion

from lti2mpc import linalg
from lti2mpc.linalg import (
    NumericalError,
    UnstableSystemError,
    eig_paired,
    h2_norm,
    loop_margins,
    solve_dare_kalman,
    solve_discrete_lyapunov,
    spectral_radius,
)
from lti2mpc.statespace import DtStateSpace


def test_eig_paired_orders_by_modulus_then_angle():
    roots = [0.9, -0.55, 0.3 + 0.4j, 0.3 - 0.4j]
    M = companion(np.poly(roots))
    eig = eig_paired(M)
    # moduli 0.5, 0.5, 0.55, 0.9; the pair sorts first, minus-imag before plus
    assert_allclose(eig.values, [0.3 - 0.4j, 0.3 + 0.4j, -0.55, 0.9], atol=1e-12)
    assert eig.pair_index == (1, 0, None, None)


def test_eig_paired_consistent_with_trace_and_det():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        eig = eig_paired(M)
        assert_allclose(np.sum(eig.values), np.trace(M), rtol=1e-9, atol=1e-9)
        assert_allclose(np.prod(eig.values), np.linalg.det(M), rtol=1e-8, atol=1e-8)
        # eigenvector columns actually solve M u = lambda u
        for i, lam in enumerate(eig.values):
            u = eig.vectors[:, i]
            assert np.linalg.norm(M @ u - lam * u) <= 1e-7 * np.linalg.norm(M)


def test_eig_paired_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_paired(np.zeros((2, 3)))


def test_lyapunov_scalar():
    P = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert_allclose(P, [[4.0 / 3.0]], rtol=1e-12)


def test_lyapunov_matches_truncated_series():
    # P = sum_k A^k Q A'^k; with rho(A) <= 0.9 the 400-term tail is ~1e-18
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        A *= 0.9 / max(spectral_radius(A), 1e-9)
        Qh = rng.standard_normal((5, 5))
        Q = Qh @ Qh.T
        P = solve_discrete_lyapunov(A, Q)
        S = np.zeros_like(Q)
        Ak = np.eye(5)
        for _k in range(400):
            S += Ak @ Q @ Ak.T
            Ak = A @ Ak
        assert_allclose(P, S, rtol=1e-7, atol=1e-7 * np.linalg.norm(S))


def test_lyapunov_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        solve_discrete_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_h2_scalar_lag():
    # impulse response 0, 1, a, a^2, ...  ->  h2^2 = 1/(1-a^2)
    sys = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    assert_allclose(h2_norm(sys), np.sqrt(4.0 / 3.0), rtol=1e-10)


def test_h2_rejects_unstable():
    sys = DtStateSpace([[0.5, 1.0], [0.0, 1.1]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], 1.0)
    with pytest.raises(UnstableSystemError):
        h2_norm(sys)


def test_h2_static_gain_is_frobenius_norm():
    D = np.array([[1.0, 2.0], [0.0, 2.0]])
    sys = DtStateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D, 1.0)
    assert_allclose(h2_norm(sys), np.linalg.norm(D, "fro"), rtol=1e-12)


def test_h2_invariant_under_similarity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 4
        A = rng.standard_normal((n, n))
        A *= 0.85 / max(spectral_radius(A), 1e-9)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((1, n))
        D = rng.standard_normal((1, 2))
        T = rng.standard_normal((n, n)) + 3 * np.eye(n)
        s1 = DtStateSpace(A, B, C, D, 1.0)
        s2 = DtStateSpace(T @ A @ np.linalg.inv(T), T @ B, C @ np.linalg.inv(T), D, 1.0)
        assert_allclose(h2_norm(s1), h2_norm(s2), rtol=1e-7)


def test_dare_golden_ratio():
    # a = c = qn = rn = 1:  P^2 = P + 1, gain = 1/phi
    L = solve_dare_kalman(np.array([[1.0]]), np.array([[1.0]]), 1.0, 1.0)
    assert_allclose(L, [[2.0 / (1.0 + np.sqrt(5.0))]], rtol=1e-9)


def test_dare_zero_process_noise_gives_zero_gain():
    L = solve_dare_kalman(np.array([[0.5]]), np.array([[1.0]]), 0.0, 1.0)
    assert_allclose(L, [[0.0]], atol=1e-12)


def test_dare_gain_stabilises_error_dynamics():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.5, 1.3) / max(spectral_radius(A), 1e-9)
        C = rng.standard_normal((1, n))
        L = solve_dare_kalman(A, C, 1.0, 1.0)
        assert spectral_radius(A - L @ C) < 1.0


def test_dare_rejects_indefinite_measurement_noise():
    with pytest.raises((ValueError, NumericalError)):
        solve_dare_kalman(np.array([[0.5]]), np.array([[1.0]]), 1.0, np.array([[-1.0]]))


def test_dare_doubling_breakdown_is_a_numerical_error(monkeypatch):
    # a member whose doubling iteration breaks down comes back as NaN
    monkeypatch.setattr(linalg, "_dare_doubling", lambda A, *args: np.full(A.shape, np.nan))
    with pytest.raises(NumericalError, match="broke down"):
        solve_dare_kalman(np.array([[0.5]]), np.array([[1.0]]), 1.0, 1.0)


# -- loop margins ------------------------------------------------------------

def test_margins_first_order_lag():
    # L(z) = 0.75/(z - 0.5), negative feedback.  Phase crossing at z = -1
    # gives |L| = 0.5 hence GM = 2; the unity crossing is at
    # cos(w) = 0.6875 with phase distance pi - atan2(sin w, cos w - 0.5).
    L = DtStateSpace([[0.5]], [[1.0]], [[0.75]], [[0.0]], 1.0)
    m = loop_margins(L, feedback_sign=-1)
    assert_allclose(m.gain_margin, 2.0, rtol=1e-6)
    assert_allclose(m.crossover_frequency, 0.812756, rtol=1e-3)
    assert_allclose(m.phase_margin, 1.823473, rtol=1e-3)
    assert_allclose(m.delay_margin, 2.243569, rtol=1e-3)
    assert m.phase_crossing_found and m.unity_crossing_found


def test_margins_static_gain_positive_closure():
    S = DtStateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.5]], 1.0)
    m = loop_margins(S, feedback_sign=1)
    assert_allclose(m.gain_margin, 2.0, rtol=1e-9)
    assert np.isinf(m.delay_margin)
    assert not m.unity_crossing_found


def test_margins_require_siso():
    L = DtStateSpace(np.eye(2) * 0.1, np.eye(2), np.eye(2), np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        loop_margins(L)
