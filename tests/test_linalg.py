import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.linalg import companion

from lti2mpc import linalg
from lti2mpc.linalg import (
    LoopMargins,
    NumericalError,
    UnstableSystemError,
    eig_paired,
    h2_norm,
    loop_margins,
    solve_discrete_lyapunov,
    spectral_radius,
)
from lti2mpc.models import (
    pendulum_controller,
    pendulum_plant,
    satellite_controller,
    satellite_plant,
)
from lti2mpc.realisation import margin_loop, search_realisations
from lti2mpc.statespace import DtStateSpace, add_dipole, loop_shift


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


def _kalman_gain(A, C, Qn, Rn):
    """The Kalman predictor gain of one pair, as the free-pole design of a
    search computes it: the error of a failed DARE is raised."""
    A, C = np.atleast_2d(A), np.atleast_2d(C)
    (L,), (error,) = linalg._kalman_gains(
        A[np.newaxis], C[np.newaxis], *linalg._noise_weights(Qn, Rn, A.shape[0], C.shape[0]))
    if error is not None:
        raise error
    return L


def test_dare_golden_ratio():
    # a = c = qn = rn = 1:  P^2 = P + 1, gain = 1/phi
    L = _kalman_gain(np.array([[1.0]]), np.array([[1.0]]), 1.0, 1.0)
    assert_allclose(L, [[2.0 / (1.0 + np.sqrt(5.0))]], rtol=1e-9)


def test_dare_zero_process_noise_gives_zero_gain():
    L = _kalman_gain(np.array([[0.5]]), np.array([[1.0]]), 0.0, 1.0)
    assert_allclose(L, [[0.0]], atol=1e-12)


def test_dare_gain_stabilises_error_dynamics():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.5, 1.3) / max(spectral_radius(A), 1e-9)
        C = rng.standard_normal((1, n))
        L = _kalman_gain(A, C, 1.0, 1.0)
        assert spectral_radius(A - L @ C) < 1.0


def test_dare_rejects_indefinite_measurement_noise():
    with pytest.raises((ValueError, NumericalError)):
        _kalman_gain(np.array([[0.5]]), np.array([[1.0]]), 1.0, np.array([[-1.0]]))


def _random_covariance(rng, dim, cond):
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return Q @ np.diag(np.geomspace(1.0, 1.0 / cond, dim)) @ Q.T


@pytest.mark.parametrize("n, ny, rn_cond, rtol", [
    (4, 17, 1e2, 1e-10), (4, 4, 1e2, 1e-10), (5, 2, 1e2, 1e-10),
    # an ill-conditioned Rn costs accuracy in the gain itself: against a
    # 40-digit Newton solution this one is within 2e-9, and so within
    # 1.5e-9 is scipy's
    (4, 17, 1e10, 1e-7), (4, 4, 1e10, 1e-7), (5, 2, 1e10, 1e-7),
])
def test_kalman_gains_match_the_scipy_dare(n, ny, rn_cond, rtol):
    # the information form works in n whatever ny is; the oracle is the
    # dual DARE P = A P A' + Qn - A P C' (C P C' + Rn)^-1 C P A'
    rng = np.random.default_rng(40 + ny)
    A = rng.standard_normal((6, n, n))
    A *= rng.uniform(0.5, 1.2, (6, 1, 1)) / np.abs(np.linalg.eigvals(A)).max(axis=1)[:, None, None]
    C = rng.standard_normal((6, ny, n))
    Qn, Rn = _random_covariance(rng, n, 1e2), 1e3 * _random_covariance(rng, ny, rn_cond)
    L, errors = linalg._kalman_gains(A, C, *linalg._noise_weights(Qn, Rn, n, ny))
    assert errors == [None] * 6
    for i in range(6):
        P = scipy.linalg.solve_discrete_are(A[i].T, C[i].T, Qn, Rn)
        ref = np.linalg.solve(C[i] @ P @ C[i].T + Rn, C[i] @ P @ A[i].T).T
        assert_allclose(L[i], ref, rtol=rtol, atol=rtol * np.abs(ref).max())
        assert_allclose(_kalman_gain(A[i], C[i], Qn, Rn), L[i], rtol=1e-12,
                        atol=1e-12 * np.abs(ref).max())


def test_kalman_gains_refuse_a_wrong_riccati_solution(monkeypatch):
    rng = np.random.default_rng(47)
    A, C = 0.5 * rng.standard_normal((4, 4)), rng.standard_normal((17, 4))
    _kalman_gain(A, C, 1.0, 1e2)  # converges
    doubling = linalg._dare_doubling
    monkeypatch.setattr(linalg, "_dare_doubling", lambda *args: 1.01 * doubling(*args))
    with pytest.raises(NumericalError, match="did not converge, relative residual"):
        _kalman_gain(A, C, 1.0, 1e2)


@pytest.mark.parametrize("Qn, Rn, message", [
    (-1.0, 1.0, "Qn must be positive semidefinite"),
    (np.diag([1.0, -1e-3]), 1.0, "Qn must be positive semidefinite"),
    (np.inf, 1.0, "Qn must be finite"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), 1.0, "Qn must be finite"),
    (np.eye(3), 1.0, "Qn must be scalar or 2x2"),
    (1.0, 0.0, "Rn must be positive definite"),
    (1.0, np.array([[1.0, 2.0], [2.0, 1.0]]), "Rn must be positive definite"),
    (1.0, -np.inf, "Rn must be finite"),
])
def test_dare_refuses_bad_covariances(Qn, Rn, message):
    with pytest.raises(ValueError, match=message):
        _kalman_gain(0.5 * np.eye(2), np.eye(2), Qn, Rn)


def test_dare_accepts_a_semidefinite_process_covariance():
    # rank-one Qn, and a Qn whose smallest eigenvalue is -1e-14 ||Qn|| from rounding
    L = _kalman_gain(0.5 * np.eye(2), np.ones((1, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)
    assert np.isfinite(L).all()
    _kalman_gain(0.5 * np.eye(2), np.ones((1, 2)), np.diag([1.0, -1e-14]), 1.0)


def test_dare_doubling_breakdown_is_a_numerical_error(monkeypatch):
    # a member whose doubling iteration breaks down comes back as NaN
    monkeypatch.setattr(linalg, "_dare_doubling", lambda A, *args: np.full(A.shape, np.nan))
    with pytest.raises(NumericalError, match="broke down"):
        _kalman_gain(np.array([[0.5]]), np.array([[1.0]]), 1.0, 1.0)


# -- loop margins ------------------------------------------------------------

def test_margins_first_order_lag():
    # L(z) = 0.75/(z - 0.5), negative feedback.  Phase crossing at z = -1
    # gives |L| = 0.5 hence GM = 2; the unity crossing is at
    # cos(w) = 0.6875 with phase distance pi - atan2(sin w, cos w - 0.5).
    L = DtStateSpace([[0.5]], [[1.0]], [[0.75]], [[0.0]], 1.0)
    m = loop_margins(_negated(L))
    assert_allclose(m.gain_margin, 2.0, rtol=1e-6)
    assert_allclose(m.crossover_frequency, 0.812756, rtol=1e-3)
    assert_allclose(m.phase_margin, 1.823473, rtol=1e-3)
    assert_allclose(m.delay_margin, 2.243569, rtol=1e-3)
    assert m.phase_crossing_found and m.unity_crossing_found


def test_margins_static_gain_positive_closure():
    S = DtStateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.5]], 1.0)
    m = loop_margins(S)
    assert_allclose(m.gain_margin, 2.0, rtol=1e-9)
    assert np.isinf(m.delay_margin)
    assert not m.unity_crossing_found


def test_margins_require_siso():
    L = DtStateSpace(np.eye(2) * 0.1, np.eye(2), np.eye(2), np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        loop_margins(L)


def _negated(L):
    """The loop -L: with it loop_margins closes signal = -L(signal)."""
    if isinstance(L, _GridLoop):
        return _GridLoop(-L.grid_response, -L.off_grid)
    return DtStateSpace(L.A, L.B, -L.C, -L.D, L.Ts)


def _loop_margins_reference(L, feedback_sign):
    """loop_margins with its grid scans written as plain loops over the
    intervals, one skip rule at a time; the loop closes as
    signal = feedback_sign * L(signal)."""
    Ts = L.Ts
    w_nyq = math.pi / Ts

    def response(w):
        return complex(-feedback_sign * L.freq_response(np.array([w * Ts]))[0, 0, 0])

    grid = np.logspace(math.log10(w_nyq) - 6, math.log10(w_nyq), 2401)
    grid[-1] = w_nyq * (1.0 - 1e-9)
    resp = -feedback_sign * L.freq_response(grid * Ts)[:, 0, 0]
    mag = np.abs(resp)
    im = resp.imag
    tol_w = 1e-4 / Ts

    gm_candidates = []
    on_axis = (np.abs(im) <= 1e-9 * (1.0 + mag)) & (resp.real < 0.0)
    for i in range(len(grid)):
        if on_axis[i] and mag[i] > 0.0:
            gm_candidates.append(mag[i])
    for i in range(len(grid) - 1):
        if on_axis[i] or on_axis[i + 1]:
            continue
        if im[i] == 0.0 or (im[i] > 0) == (im[i + 1] > 0):
            continue
        r = response(linalg._bisect_root(lambda w: response(w).imag,
                                         grid[i], grid[i + 1], im[i], tol_w))
        if r.real < 0.0:
            gm_candidates.append(abs(r))
    gm_candidates = [m for m in gm_candidates if m < 1.0]

    log_mag = np.where(mag > 0.0, np.log(np.maximum(mag, 1e-300)), -np.inf)
    crossings = []
    for i in range(len(grid) - 1):
        a, b = log_mag[i], log_mag[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            crossings.append(grid[i])
            continue
        if (a > 0) == (b > 0):
            continue
        crossings.append(linalg._bisect_root(
            lambda w: math.log(max(abs(response(w)), 1e-300)),
            grid[i], grid[i + 1], a, tol_w))

    pm, dm_min, crossover = math.inf, math.inf, math.nan
    for w_c in crossings:
        r = response(w_c)
        margin = (math.atan2(r.imag, r.real) + math.pi) % (2.0 * math.pi)
        dm = margin / (w_c * Ts)
        if dm < dm_min:
            pm, dm_min, crossover = margin, dm, w_c
    return LoopMargins(
        gain_margin=1.0 / max(gm_candidates) if gm_candidates else math.inf,
        phase_margin=pm, delay_margin=dm_min, crossover_frequency=crossover,
        phase_crossing_found=bool(gm_candidates), unity_crossing_found=bool(crossings))


class _GridLoop:
    """A SISO 'loop' whose response on loop_margins' 2401-point grid is
    given point by point, and is ``off_grid`` at every single frequency a
    bisection or a crossing asks for.

    Exact zeros and exact unit magnitudes on grid points make each skip
    rule of the crossing scans the only rule that decides its interval.
    The loops below close as signal = -L(signal).  An interval that is
    wrongly bisected finds the default ``off_grid``, a negative-real
    candidate of magnitude ~0.8 (gain margin 1.25 instead of 2) and a
    unity crossing where the loop below has none.
    """

    n_u = n_y = 1
    Ts = 1.0

    def __init__(self, grid_response, off_grid=-0.8 + 0.01j):
        self.grid_response = grid_response
        self.off_grid = off_grid

    def freq_response(self, w_ts):
        w_ts = np.atleast_1d(w_ts)
        if w_ts.size == 1:
            return np.full((1, 1, 1), self.off_grid)
        assert w_ts.size == self.grid_response.size
        return self.grid_response.reshape(-1, 1, 1)


def _phase_scan_loop():
    # |L| = 0.42 except at two points; Im < 0 below 100, exactly 0 at 100
    # (Re > 0, so not on the axis), > 0 above
    resp = np.where(np.arange(2401) < 100, 0.3 - 0.3j, 0.3 + 0.3j)
    resp[100] = 0.3
    # on the negative real axis, Im changing sign on both sides
    resp[1000] = -0.5 - 1e-12j
    # magnitude exactly 1, the only unity crossing
    resp[2000] = 1j
    return _GridLoop(resp)


def _magnitude_scan_loop():
    # |L| = 2 except one exact zero: log|L| is -inf there, finite above 1 on
    # both sides, so no interval holds a unity crossing
    resp = np.full(2401, 2.0 + 0j)
    resp[1500] = 0.0
    return _GridLoop(resp)


def test_margin_scan_skip_rules_on_exact_grid_points():
    grid = np.logspace(math.log10(math.pi) - 6, math.log10(math.pi), 2401)
    L = _phase_scan_loop()
    m = loop_margins(_negated(L))
    assert m == _loop_margins_reference(L, -1)
    assert m.gain_margin == 2.0 and m.phase_crossing_found
    assert m.crossover_frequency == grid[2000] and m.unity_crossing_found
    L = _magnitude_scan_loop()
    m = loop_margins(_negated(L))
    assert m == _loop_margins_reference(L, -1)
    assert not (m.phase_crossing_found or m.unity_crossing_found)


def _realised_margin_loops():
    sat = search_realisations(satellite_plant(), add_dipole(satellite_controller(), W=50.0),
                              form="filter", rank_by="product")
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    pend = search_realisations(Gs, Ks, form="predictor", rank_by="noise")
    return ([margin_loop(r, satellite_plant(), 0) for r, _ in sat.ranked[:4]]
            + [margin_loop(r, Gs, 0) for r, _ in pend.ranked])


def test_margin_scan_matches_the_loop_reference_on_realised_loops():
    for L in _realised_margin_loops():
        assert loop_margins(L) == _loop_margins_reference(L, 1)
        assert loop_margins(_negated(L)) == _loop_margins_reference(L, -1)
