import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import companion

from conftest import stacked_h2
from lti2mpc import linalg
from lti2mpc.linalg import (
    LoopMargins,
    NumericalError,
    eig_paired,
    loop_margins,
    spectral_radius,
)
from lti2mpc.models import (
    pendulum_controller,
    pendulum_plant,
    satellite_controller,
    satellite_plant,
)
from lti2mpc.realisation import margin_loop, search_realisations
from lti2mpc.statespace import CtStateSpace, DtStateSpace, add_dipole, c2d_zoh, loop_shift


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


@pytest.mark.parametrize("M, message", [
    (np.array([[1.0, 1j], [0.0, 0.5]]), "matrix must be real"),
    (np.array([[1.0, np.nan], [0.0, 0.5]]), "matrix entries must be finite"),
    (np.array([[np.inf, 0.0], [0.0, 0.5]]), "matrix entries must be finite"),
], ids=["complex", "nan", "inf"])
def test_eig_paired_refuses_a_complex_or_non_finite_matrix(M, message):
    with pytest.raises(ValueError, match=message):
        eig_paired(M)
    # a complex matrix with no imaginary part is its real part
    assert_allclose(eig_paired(np.array([[0.5 + 0j]])).values, [0.5])


def _lyapunov(A, Q):
    """P of A P A' - P + Q = 0 from a one-member ``linalg._stein_stack``,
    and its status (1 certified, 0 not within the cap, -1 overflowed)."""
    P, (status,) = linalg._stein_stack(A[np.newaxis], Q[np.newaxis, np.newaxis])
    return P[0, 0], status


def test_lyapunov_scalar():
    P, status = _lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert status == 1
    assert_allclose(P, [[4.0 / 3.0]], rtol=1e-12)


def test_lyapunov_matches_truncated_series():
    # P = sum_k A^k Q A'^k; with rho(A) <= 0.9 the 400-term tail is ~1e-18
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        A *= 0.9 / max(spectral_radius(A), 1e-9)
        Qh = rng.standard_normal((5, 5))
        Q = Qh @ Qh.T
        P, status = _lyapunov(A, Q)
        assert status == 1
        S = np.zeros_like(Q)
        Ak = np.eye(5)
        for _k in range(400):
            S += Ak @ Q @ Ak.T
            Ak = A @ Ak
        assert_allclose(P, S, rtol=1e-7, atol=1e-7 * np.linalg.norm(S))


def test_lyapunov_rejects_unstable():
    # the doubling never certifies a Gramian of a mode on the unit circle
    assert _lyapunov(np.array([[1.0]]), np.array([[1.0]]))[1] == 0


def test_h2_scalar_lag():
    # impulse response 0, 1, a, a^2, ...  ->  h2^2 = 1/(1-a^2)
    sys = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    assert_allclose(stacked_h2(sys), np.sqrt(4.0 / 3.0), rtol=1e-10)


def test_h2_rejects_unstable():
    sys = DtStateSpace([[0.5, 1.0], [0.0, 1.1]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], 1.0)
    assert stacked_h2(sys) == math.inf


def test_h2_static_gain_is_frobenius_norm():
    D = np.array([[1.0, 2.0], [0.0, 2.0]])
    sys = DtStateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D, 1.0)
    assert_allclose(stacked_h2(sys), np.linalg.norm(D, "fro"), rtol=1e-12)


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
        assert_allclose(stacked_h2(s1), stacked_h2(s2), rtol=1e-7)


def _uncertified_draws(count):
    """Stable, strongly non-normal 4-state systems (A, B, C): spectral
    radius 0.999999, the strictly upper part of the Schur form times 50."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        Q = scipy.linalg.qr(rng.standard_normal((4, 4)))[0]
        U = np.triu(rng.standard_normal((4, 4)) * 50, 1)
        B, C = rng.standard_normal((4, 1)), rng.standard_normal((1, 4))
        yield Q @ (np.diag([1 - 1e-6, 0.5, -0.3, 0.9]) + U) @ Q.T, B, C


def _uncertified_system():
    """The second of :func:`_uncertified_draws`, whose Stein doubling
    overflows before it certifies a Gramian; a 60-digit Kronecker solve
    gives an H2 norm of 1.8467e9."""
    return list(_uncertified_draws(2))[1]


def test_an_h2_norm_no_gramian_certifies_is_refused_not_scored_zero():
    A, B, C = _uncertified_system()
    assert spectral_radius(A) < 1.0
    assert math.isnan(stacked_h2(DtStateSpace(A, B, C, np.zeros((1, 1)), 1.0)))
    assert _lyapunov(A, B @ B.T)[1] != 1
    # the stacked scorer marks every map of the member NaN
    maps = [(B[None], C[None], np.zeros((1, 1, 1)))] * 2
    out = linalg._h2_stack(A[None], maps)
    assert out.shape == (1, 2) and np.isnan(out).all()


def _kronecker_h2(A, B, C, digits=50):
    """H2 norm of (A, B, C, 0) from the Kronecker form (I - A (x) A) vec P =
    vec(B B') solved in ``digits``-digit arithmetic on the exact float
    entries."""
    mpmath = pytest.importorskip("mpmath")
    n = len(A)
    with mpmath.workdps(digits):
        a, b, c = (mpmath.matrix(M.tolist()) for M in (A, B, C))
        M = mpmath.eye(n * n) - mpmath.matrix(
            [[a[i // n, j // n] * a[i % n, j % n] for j in range(n * n)] for i in range(n * n)])
        p = mpmath.lu_solve(M, mpmath.matrix([b[i, 0] * b[j, 0] for i in range(n)
                                              for j in range(n)]))
        return float(mpmath.sqrt(sum(c[0, i] * p[i * n + j] * c[0, j]
                                     for i in range(n) for j in range(n))))


def test_h2_norms_of_non_normal_systems_are_accurate_or_refused():
    # all 200 draws, never fewer and never re-seeded: a residual bound alone
    # accepts Gramians of these systems that are far off, so every finite
    # norm is held to a 50-digit solve; the doubling refuses 198 draws and
    # scores draws 61 and 118
    for i, (A, B, C) in enumerate(_uncertified_draws(200)):
        value = stacked_h2(DtStateSpace(A, B, C, np.zeros((1, 1)), 1.0))
        if math.isnan(value):  # not certified: no norm, and no wrong one
            continue
        assert_allclose(value, _kronecker_h2(A, B, C), rtol=1e-4, err_msg=f"draw {i}")


def _kalman_gain(A, C, Qn, Rn):
    """The Kalman predictor gain of one pair, as the free-pole design of a
    search computes it: the error of a failed DARE is raised."""
    A, C = np.atleast_2d(A), np.atleast_2d(C)
    (L,), (error,) = linalg._kalman_gains(A[np.newaxis], C[np.newaxis],
                                          *linalg._noise_weights(Qn, Rn))
    if error is not None:
        raise error
    return L


def test_dare_golden_ratio():
    # a = c = qn = rn = 1:  P^2 = P + 1, gain = 1/phi
    L = _kalman_gain(np.array([[1.0]]), np.array([[1.0]]), 1.0, 1.0)
    assert_allclose(L, [[2.0 / (1.0 + np.sqrt(5.0))]], rtol=1e-9)
    # a one-entry vector is a scalar weight
    assert_array_equal(_kalman_gain([[1.0]], [[1.0]], np.array([1.0]), np.array([1.0])), L)


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


@pytest.mark.parametrize("n, ny, q, r, rtol", [
    (4, 17, 10.0, 1e-2, 1e-10), (4, 4, 10.0, 1e-2, 1e-10), (5, 2, 10.0, 1e-2, 1e-10),
    # r/q = 1e7 makes the gain small: the largest gap to scipy is 3e-10
    (4, 17, 1.0, 1e7, 1e-9), (4, 4, 1.0, 1e7, 1e-9), (5, 2, 1e-3, 1e4, 1e-9),
])
def test_kalman_gains_match_the_scipy_dare(n, ny, q, r, rtol):
    # the information form works in n whatever ny is; the oracle is the
    # dual DARE P = A P A' + Qn - A P C' (C P C' + Rn)^-1 C P A'
    # with Qn = q I and Rn = r I
    rng = np.random.default_rng(40 + ny)
    A = rng.standard_normal((6, n, n))
    A *= rng.uniform(0.5, 1.2, (6, 1, 1)) / np.abs(np.linalg.eigvals(A)).max(axis=1)[:, None, None]
    C = rng.standard_normal((6, ny, n))
    L, errors = linalg._kalman_gains(A, C, *linalg._noise_weights(q, r))
    assert errors == [None] * 6
    Qn, Rn = q * np.eye(n), r * np.eye(ny)
    for i in range(6):
        P = scipy.linalg.solve_discrete_are(A[i].T, C[i].T, Qn, Rn)
        ref = np.linalg.solve(C[i] @ P @ C[i].T + Rn, C[i] @ P @ A[i].T).T
        assert_allclose(L[i], ref, rtol=rtol, atol=rtol * np.abs(ref).max())
        assert_allclose(_kalman_gain(A[i], C[i], q, r), L[i], rtol=1e-12,
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
    (np.inf, 1.0, "Qn must be finite"),
    (1.0, 0.0, "Rn must be positive definite"),
    (1.0, -np.inf, "Rn must be finite"),
    # the weights are scalars: a matrix is refused whatever it holds
    pytest.param(np.diag([1.0, -1e-3]), 1.0, r"Qn must be a scalar, got shape \(2, 2\)",
                 id="Qn indefinite"),
    pytest.param(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1.0,
                 r"Qn must be a scalar, got shape \(2, 2\)", id="Qn with NaN"),
    pytest.param(np.eye(3), 1.0, r"Qn must be a scalar, got shape \(3, 3\)", id="Qn eye(3)"),
    pytest.param(1.0, np.eye(2), r"Rn must be a scalar, got shape \(2, 2\)", id="Rn eye(2)"),
    pytest.param(1.0, np.array([[1.0, 2.0], [2.0, 1.0]]),
                 r"Rn must be a scalar, got shape \(2, 2\)", id="Rn indefinite"),
    pytest.param(1.0, np.array([[2.0]]), r"Rn must be a scalar, got shape \(1, 1\)",
                 id="Rn [[2]]"),
])
def test_dare_refuses_bad_covariances(Qn, Rn, message):
    with pytest.raises(ValueError, match=message):
        _kalman_gain(0.5 * np.eye(2), np.eye(2), Qn, Rn)


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
    return DtStateSpace(L.A, L.B, -L.C, -L.D, L.Ts)


def _bisect_root(f, lo, hi, flo, tol):
    """Root of scalar f by bisection; flo is f(lo), sign change assumed."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _loop_margins_reference(L, feedback_sign):
    """Loop margins from a 2401-point log grid over (1e-6, 1) * Nyquist with
    every sign change bisected to 1e-4 rad of omega*Ts, written as plain
    loops over the intervals; the loop closes as
    signal = feedback_sign * L(signal).  The grid never reaches omega = 0."""
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
        r = response(_bisect_root(lambda w: response(w).imag,
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
        crossings.append(_bisect_root(lambda w: math.log(max(abs(response(w)), 1e-300)),
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


def _pendulum_margin_loops():
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    pend = search_realisations(Gs, Ks, form="predictor", rank_by="noise")
    return [(r.choice.state_feedback_set, margin_loop(r, Gs, 0)) for r, _ in pend.ranked]


def _realised_margin_loops():
    sat = search_realisations(satellite_plant(), add_dipole(satellite_controller(), W=50.0),
                              form="filter", rank_by="product")
    return ([(r.choice.state_feedback_set, margin_loop(r, satellite_plant(), 0))
             for r, _ in sat.ranked[:4]] + _pendulum_margin_loops())


# The grid starts at 1e-6 of Nyquist and misses this row's crossing at
# omega = 0, L(1) = -0.972 in the -1 convention, which sets its gain margin.
_DC_CROSSING_ROW = (2, 3, 4, 5)


def test_margins_match_the_grid_oracle_on_realised_loops():
    rows = _realised_margin_loops()
    assert len(rows) == 7 and _DC_CROSSING_ROW in dict(rows)
    for S, L in rows:
        for sign, loop in ((1, L), (-1, _negated(L))):
            m, ref = loop_margins(loop), _loop_margins_reference(L, sign)
            if (S, sign) != (_DC_CROSSING_ROW, 1):
                assert_allclose(m.gain_margin, ref.gain_margin, rtol=1e-9)
                assert m.phase_crossing_found == ref.phase_crossing_found
            assert m.unity_crossing_found and ref.unity_crossing_found
            w_ts = m.crossover_frequency * L.Ts
            assert_allclose(abs(loop.freq_response(w_ts)[0, 0, 0]), 1.0, rtol=1e-9)
            assert abs(w_ts - ref.crossover_frequency * L.Ts) <= 1e-4


def test_gain_margin_includes_the_dc_crossing_the_grid_missed():
    L = dict(_pendulum_margin_loops())[_DC_CROSSING_ROW]
    m = loop_margins(L)
    assert_allclose(m.gain_margin, 1.0285, rtol=1e-4)
    assert_allclose(_loop_margins_reference(L, 1).gain_margin, 1.1162, rtol=1e-4)
    # closing signal = k L(signal) (D = 0): the loop turns unstable at k = gm
    assert not L.D.any()
    assert spectral_radius(L.A + 0.99 * m.gain_margin * L.B @ L.C) < 1.0
    assert spectral_radius(L.A + 1.01 * m.gain_margin * L.B @ L.C) > 1.0


def _interior_phase_crossing_loops():
    """Loops whose gain margin is set strictly between omega = 0 and pi:
    L = -0.5 z^-2 (crossing at omega*Ts = pi/2, gain margin 2) and
    L = -0.5 z^-1 / (z - 0.5), a lag behind a one-step delay."""
    double_delay = DtStateSpace([[0.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]], [[0.0, -0.5]],
                                [[0.0]], 1.0)
    delayed_lag = DtStateSpace([[0.5, 0.0], [1.0, 0.0]], [[1.0], [0.0]], [[0.0, -0.5]],
                               [[0.0]], 1.0)
    return double_delay, delayed_lag


@pytest.mark.parametrize("L", _interior_phase_crossing_loops(), ids=["z^-2", "delayed lag"])
def test_gain_margin_includes_an_interior_phase_crossing(L):
    m = loop_margins(L)
    assert m.phase_crossing_found
    assert_allclose(m.gain_margin, _loop_margins_reference(L, 1).gain_margin, rtol=1e-6)
    # closing signal = k L(signal) (D = 0): the loop turns unstable at k = gm
    assert spectral_radius(L.A + 0.99 * m.gain_margin * L.B @ L.C) < 1.0
    assert spectral_radius(L.A + 1.01 * m.gain_margin * L.B @ L.C) > 1.0


def test_margins_skip_a_pole_the_input_never_drives():
    # the lag of test_margins_first_order_lag beside an observable but
    # undriven triple integrator at z = 1, in rotated bases: z = 1 is a
    # pole of the realisation, not of L, and G evaluated there is round-off
    lag = loop_margins(_negated(DtStateSpace([[0.5]], [[1.0]], [[0.75]], [[0.0]], 1.0)))
    J = np.array([[1.0, 0.1, 0.005], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]])
    A = np.block([[np.array([[0.5]]), np.zeros((1, 3))], [np.zeros((3, 1)), J]])
    B, C = np.array([[1.0], [0.0], [0.0], [0.0]]), np.array([[-0.75, 0.8, 0.8, 0.8]])
    for seed in range(8):
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        m = loop_margins(DtStateSpace(Q.T @ A @ Q, Q.T @ B, C @ Q, [[0.0]], 1.0))
        assert_allclose([m.gain_margin, m.phase_margin, m.delay_margin, m.crossover_frequency],
                        [lag.gain_margin, lag.phase_margin, lag.delay_margin,
                         lag.crossover_frequency], rtol=1e-9)


def _lightly_damped_loop(zeta, w0=1.0, Ts=0.1, peak=1.5):
    """-L is w0^2 / (s^2 + 2 zeta w0 s + w0^2), ZOH-discretised and scaled
    to a peak |L| of ``peak`` (located on a 1e-8 rad/s grid)."""
    A_c = np.array([[0.0, 1.0], [-w0 ** 2, -2.0 * zeta * w0]])
    G = c2d_zoh(CtStateSpace(A_c, [[0.0], [1.0]], [[w0 ** 2, 0.0]], [[0.0]]), Ts)
    w = np.linspace(w0 - 1e-3, w0 + 1e-3, 200001)
    scale = peak / np.abs(G.freq_response(w * Ts)[:, 0, 0]).max()
    return DtStateSpace(G.A, G.B, -scale * G.C, G.D, Ts)


def test_margins_find_the_crossings_of_a_lightly_damped_loop():
    # |L| > 1 only on [0.999888, 1.000112] rad/s, 2.2e-4 wide against the
    # grid's 5.8e-3 step there: the grid finds no unity crossing
    L = _lightly_damped_loop(1e-4)
    assert not _loop_margins_reference(L, 1).unity_crossing_found
    m = loop_margins(L)
    assert m.unity_crossing_found
    assert 0.999888 <= m.crossover_frequency <= 1.000112
    # oracle: a 1e-7 rad/s scan over the band, every sign change of
    # log|L| bisected to 1e-13 rad/s, the least delay headroom kept
    Ts = L.Ts
    log_mag = lambda w: math.log(abs(L.freq_response(w * Ts)[0, 0, 0]))
    grid = np.linspace(0.9995, 1.0005, 10001)
    f = np.log(np.abs(L.freq_response(grid * Ts)[:, 0, 0]))
    best = (math.inf, math.nan)
    for i in np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]:
        w_c = _bisect_root(log_mag, grid[i], grid[i + 1], f[i], 1e-13)
        r = complex(-L.freq_response(w_c * Ts)[0, 0, 0])
        pm = (math.atan2(r.imag, r.real) + math.pi) % (2.0 * math.pi)
        best = min(best, (pm / (w_c * Ts), pm))
    assert math.isfinite(best[0])
    assert_allclose(m.phase_margin, best[1], rtol=1e-9)
    assert_allclose(m.delay_margin, best[0], rtol=1e-9)


def test_margins_of_an_all_pass_or_output_free_loop_are_a_numerical_error():
    # |z^-1| = 1 at every frequency: the unity-crossing pencil is singular
    with pytest.raises(NumericalError, match=r"unity-crossing pencil is singular: \|L\| = 1"):
        loop_margins(DtStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]], 1.0))
    # L = 0.3 + 0 z^-1: its dynamics never reach the output, so L is real everywhere
    with pytest.raises(NumericalError, match="phase-crossing pencil is singular: L is real"):
        loop_margins(DtStateSpace([[0.5]], [[1.0]], [[0.0]], [[0.3]], 1.0))
