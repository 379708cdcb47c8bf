import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from lti2mpc import statespace
from lti2mpc.linalg import spectral_radius
from lti2mpc.realisation import closed_loop_matrix
from lti2mpc.statespace import (
    CtStateSpace,
    DtStateSpace,
    add_dipole,
    augment_disturbances,
    c2d_tustin,
    c2d_zoh,
    loop_shift,
    series,
    unobservable_modes,
)


def _random_ct(rng, n, n_u, n_y, decay=1.0):
    A = rng.standard_normal((n, n)) - decay * np.eye(n)
    return CtStateSpace(A, rng.standard_normal((n, n_u)),
                        rng.standard_normal((n_y, n)), rng.standard_normal((n_y, n_u)))


def _random_dt(rng, n, n_u, n_y, rho=0.9, strictly_proper=False):
    A = rng.standard_normal((n, n))
    A *= rho / max(spectral_radius(A), 1e-9)
    D = np.zeros((n_y, n_u)) if strictly_proper else rng.standard_normal((n_y, n_u))
    return DtStateSpace(A, rng.standard_normal((n, n_u)), rng.standard_normal((n_y, n)), D, 1.0)


def test_zoh_double_integrator():
    ct = CtStateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    d = c2d_zoh(ct, 0.25)
    assert_allclose(d.A, [[1.0, 0.25], [0.0, 1.0]], atol=1e-14)
    assert_allclose(d.B, [[0.03125], [0.25]], atol=1e-14)
    assert_allclose(d.C, ct.C, atol=1e-15)
    assert d.Ts == 0.25


def test_zoh_matches_matrix_exponential_series():
    rng = np.random.default_rng(5)
    Ts = 0.1
    for _ in range(10):
        ct = _random_ct(rng, 4, 2, 2)
        d = c2d_zoh(ct, Ts)
        assert_allclose(d.A, expm(ct.A * Ts), rtol=1e-10, atol=1e-12)
        # B integral by fine quadrature
        from scipy.integrate import simpson
        taus = np.linspace(0.0, Ts, 2001)
        vals = np.stack([expm(ct.A * t) @ ct.B for t in taus])
        Bd = simpson(vals, x=taus, axis=0)
        assert_allclose(d.B, Bd, rtol=1e-8, atol=1e-10)


def test_tustin_preserves_dc_gain():
    rng = np.random.default_rng(6)
    for _ in range(10):
        ct = _random_ct(rng, 3, 2, 2, decay=2.0)
        d = c2d_tustin(ct, 0.05)
        dc_ct = ct.D - ct.C @ np.linalg.solve(ct.A, ct.B)
        dc_dt = d.freq_response(np.array([0.0]))[0].real
        assert_allclose(dc_dt, dc_ct, rtol=1e-9, atol=1e-11)


def test_tustin_frequency_mapping():
    """The bilinear map sends the continuous response at (2/Ts)tan(w Ts/2)
    to the discrete response at w, exactly, for every frequency."""
    rng = np.random.default_rng(8)
    Ts = 0.2
    ct = _random_ct(rng, 4, 1, 1, decay=1.5)
    d = c2d_tustin(ct, Ts)
    for w_ts in (0.01, 0.4, 1.2, 2.5):
        omega_c = (2.0 / Ts) * np.tan(w_ts / 2.0)
        z = np.exp(1j * w_ts)
        Gd = d.freq_response(np.array([w_ts]))[0]
        Gc = ct.C @ np.linalg.solve(1j * omega_c * np.eye(4) - ct.A, ct.B) + ct.D
        assert_allclose(Gd, Gc, rtol=1e-9, atol=1e-11)


def test_series_composes_frequency_responses():
    rng = np.random.default_rng(9)
    g1 = _random_dt(rng, 3, 2, 3)
    g2 = _random_dt(rng, 2, 3, 1)
    s = series(g1, g2)
    assert s.n == 5 and s.n_u == 2 and s.n_y == 1
    w = np.array([0.0, 0.7, 2.0])
    R = s.freq_response(w)
    R1 = g1.freq_response(w)
    R2 = g2.freq_response(w)
    for i in range(len(w)):
        assert_allclose(R[i], R2[i] @ R1[i], rtol=1e-9, atol=1e-11)


def _freq_response_per_point(sys, w_ts):
    """Reference: one solve of (zI - A) X = B per frequency."""
    w_ts = np.atleast_1d(np.asarray(w_ts, dtype=float))
    out = np.empty((w_ts.size, sys.n_y, sys.n_u), dtype=complex)
    for i, wt in enumerate(w_ts):
        if sys.n == 0:
            out[i] = sys.D
        else:
            z = np.exp(1j * wt)
            out[i] = sys.C @ np.linalg.solve(z * np.eye(sys.n) - sys.A, sys.B) + sys.D
    return out


@pytest.mark.parametrize("n, n_u, n_y, w_ts", [
    (0, 2, 3, np.linspace(0.0, np.pi, 7)),           # static gain
    (4, 1, 1, 0.3),                                  # scalar frequency
    (5, 2, 3, np.linspace(1e-3, np.pi, 40)),         # MIMO
    # 600 points: three chunks, the last one partial
    (6, 1, 1, np.logspace(-4, np.log10(np.pi), 2 * statespace._FREQ_CHUNK + 88)),
])
def test_freq_response_matches_a_per_point_solve(n, n_u, n_y, w_ts):
    rng = np.random.default_rng(n)
    if n == 0:
        sys = DtStateSpace(np.zeros((0, 0)), np.zeros((0, n_u)), np.zeros((n_y, 0)),
                           rng.standard_normal((n_y, n_u)), 1.0)
    else:
        sys = _random_dt(rng, n, n_u, n_y)
    got = sys.freq_response(w_ts)
    ref = _freq_response_per_point(sys, w_ts)
    assert got.shape == ref.shape == (np.size(w_ts), n_y, n_u)
    assert got.dtype == complex
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_dipole_blocks_constant_inputs_but_keeps_the_band():
    rng = np.random.default_rng(12)
    for _ in range(5):
        K = _random_dt(rng, 3, 1, 2, rho=0.8)
        K1 = add_dipole(K, W=50.0)
        assert K1.n == K.n + 1
        # exact transmission zero at the origin: the static value vanishes
        k0 = K1.D + K1.C @ np.linalg.solve(-K1.A, K1.B)
        scale = max(np.max(np.abs(K.freq_response(np.array([0.0]))[0])), 1.0)
        assert np.max(np.abs(k0)) <= 1e-10 * scale
        # inside the working band the response moves by O(1/W)
        w = np.linspace(0.1, np.pi, 40)
        R0 = K.freq_response(w)
        R1 = K1.freq_response(w)
        dev = np.max(np.abs(R1 - R0)) / max(np.max(np.abs(R0)), 1e-12)
        assert dev <= 3.0 / 50.0


def test_dipole_cell_gain_at_band_edges():
    # the cell is z/(z - 1/W): ratio W/(W-1) at z = 1, W/(W+1) at z = -1
    K = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.2]], 1.0)
    K1 = add_dipole(K, W=50.0)
    for w, expected in ((0.0, 50.0 / 49.0), (np.pi, 50.0 / 51.0)):
        wa = np.array([w])
        ratio = K1.freq_response(wa)[0, 0, 0] / K.freq_response(wa)[0, 0, 0]
        assert_allclose(ratio, expected, rtol=1e-9)


def test_dipole_rejects_small_w():
    K = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError):
        add_dipole(K, W=5.0)
    for W in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"dipole W must be finite and at least 10, not {W}"):
            add_dipole(K, W=W)


def test_loop_shift_preserves_closed_loop_poles():
    """Moving the controller feedthrough into the plant leaves the loop
    untouched: same closed-loop spectrum, strictly proper controller."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        G = _random_dt(rng, 4, 2, 2, rho=0.7, strictly_proper=True)
        K = _random_dt(rng, 2, 2, 2, rho=0.6)
        K = DtStateSpace(K.A, 0.1 * K.B, 0.1 * K.C, 0.1 * K.D, K.Ts)
        Gs, Ks = loop_shift(G, K)
        assert np.all(Ks.D == 0.0)
        p0 = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(G, K)))
        p1 = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(Gs, Ks)))
        assert_allclose(p0, p1, atol=1e-9)


def test_augment_disturbances_records_states():
    G = DtStateSpace([[1.0, 0.25], [0.0, 1.0]], [[0.03125], [0.25]], [[1.0, 0.0]], [[0.0]], 0.25)
    Ga = augment_disturbances(G, [0])
    assert Ga.n == 3
    assert Ga.disturbance_states == (2,)
    # the disturbance integrates into the plant through the named column
    assert_allclose(Ga.A[:2, 2], G.B[:, 0], atol=1e-14)
    assert_allclose(Ga.A[2, :], [0.0, 0.0, 1.0], atol=1e-14)
    assert unobservable_modes(Ga.A, Ga.C) == []


def test_augment_disturbances_rejects_unobservable_growth():
    # two constant disturbances entering the same equation cannot be told
    # apart from one output: the augmented pair is unobservable
    G = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError):
        augment_disturbances(G, [0, 0])


@pytest.mark.parametrize("channel", [1, -1])
def test_augment_disturbances_refuses_a_channel_that_is_not_an_input(channel):
    G = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError, match="names no input of n_u = 1"):
        augment_disturbances(G, [channel])


@pytest.mark.parametrize("channel", [0.7, True, np.float64(0.0), "0"])
def test_augment_disturbances_refuses_a_channel_that_is_not_an_integer(channel):
    G = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError, match=re.escape(f"disturbance channel {channel!r} is not")):
        augment_disturbances(G, [channel])
    assert augment_disturbances(G, [np.int64(0)]).disturbance_states == (1,)


def test_augment_disturbances_refuses_a_loop_shifted_plant():
    G = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    K = DtStateSpace([[0.2]], [[1.0]], [[0.1]], [[0.3]], 1.0)
    with pytest.raises(ValueError, match="before the loop shift"):
        augment_disturbances(loop_shift(G, K)[0], [0])


def test_a_recorded_feedthrough_must_be_n_u_by_n_y():
    with pytest.raises(ValueError, match="D_K: expected 1 rows, got 2"):
        DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0, D_K=np.zeros((2, 1)))


def test_uncontrollable_modes_of_diagonal_pair():
    sys = DtStateSpace(np.diag([0.5, 0.9]), [[1.0], [0.0]], np.eye(2), np.zeros((2, 1)), 1.0)
    lam = np.linalg.eigvals(sys.A)
    bad = unobservable_modes(sys.A.T, sys.B.T, lam)  # PBH duality
    assert len(bad) == 1
    assert_allclose(lam[bad[0]], 0.9, atol=1e-10)
    # C = I observes every mode
    assert unobservable_modes(sys.A, sys.C) == []


@pytest.mark.parametrize("cls, extra", [(CtStateSpace, ()), (DtStateSpace, (0.5,))])
def test_state_space_validation_is_shared_and_the_kinds_stay_apart(cls, extra):
    sys_ = cls([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], *extra)
    assert (sys_.n, sys_.n_u, sys_.n_y) == (2, 1, 1)
    assert sys_.A.dtype == float
    with pytest.raises(ValueError, match="square"):
        cls(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)), *extra)
    with pytest.raises(ValueError, match="B: expected 2 rows"):
        cls(np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)), *extra)
    with pytest.raises(ValueError, match="D: expected 1 cols"):
        cls(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 2)), *extra)
    with pytest.raises(ValueError, match="non-finite"):
        cls([[np.nan]], [[1.0]], [[1.0]], [[0.0]], *extra)
    other = DtStateSpace if cls is CtStateSpace else CtStateSpace
    assert not isinstance(sys_, other)


def test_discrete_sample_time_must_be_positive_and_kinds_do_not_mix():
    with pytest.raises(ValueError, match="Ts"):
        DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 0.0)
    ct = CtStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    for Ts in (np.inf, np.nan):
        message = f"Ts must be positive and finite, not {Ts}"
        for make in (lambda: DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], Ts),
                     lambda: c2d_zoh(ct, Ts), lambda: c2d_tustin(ct, Ts)):
            with pytest.raises(ValueError, match=message):
                make()
    dt = DtStateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError, match="mixed"):
        series(ct, dt)
