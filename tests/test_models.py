"""Regression checks for the two worked plant/controller pairs and the
large random pair used for scale testing.  The numbers asserted here are
the pinned model data; downstream tests build on them."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lti2mpc.linalg import spectral_radius
from lti2mpc.models import (
    CASE_STUDIES,
    PENDULUM_TS,
    SATELLITE_TS,
    pendulum_controller,
    pendulum_controller_ct,
    pendulum_plant,
    pendulum_plant_ct,
    satellite_controller,
    satellite_plant,
    condition_loop,
    scale_surrogate,
)
from lti2mpc.realisation import closed_loop_matrix
from lti2mpc.statespace import add_dipole, loop_shift, unobservable_modes


def _sorted(vals):
    return np.sort_complex(np.asarray(vals, dtype=complex))


def test_satellite_plant_entries():
    G = satellite_plant()
    k = (180.0 / np.pi) / 500.0
    assert G.n == 3 and G.n_u == 2 and G.n_y == 1
    assert G.disturbance_states == (2,)
    col = np.array([k * SATELLITE_TS**2 / 2.0, k * SATELLITE_TS])
    assert_allclose(G.A[:, 0], [1.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(G.A[:2, 1], [SATELLITE_TS, 1.0], atol=1e-14)
    assert_allclose(G.A[:2, 2], col, rtol=1e-12)          # 0.003581, 0.028648
    assert_allclose(G.B, np.column_stack([np.r_[col, 0.0]] * 2), rtol=1e-12)
    assert_allclose(G.C, [[np.pi / 180.0, 0.0, 0.0]], rtol=1e-12)


def test_satellite_controller_data():
    K = satellite_controller()
    assert_allclose(K.A, [[1.41177, -0.82354], [0.5, 0.0]], atol=1e-12)
    assert_allclose(K.B, [[32.0], [0.0]], atol=1e-14)
    assert_allclose(K.C, [[13.0135, -26.142], [0.0, 0.0]], atol=1e-12)
    assert_allclose(K.D, [[-871.14], [0.0]], atol=1e-12)
    # integrating action plus one fast pole
    assert_allclose(_sorted(np.linalg.eigvals(K.A)), [0.41177, 1.0], atol=1e-10)
    # zeros of the active output channel sit just inside the unit circle
    z = np.linalg.eigvals(K.A - K.B @ (K.C[:1] / K.D[0, 0]))
    assert_allclose(np.sort(z.real), [0.9145, 0.9753], atol=1.5e-3)
    assert np.max(np.abs(z.imag)) < 1e-10


def test_satellite_closed_loop_poles():
    G = satellite_plant()
    K = add_dipole(satellite_controller(), W=50.0)
    got = _sorted(np.linalg.eigvals(closed_loop_matrix(G, K)))
    want = _sorted([1.0, 0.9764, 0.9086 + 0.1204j, 0.9086 - 0.1204j, 0.5660, 0.0177])
    assert_allclose(got, want, atol=1e-3)


def test_pendulum_plant_linearisation():
    ct = pendulum_plant_ct()
    assert_allclose(ct.A, [[0.0, 1.0, 0.0, 0.0],
                           [0.0, 0.0, -9.81, 0.0],
                           [0.0, 0.0, 0.0, 1.0],
                           [0.0, 0.0, 19.62, 0.0]], atol=1e-12)
    assert_allclose(ct.B.ravel(), [0.0, 2.0, 0.0, -2.0], atol=1e-12)
    assert_allclose(ct.C, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], atol=1e-14)
    ev = np.sort(np.linalg.eigvals(ct.A).real)
    assert_allclose(ev, [-np.sqrt(19.62), 0.0, 0.0, np.sqrt(19.62)], atol=1e-9)
    G = pendulum_plant()
    assert G.Ts == PENDULUM_TS and G.n == 4


def test_pendulum_controller_discretises_exactly():
    ct = pendulum_controller_ct()
    assert_allclose(ct.A, np.diag([-5.0, -30.0]), atol=1e-14)
    K = pendulum_controller()
    assert_allclose(K.A, np.diag([0.6, -0.2]), atol=1e-12)
    assert_allclose(K.B, np.diag([3.2, 25.6]), atol=1e-12)
    assert_allclose(K.C, [[-0.384, -2.4375]], atol=1e-12)
    assert_allclose(K.D, [[3.232, 72.0]], atol=1e-12)


def test_pendulum_closed_loop_poles():
    got = _sorted(np.linalg.eigvals(closed_loop_matrix(pendulum_plant(), pendulum_controller())))
    want = _sorted([0.2416 + 0.5304j, 0.2416 - 0.5304j,
                    0.7828 + 0.0635j, 0.7828 - 0.0635j, 0.8805, 0.9708])
    assert_allclose(got, want, atol=1e-3)


def test_scale_surrogate_shape():
    G, K = scale_surrogate(seed=0)
    assert G.n == 21 and K.n == 17
    assert G.n_u == 11 and G.n_y == 11
    assert np.all(K.D == 0.0)
    A_cl = closed_loop_matrix(G, K)
    B_cl = np.vstack([G.B, np.zeros((K.n, G.n_u))])  # the plant input, as the search builds it
    ev = np.linalg.eigvals(A_cl)
    assert spectral_radius(A_cl) < 0.985
    assert np.sum(np.abs(ev.imag) < 1e-9) == 20
    assert len(unobservable_modes(A_cl.T, B_cl.T)) == 10  # uncontrollable modes


def _same(a, b):
    for m in "ABCD":
        np.testing.assert_array_equal(getattr(a, m), getattr(b, m))
    assert a.Ts == b.Ts


def test_case_studies_condition_their_loops_as_the_table_says():
    G, K_base, G_d, K_d = CASE_STUDIES["satellite"].loop()
    _same(G, satellite_plant())
    _same(K_base, add_dipole(satellite_controller(), W=50.0))
    assert G_d is G and K_d is K_base
    G, K_base, G_d, K_d = CASE_STUDIES["pendulum"].loop()
    _same(K_base, pendulum_controller())
    for a, b in zip((G_d, K_d), loop_shift(pendulum_plant(), pendulum_controller())):
        _same(a, b)
    for name, case in CASE_STUDIES.items():
        assert case.plant().Ts == case.controller().Ts == case.Ts, name
    with pytest.raises(ValueError, match="not both"):
        condition_loop(G, K_base, dipole_W=50.0, loop_shift=True)
