"""Built-in example models.

Three families live here: a satellite attitude-control loop with redundant
torque pairs and a constant-disturbance state, an inverted pendulum on a
cart with a two-channel lead-lag stabiliser, and a synthetic
block-structured plant/controller pair large enough to exercise the
realisation search at scale.  ``CASE_STUDIES`` states, once, how each of
the first two is built, conditioned, realised and ranked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statespace import (
    CtStateSpace,
    DtStateSpace,
    add_dipole,
    augment_disturbances,
    c2d_tustin,
    c2d_zoh,
)
from .statespace import loop_shift as _loop_shift

__all__ = [
    "SATELLITE_TS",
    "PENDULUM_TS",
    "satellite_plant_ct",
    "satellite_plant",
    "satellite_controller",
    "PendulumParams",
    "pendulum_plant_ct",
    "pendulum_plant",
    "pendulum_controller_ct",
    "pendulum_controller",
    "CaseStudy",
    "CASE_STUDIES",
    "condition_loop",
    "scale_surrogate",
]

SATELLITE_TS = 0.25
PENDULUM_TS = 0.1

_DEG = 180.0 / np.pi


def satellite_plant_ct() -> CtStateSpace:
    """Rigid satellite with two redundant torque pairs.

    States are attitude angle in degrees and rate in deg/s; both inputs are
    torques in N m acting through the same 500 kg m^2 inertia; the single
    output is the angle converted back to radians.
    """
    k = _DEG / 500.0
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [k, k]])
    C = np.array([[1.0 / _DEG, 0.0]])
    D = np.zeros((1, 2))
    return CtStateSpace(A, B, C, D)


def satellite_plant() -> DtStateSpace:
    """Discrete satellite design model with a constant-torque disturbance state.

    ZOH discretisation of :func:`satellite_plant_ct` at SATELLITE_TS, with
    one integrator state, marked in ``disturbance_states``, modelling a
    constant unknown torque entering like the first input.
    """
    G = c2d_zoh(satellite_plant_ct(), SATELLITE_TS)
    return augment_disturbances(G, [0])


def satellite_controller() -> DtStateSpace:
    """Baseline satellite attitude controller (2 states, discrete at SATELLITE_TS).

    Only the first torque pair is driven; the second output row is zero.
    The controller has a pole at exactly z = 1 for integral action, so the
    loop rejects constant torque disturbances.  Coefficients are stated to
    more decimals than usually quoted for this example; the extra digits
    pin the closed-loop pole locations the validation suite checks.
    """
    r = 0.41177  # the non-integrating controller pole
    A = np.array([[1.0 + r, -2.0 * r], [0.5, 0.0]])
    B = np.array([[32.0], [0.0]])
    C = np.array([[13.0135, -26.142], [0.0, 0.0]])
    D = np.array([[-871.14], [0.0]])
    return DtStateSpace(A, B, C, D, SATELLITE_TS)


@dataclass(frozen=True)
class PendulumParams:
    """Cart-pendulum physical constants (SI units)."""

    cart_mass: float = 0.5
    pend_mass: float = 0.5
    length: float = 1.0
    gravity: float = 9.81


def pendulum_plant_ct() -> CtStateSpace:
    """Inverted pendulum on a cart, linearised about the upright position.

    States: cart position, cart velocity, pendulum angle, angular rate.
    Input: horizontal force on the cart.  Outputs: position and angle.
    """
    p = PendulumParams()
    m, M, l, g = p.pend_mass, p.cart_mass, p.length, p.gravity
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -m * g / M, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, (M + m) * g / (M * l), 0.0],
        ]
    )
    B = np.array([[0.0], [1.0 / M], [0.0], [-1.0 / (M * l)]])
    C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    D = np.zeros((2, 1))
    return CtStateSpace(A, B, C, D)


def pendulum_plant() -> DtStateSpace:
    """ZOH discretisation of :func:`pendulum_plant_ct` at PENDULUM_TS."""
    return c2d_zoh(pendulum_plant_ct(), PENDULUM_TS)


def pendulum_controller_ct() -> CtStateSpace:
    """Continuous pendulum stabiliser, one lead-lag channel per output.

    Transfer function [4(s+0.2)/(s+5), 150(s+4)/(s+30)], wired with
    positive feedback on (y - reference).  One state per channel; the
    coordinates put a power-of-two times the channel bandwidth into B so
    that the Ts=0.1 bilinear discretisation comes out with well-scaled
    round-number matrices.
    """
    A = np.diag([-5.0, -30.0])
    B = np.diag([40.0, 640.0])
    C = np.array([[-0.48, -6.09375]])
    D = np.array([[4.0, 150.0]])
    return CtStateSpace(A, B, C, D)


def pendulum_controller() -> DtStateSpace:
    """Bilinear discretisation of :func:`pendulum_controller_ct` at PENDULUM_TS."""
    return c2d_tustin(pendulum_controller_ct(), PENDULUM_TS)


def condition_loop(G: DtStateSpace, K: DtStateSpace, dipole_W=None,
                   loop_shift: bool = False):
    """Condition the loop (G, K) for realisation: (K_base, G_d, K_d).

    K_base is the controller the baseline runs against the true plant: K
    with a W = ``dipole_W`` dipole ahead of it (zero gain at z = 0, as the
    filter form needs), or K itself when ``dipole_W`` is None.  (G_d, K_d)
    is the design pair the search realises: (G, K_base), or with
    ``loop_shift`` the pair with K's feedthrough moved into the plant (as
    the predictor form needs).
    Raises ValueError when both are asked for.
    """
    if loop_shift and dipole_W is not None:
        raise ValueError("choose either loop_shift or dipole_W, not both")
    if dipole_W is not None:
        K = add_dipole(K, W=float(dipole_W))
    return (K, *_loop_shift(G, K)) if loop_shift else (K, G, K)


@dataclass(frozen=True)
class CaseStudy:
    """One built-in case study, from the baseline loop to its ranking.

    ``plant``/``controller`` build the discrete loop at ``Ts``; their
    continuous sources are discretised by ZOH (plant) and Tustin
    (controller), and a controller without one is discrete by design.
    The loop is conditioned by ``dipole_W`` or ``loop_shift`` (see
    :func:`condition_loop`), realised in ``form``, ranked by ``rank_by``,
    and its report's loop margins are cut on input ``margin_cut``.
    Constructors, not systems: the table does no numerics until asked.
    """

    plant: Callable[[], DtStateSpace]
    controller: Callable[[], DtStateSpace]
    plant_ct: Callable[[], CtStateSpace]
    controller_ct: Callable[[], CtStateSpace] | None
    Ts: float
    dipole_W: float | None
    loop_shift: bool
    form: str
    rank_by: str
    margin_cut: int

    def loop(self):
        """(G, K_base, G_d, K_d): the plant and :func:`condition_loop`."""
        G = self.plant()
        return (G, *condition_loop(G, self.controller(), self.dipole_W, self.loop_shift))


CASE_STUDIES = {
    "satellite": CaseStudy(
        satellite_plant, satellite_controller, satellite_plant_ct, None, SATELLITE_TS,
        dipole_W=50.0, loop_shift=False, form="filter", rank_by="product", margin_cut=0),
    "pendulum": CaseStudy(
        pendulum_plant, pendulum_controller, pendulum_plant_ct, pendulum_controller_ct,
        PENDULUM_TS, dipole_W=None, loop_shift=True, form="predictor", rank_by="noise",
        margin_cut=0),
}


def _place_1_2(a: float, poles: np.ndarray):
    """Controller (2 states) for scalar plant x+ = a x + u, y = x.

    Places the three closed-loop poles at ``poles`` (real or one conjugate
    pair plus a real).  Returns (A_K, B_K, C_K) of the strictly proper
    controller; derivation is a direct characteristic-polynomial match.
    """
    c = np.poly(poles)  # z^3 + c[1] z^2 + c[2] z + c[3]
    p = -c[1] - a
    s = a * p - c[2]
    t = -c[3]
    A_K = np.array([[p, 0.0], [1.0, 0.0]])
    B_K = np.array([[1.0], [0.0]])
    C_K = np.array([[s, t]])
    return A_K, B_K, C_K


def _place_1_1(a: float, poles: np.ndarray):
    """Controller (1 state) for scalar plant x+ = a x + u, y = x."""
    c = np.poly(poles)  # z^2 + c[1] z + c[2]
    p = -c[1] - a
    s = a * p - c[2]
    return np.array([[p]]), np.array([[1.0]]), np.array([[s]])


def scale_surrogate(seed: int = 0):
    """Synthetic 21-state plant with a 17-state strictly proper controller.

    Built from eleven SISO blocks (six with 2-state controllers, five with
    1-state controllers) plus ten stable real modes that are observable but
    uncontrollable, then weakly cross-coupled so the closed-loop
    eigenvectors are not block-localised.  The closed-loop spectrum has, by
    construction, 10 uncontrollable reals, 10 free reals and 9 conjugate
    pairs, all well separated.

    Returns
    -------
    (plant, controller) : tuple of DtStateSpace
        Ts = 1 on both; the controller stabilises the plant.
    """
    rng = np.random.default_rng(seed)

    pairs = [
        (0.88, 0.35),
        (0.82, 0.60),
        (0.74, 0.90),
        (0.66, 1.20),
        (0.58, 1.50),
        (0.50, 1.90),
        (0.42, 2.20),
        (0.34, 2.50),
        (0.26, 2.80),
    ]
    pair_poles = [r * np.exp(1j * th) for r, th in pairs]
    free_reals = [0.91, 0.84, 0.77, 0.69, 0.61, 0.53, 0.45, 0.37, 0.29, 0.21]
    unc_reals = [0.93, 0.865, 0.795, 0.725, 0.655, 0.585, 0.515, 0.445, 0.375, 0.305]

    plant_a = rng.uniform(-0.5, 0.5, size=11)

    blocks = []
    # six (1-state plant, 2-state controller) blocks: pair + real each
    for i in range(6):
        lam = np.array([pair_poles[i], np.conj(pair_poles[i]), free_reals[i]])
        blocks.append(("A", plant_a[i], lam))
    # three (1, 1) blocks carrying the remaining pairs
    for i in range(3):
        lam = np.array([pair_poles[6 + i], np.conj(pair_poles[6 + i])])
        blocks.append(("B", plant_a[6 + i], lam))
    # two (1, 1) blocks carrying two reals each
    blocks.append(("B", plant_a[9], np.array(free_reals[6:8])))
    blocks.append(("B", plant_a[10], np.array(free_reals[8:10])))

    n_ctrl_plant = 11
    n_unc = 10
    n = n_ctrl_plant + n_unc
    A = np.zeros((n, n))
    B = np.zeros((n, 11))
    C = np.zeros((11, n))

    AK_blocks, BK_blocks, CK_blocks = [], [], []
    for idx, (kind, a, lam) in enumerate(blocks):
        A[idx, idx] = a
        B[idx, idx] = 1.0
        C[idx, idx] = 1.0
        if kind == "A":
            AK, BK, CK = _place_1_2(a, lam)
        else:
            AK, BK, CK = _place_1_1(a, lam)
        AK_blocks.append(AK)
        BK_blocks.append(BK)
        CK_blocks.append(CK)

    for j, lam in enumerate(unc_reals):
        A[n_ctrl_plant + j, n_ctrl_plant + j] = lam
    # uncontrollable modes feed the controllable dynamics and the outputs
    A[:n_ctrl_plant, n_ctrl_plant:] = 0.05 * rng.standard_normal((11, n_unc))
    C[:, n_ctrl_plant:] = 0.3 * rng.standard_normal((11, n_unc))
    # weak coupling between the controllable blocks
    mix = 2e-3 * rng.standard_normal((11, 11))
    np.fill_diagonal(mix, 0.0)
    A[:n_ctrl_plant, :n_ctrl_plant] += mix

    n_K = sum(blk.shape[0] for blk in AK_blocks)
    A_K = np.zeros((n_K, n_K))
    B_K = np.zeros((n_K, 11))
    C_K = np.zeros((11, n_K))
    pos = 0
    for idx, (AK, BK, CK) in enumerate(zip(AK_blocks, BK_blocks, CK_blocks)):
        w = AK.shape[0]
        A_K[pos : pos + w, pos : pos + w] = AK
        B_K[pos : pos + w, idx : idx + 1] = BK
        C_K[idx : idx + 1, pos : pos + w] = CK
        pos += w

    plant = DtStateSpace(A, B, C, np.zeros((11, 11)), 1.0)
    controller = DtStateSpace(A_K, B_K, C_K, np.zeros((11, 11)), 1.0)

    A_cl = np.block([[A, B @ C_K], [B_K @ C, A_K]])
    vals = np.linalg.eigvals(A_cl)
    if np.max(np.abs(vals)) >= 0.985:
        raise RuntimeError("surrogate construction produced a marginal closed loop")
    n_real = int(np.sum(np.abs(vals.imag) < 1e-7))
    if n_real != 20:
        raise RuntimeError(
            f"surrogate spectrum has {n_real} real closed-loop poles, expected 20"
        )
    return plant, controller
