"""State-space system containers and model transformations.

Everything here is plain dense numpy. Systems are immutable value objects;
all transformations return new systems.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def _as_matrix(M, rows=None, cols=None, name="matrix"):
    """M as a checked, read-only float copy of at least two dimensions."""
    M = np.array(M, dtype=float, ndmin=2)
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ValueError(f"{name}: expected {cols} cols, got {M.shape[1]}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries")
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class _StateSpace:
    """Matrices (A, B, C, D), validated and stored as read-only copies:
    finite float arrays that no edit of the caller's arrays reaches."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError("A must be square")
        B = _as_matrix(self.B, rows=n, name="B")
        C = _as_matrix(self.C, cols=n, name="C")
        D = _as_matrix(self.D, rows=C.shape[0], cols=B.shape[1], name="D")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class CtStateSpace(_StateSpace):
    """Continuous-time state-space model (A, B, C, D)."""


@dataclass(frozen=True)
class DtStateSpace(_StateSpace):
    """Discrete-time state-space model (A, B, C, D) with sample time Ts."""

    Ts: float = 1.0
    # optional bookkeeping: indices of states that model constant disturbances
    # (set by augment_disturbances, used by realisation scoring)
    disturbance_states: tuple = field(default=())
    # the n_u x n_y controller feedthrough absorbed into A (set by loop_shift,
    # read by the MPC prediction, the prefilter and the simulation's wiring)
    D_K: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        _check_Ts(self.Ts)
        object.__setattr__(self, "disturbance_states", tuple(self.disturbance_states))
        if self.D_K is not None:
            object.__setattr__(self, "D_K", _as_matrix(self.D_K, self.n_u, self.n_y, "D_K"))

    def freq_response(self, w_ts):
        """Evaluate the transfer matrix at z = exp(j*w*Ts).

        Parameters
        ----------
        w_ts : array of digital frequencies omega*Ts in radians.

        Returns
        -------
        Array of shape (len(w_ts), n_y, n_u), complex.

        The whole grid is one stacked ``solve`` of (zI - A) X = B.
        """
        z = np.exp(1j * np.atleast_1d(np.asarray(w_ts, dtype=float)))
        return self.C @ np.linalg.solve(z[:, None, None] * np.eye(self.n) - self.A,
                                        self.B) + self.D


def _check_Ts(Ts):
    if not 0 < Ts < math.inf:  # NaN fails too
        raise ValueError(f"Ts must be positive and finite, not {Ts}")


def c2d_zoh(sys, Ts):
    """Zero-order-hold discretisation via the augmented matrix exponential.

    Builds expm([[A, B], [0, 0]]*Ts); the top blocks are the exact discrete
    (A_d, B_d) for piecewise-constant inputs. C and D carry over.
    """
    from scipy.linalg import expm  # local: the realisation search never discretises

    _check_Ts(Ts)
    n, m = sys.n, sys.n_u
    M = np.zeros((n + m, n + m))
    M[:n, :n] = sys.A * Ts
    M[:n, n:] = sys.B * Ts
    E = expm(M)
    Ad = E[:n, :n]
    Bd = E[:n, n:]
    return DtStateSpace(Ad, Bd, sys.C.copy(), sys.D.copy(), Ts)


def c2d_tustin(sys, Ts):
    """Bilinear (Tustin) transform s -> (2/Ts)(z-1)/(z+1).

    The resulting discrete system matches the continuous frequency response
    exactly at omega = 0. Raises if I - (Ts/2)A is singular.
    """
    _check_Ts(Ts)
    n = sys.n
    I = np.eye(n)
    M = I - (Ts / 2.0) * sys.A
    # guard: the transform needs M invertible
    if n > 0 and np.linalg.cond(M) > 1e14:
        raise ValueError("Tustin transform undefined: I - (Ts/2)A singular")
    Minv = np.linalg.inv(M) if n > 0 else np.zeros((0, 0))
    Ad = Minv @ (I + (Ts / 2.0) * sys.A)
    Bd = Minv @ sys.B * Ts
    Cd = sys.C @ Minv
    Dd = sys.D + (Ts / 2.0) * (sys.C @ Minv @ sys.B)
    return DtStateSpace(Ad, Bd, Cd, Dd, Ts)


def series(first, second):
    """Cascade: output of `first` feeds the input of `second` (second*first)."""
    if first.n_y != second.n_u:
        raise ValueError("series: dimension mismatch")
    if isinstance(first, DtStateSpace) != isinstance(second, DtStateSpace):
        raise ValueError("series: mixed continuous/discrete")
    A = np.block([
        [first.A, np.zeros((first.n, second.n))],
        [second.B @ first.C, second.A],
    ])
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    D = second.D @ first.D
    if isinstance(first, DtStateSpace):
        if abs(first.Ts - second.Ts) > 1e-12:
            raise ValueError("series: sample times differ")
        return DtStateSpace(A, B, C, D, first.Ts)
    return CtStateSpace(A, B, C, D)


def add_dipole(K, W=50.0):
    """Insert a near-cancelling pole/zero pair W*z/(W*z - 1) on each input channel.

    Forces the controller to have zero gain at z = 0 while leaving the
    response in the working band nearly unchanged for large W. The scalar
    cell (a, b, c, d) = (1/W, 1, 1/W, 1) realises z/(z - 1/W).
    """
    if not 10 <= W < math.inf:  # NaN fails too
        raise ValueError(f"dipole W must be finite and at least 10, not {W}")
    ny = K.n_u  # controller inputs = measured outputs
    a = 1.0 / W
    # diag of scalar dipoles ahead of the controller input
    Ad = a * np.eye(ny)
    Bd = np.eye(ny)
    Cd = a * np.eye(ny)
    Dd = np.eye(ny)
    dip = DtStateSpace(Ad, Bd, Cd, Dd, K.Ts)
    return series(dip, K)


def loop_shift(G, K):
    """Absorb the controller feedthrough D_K into the plant model.

    Returns (G_shifted, K_strictly_proper). The pair, rewired so the plant
    input receives the extra D_K*y term, has the same closed loop as (G, K)
    under positive feedback u = K(y).  G_shifted records D_K as its own
    ``D_K``: driven by u = u_K - D_K r + D_K y, its state sees the
    setpoint r through -B D_K, which the MPC prediction, the reference
    prefilter and ``sim.simulate`` read from it.  Refused (ValueError): a
    plant with any nonzero D, which the shift would drop, and one that
    already records a D_K, which it would overwrite.
    """
    if np.any(G.D != 0.0):
        raise ValueError("loop_shift expects a strictly proper plant")
    if G.D_K is not None:
        raise ValueError("the plant is already loop-shifted: it records a D_K")
    Dk = K.D
    At = G.A + G.B @ Dk @ G.C
    Gt = DtStateSpace(At, G.B.copy(), G.C.copy(), np.zeros_like(G.D), G.Ts,
                      disturbance_states=G.disturbance_states, D_K=Dk)
    Kt = DtStateSpace(K.A.copy(), K.B.copy(), K.C.copy(), np.zeros_like(K.D), K.Ts)
    return Gt, Kt


def augment_disturbances(G, channels):
    """Add constant-disturbance states that enter like selected inputs.

    Parameters
    ----------
    G : DtStateSpace
    channels : list of input indices.
        Each entry i adds one integrator state whose value enters the
        state update through the i-th column of B, a disturbance entering
        like that actuator; an entry that is a bool, not an integer or
        names no input raises ValueError, and so does a loop-shifted G,
        whose recorded D_K the augmented model would drop.

    The augmented (C, A) pair must stay observable, otherwise the estimator
    design downstream is ill-posed and this raises.
    """
    channels = list(channels)
    if not channels:
        return G
    if G.D_K is not None:
        raise ValueError("augment the disturbances before the loop shift, not after")
    n = G.n
    for ch in channels:
        if isinstance(ch, bool) or not isinstance(ch, numbers.Integral):
            raise ValueError(f"disturbance channel {ch!r} is not an integer")
        if not 0 <= ch < G.n_u:
            raise ValueError(f"disturbance channel {ch} names no input of n_u = {G.n_u}")
    E = G.B[:, channels]
    nd = E.shape[1]
    A = np.block([
        [G.A, E],
        [np.zeros((nd, n)), np.eye(nd)],
    ])
    B = np.vstack([G.B, np.zeros((nd, G.n_u))])
    C = np.hstack([G.C, np.zeros((G.n_y, nd))])
    aug = DtStateSpace(A, B, C, G.D.copy(), G.Ts,
                       disturbance_states=tuple(range(n, n + nd)))
    modes = np.linalg.eigvals(aug.A)
    bad = unobservable_modes(aug.A, aug.C, modes)
    if bad:
        raise ValueError(
            f"disturbance augmentation loses observability at mode {modes[bad[0]]:.6g}")
    return aug


def unobservable_modes(A, C, values=None) -> list:
    """PBH test: indices i at which [values[i] I - A; C] loses column rank.

    ``values`` defaults to the eigenvalues of A, so the result names the
    unobservable modes of (C, A); by duality ``unobservable_modes(A.T, B.T)``
    names the uncontrollable modes of (A, B).  Rank loss means a smallest
    singular value at most 1e-8 max(||A||, 1).
    """
    if values is None:
        values = np.linalg.eigvals(A)
    I = np.eye(A.shape[0])
    tol = 1e-8 * max(np.linalg.norm(A), 1.0)
    return [i for i, lam in enumerate(values)
            if np.linalg.svd(np.vstack([lam * I - A, C]), compute_uv=False)[-1] <= tol]
