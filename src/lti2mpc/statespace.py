"""State-space system containers and model transformations.

Everything here is plain dense numpy. Systems are immutable value objects;
all transformations return new systems.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

# frequencies per stacked solve in DtStateSpace.freq_response
_FREQ_CHUNK = 256


def _as_matrix(M, rows=None, cols=None, name="matrix"):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ValueError(f"{name}: expected {cols} cols, got {M.shape[1]}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries")
    return M


@dataclass(frozen=True)
class _StateSpace:
    """Matrices (A, B, C, D), validated and stored as finite float arrays."""

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

    def __post_init__(self):
        super().__post_init__()
        if not self.Ts > 0:
            raise ValueError("Ts must be positive")
        object.__setattr__(self, "disturbance_states", tuple(self.disturbance_states))

    def freq_response(self, w_ts):
        """Evaluate the transfer matrix at z = exp(j*w*Ts).

        Parameters
        ----------
        w_ts : array of digital frequencies omega*Ts in radians.

        Returns
        -------
        Array of shape (len(w_ts), n_y, n_u), complex.

        The grid is solved _FREQ_CHUNK frequencies at a time, as one stacked
        ``solve`` of (zI - A) X = B per chunk, which bounds the memory of a
        long grid.
        """
        w_ts = np.atleast_1d(np.asarray(w_ts, dtype=float))
        out = np.empty((w_ts.size, self.n_y, self.n_u), dtype=complex)
        if self.n == 0:
            out[:] = self.D
            return out
        I = np.eye(self.n)
        for s in range(0, w_ts.size, _FREQ_CHUNK):
            z = np.exp(1j * w_ts[s:s + _FREQ_CHUNK])
            out[s:s + _FREQ_CHUNK] = self.C @ np.linalg.solve(
                z[:, None, None] * I - self.A, self.B) + self.D
        return out

    def is_strictly_proper(self, tol=0.0):
        return np.max(np.abs(self.D)) <= tol

    def poles(self):
        if self.n == 0:
            return np.array([], dtype=complex)
        return np.linalg.eigvals(self.A)


def c2d_zoh(sys, Ts):
    """Zero-order-hold discretisation via the augmented matrix exponential.

    Builds expm([[A, B], [0, 0]]*Ts); the top blocks are the exact discrete
    (A_d, B_d) for piecewise-constant inputs. C and D carry over.
    """
    if Ts <= 0:
        raise ValueError("Ts must be positive")
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
    if Ts <= 0:
        raise ValueError("Ts must be positive")
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


def feedback(G, K, sign=-1):
    """Close the loop u = sign * K(y) around plant G.

    Returns the closed-loop system from an input injected at the plant input
    to the plant output. Raises on an ill-posed algebraic loop.
    """
    if G.n_y != K.n_u or G.n_u != K.n_y:
        raise ValueError("feedback: dimension mismatch")
    Dg, Dk = G.D, K.D
    n_u = G.n_u
    W = np.eye(n_u) - sign * (Dk @ Dg)
    if np.linalg.cond(W) > 1e12:
        raise ValueError("feedback: ill-posed algebraic loop")
    Winv = np.linalg.inv(W)
    # u = sign*K y + v, y = C_g x_g + D_g u
    Sg = sign * Winv
    A = np.block([
        [G.A + G.B @ Sg @ Dk @ G.C, G.B @ Sg @ K.C],
        [K.B @ (G.C + Dg @ Sg @ Dk @ G.C), K.A + K.B @ Dg @ Sg @ K.C],
    ])
    B = np.vstack([G.B @ (np.eye(n_u) + Sg @ Dk @ Dg), K.B @ Dg @ (np.eye(n_u) + Sg @ Dk @ Dg)])
    C = np.hstack([G.C + Dg @ Sg @ Dk @ G.C, Dg @ Sg @ K.C])
    D = Dg @ (np.eye(n_u) + Sg @ Dk @ Dg)
    if isinstance(G, DtStateSpace):
        return DtStateSpace(A, B, C, D, G.Ts)
    return CtStateSpace(A, B, C, D)


def add_dipole(K, W=50.0):
    """Insert a near-cancelling pole/zero pair W*z/(W*z - 1) on each input channel.

    Forces the controller to have zero gain at z = 0 while leaving the
    response in the working band nearly unchanged for large W. The scalar
    cell (a, b, c, d) = (1/W, 1, 1/W, 1) realises z/(z - 1/W).
    """
    if W < 10:
        raise ValueError("dipole W must be at least 10")
    ny = K.n_u  # controller inputs = measured outputs
    a = 1.0 / W
    # diag of scalar dipoles ahead of the controller input
    Ad = a * np.eye(ny)
    Bd = np.eye(ny)
    Cd = a * np.eye(ny)
    Dd = np.eye(ny)
    dip = DtStateSpace(Ad, Bd, Cd, Dd, K.Ts)
    return series(dip, K)


def add_unit_delay(K):
    """Append a one-sample delay to every controller output, making it strictly proper."""
    n, nu = K.n, K.n_u
    ny_out = K.C.shape[0]
    A = np.block([
        [K.A, np.zeros((n, ny_out))],
        [K.C, np.zeros((ny_out, ny_out))],
    ])
    B = np.vstack([K.B, K.D])
    C = np.hstack([np.zeros((ny_out, n)), np.eye(ny_out)])
    D = np.zeros((ny_out, nu))
    return DtStateSpace(A, B, C, D, K.Ts)


def loop_shift(G, K):
    """Absorb the controller feedthrough D_K into the plant model.

    Returns (G_shifted, K_strictly_proper). The pair, rewired so the plant
    input receives the extra D_K*y term, has the same closed loop as (G, K)
    under positive feedback u = K(y).
    """
    if not np.allclose(G.D, 0):
        raise ValueError("loop_shift expects a strictly proper plant")
    Dk = K.D
    At = G.A + G.B @ Dk @ G.C
    Gt = DtStateSpace(At, G.B.copy(), G.C.copy(), np.zeros_like(G.D), G.Ts,
                      disturbance_states=G.disturbance_states)
    Kt = DtStateSpace(K.A.copy(), K.B.copy(), K.C.copy(), np.zeros_like(K.D), K.Ts)
    return Gt, Kt


def augment_disturbances(G, channels):
    """Add constant-disturbance states feeding selected state equations.

    Parameters
    ----------
    G : DtStateSpace
    channels : list of column vectors (length n) or state indices.
        Each entry adds one integrator state whose value enters the state
        update through the given direction. An int i is shorthand for the
        i-th column of B summed over inputs, which is the common case of a
        disturbance entering like an actuator.

    The augmented (C, A) pair must stay observable, otherwise the estimator
    design downstream is ill-posed and this raises.
    """
    channels = list(channels)
    if not channels:
        return G
    n = G.n
    cols = []
    for ch in channels:
        if np.isscalar(ch):
            cols.append(G.B[:, int(ch)])
        else:
            v = np.asarray(ch, dtype=float).reshape(n)
            cols.append(v)
    E = np.column_stack(cols)
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
