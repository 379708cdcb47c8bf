"""Output checks: every check counts toward ``attempted``, every failed
check or exception toward ``failed``.

The reference values were recorded by ``record_reference.py`` at the
commit that introduced the benchmark; a later change must reproduce them
(ranked tables to 1e-9 relative, applied inputs to 1e-9 of their scale).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Checks:
    """Counts attempted and failed checks; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)
        return bool(ok)

    def fail(self, what):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def exception(self, where, exc):
        self.attempted += 1
        self.fail(f"{where}: {type(exc).__name__}: {exc}")


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * abs(b)


def ranked_rows(result, top=None):
    """(S, h2_noise, h2_dist, product) rows of a SearchResult, in rank order."""
    return [(list(r.choice.state_feedback_set), s.h2_noise, s.h2_dist, s.product)
            for r, s in result.ranked[:top]]


def check_top_rows(checks, label, rows, ref_rows):
    """Ranked S-sets identical and scores within 1e-9 relative of the reference."""
    if not checks.check(len(rows) == len(ref_rows),
                        f"{label}: {len(rows)} ranked rows, reference has {len(ref_rows)}"):
        return
    for k, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        s, noise, dist, prod = row
        r_s, r_noise, r_dist, r_prod = ref
        checks.check(list(s) == list(r_s),
                     f"{label}: rank {k} S={list(s)}, reference S={r_s}")
        checks.check(close(noise, r_noise) and close(dist, r_dist) and close(prod, r_prod),
                     f"{label}: rank {k} scores ({noise!r}, {dist!r}, {prod!r}) differ "
                     f"from the reference ({r_noise!r}, {r_dist!r}, {r_prod!r})")


def check_inputs(checks, label, u_applied, ref_u):
    ref = np.asarray(ref_u, float)
    u = np.asarray(u_applied, float)
    if not checks.check(u.shape == ref.shape,
                        f"{label}: applied inputs have shape {u.shape}, reference {ref.shape}"):
        return
    scale = max(float(np.max(np.abs(ref), initial=0.0)), 1e-300)
    err = float(np.max(np.abs(u - ref), initial=0.0))
    checks.check(err <= REL_TOL * scale,
                 f"{label}: applied inputs differ from the reference by {err:.3e} "
                 f"(scale {scale:.3e})")


def kkt_violation(H, f, A, b, sol):
    """Empty string when ``sol`` meets the KKT conditions of its own QP,
    otherwise a description of the first violated condition.

    Tolerances follow the solver's own test suite: stationarity 1e-7
    relative to ||f||, primal feasibility 1e-8, multipliers >= -1e-9,
    complementarity 1e-8 relative to the multiplier.
    """
    H = np.atleast_2d(np.asarray(H, float))
    f = np.asarray(f, float).ravel()
    x = np.asarray(sol.x_star, float)
    grad = H @ x + f
    if A is not None and np.size(A):
        A = np.atleast_2d(np.asarray(A, float))
        b = np.asarray(b, float).ravel()
        act = list(sol.active_set)
        lam = np.zeros(0) if sol.multipliers is None else np.asarray(sol.multipliers, float)
        if lam.size != len(act):
            return f"{lam.size} multipliers for {len(act)} active constraints"
        if act:
            grad = grad + A[act].T @ lam
        slack = A @ x - b
        if np.any(slack > 1e-8):
            return f"primal infeasibility {float(np.max(slack)):.3e}"
        if np.any(lam < -1e-9):
            return f"negative multiplier {float(np.min(lam)):.3e}"
        for i, lam_i in zip(act, lam):
            if abs(lam_i * slack[i]) > 1e-8 * (1.0 + abs(lam_i)):
                return f"complementarity {abs(lam_i * slack[i]):.3e} at row {i}"
    if np.linalg.norm(grad) > 1e-7 * (1.0 + np.linalg.norm(f)):
        return f"stationarity residual {np.linalg.norm(grad):.3e}"
    return ""
