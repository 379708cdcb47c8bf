#!/usr/bin/env python3
"""Tour the condensed quadratic programme behind the controller.

A double integrator with a hand-picked feedback gain makes the numbers
easy to follow.  The script condenses the horizon of that gain's
matching cost, which is zero along the feedback law: the decisions are
the inputs themselves, and the cost's state-input cross terms sit in the
Hessian.  The
unconstrained first input reproduces the feedback law.  The script then
tightens an input bound step by step to show the active set growing while
the first applied input walks away from the unconstrained feedback law.
"""

import numpy as np

from lti2mpc.mpc import MpcConfig, build_condensed_qp
from lti2mpc.qp import solve_qp
from lti2mpc.statespace import DtStateSpace


def main():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    K_c = np.array([[-0.8, -1.4]])  # deadbeat-ish state feedback
    G = DtStateSpace(A, B, np.eye(2), np.zeros((2, 1)), 0.1)
    x0 = np.array([1.0, 0.0])

    print("== the condensed optimisation ==")
    qp = build_condensed_qp(G, K_c, MpcConfig(N=20))
    sol = solve_qp(qp.H, qp.f(x0))
    print(f"cond(H) = {np.linalg.cond(qp.H):9.2e}, "
          f"u(0) = {qp.input_sequence(sol.x_star)[0, 0]: .6f}")
    print(f"unconstrained feedback law gives  u(0) = {float((K_c @ x0)[0]): .6f}")

    print("\n== tightening an input bound ==")
    obj_free = sol.objective
    print(f"{'bound':>7} {'status':>9} {'iters':>6} {'active':>7} "
          f"{'u(0)':>9} {'deviation cost':>15}")
    for bound in (1.0, 0.6, 0.4, 0.2, 0.1, 0.05):
        cfg = MpcConfig(N=20, u_bounds=(np.array([-bound]), np.array([bound])))
        qp = build_condensed_qp(G, K_c, cfg)
        sol = solve_qp(qp.H, qp.f(x0), qp.A_ineq, qp.b(x0))
        u = qp.input_sequence(sol.x_star)
        print(f"{bound:7.2f} {sol.status:>9} {sol.iterations:6d} "
              f"{len(sol.active_set):7d} {u[0, 0]:9.5f} "
              f"{sol.objective - obj_free:15.6f}")

    print("\nthe deviation cost (objective above its unconstrained optimum) "
          "is zero while\nthe bound is slack and grows as the bound bites; "
          "multipliers stay nonnegative\n(dual feasibility) at every step.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
