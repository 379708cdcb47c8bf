"""Acceptance sweep: thirteen numbered end-to-end checks.

Every test prints one ``criterion NN PASS/FAIL`` line with the measured
figures and asserts both the figures and its runtime budget.  Twelve of
the thirteen pass.

Criterion 5 checks the Kalman replacement observer poles of every
pendulum realisation against an independent oracle: scipy's null-space
basis and DARE solver applied to the reduced pair that
``_Search.free_pole_gains`` documents.  Two reference rows also agree within
5 %; the third lists the realisation's own retained pair, which the
Kalman design cannot produce, so that row is not pinned.

Criterion 3 is red on purpose.  Its splits, ranking, margins, best choice
and three of four disturbance norms match the reference table.  The
reference noise norms are about 30.24 times the measured ones (29.95 for
(0, 4, 5)), so every noise and product clause fails, and the (0, 1, 5)
disturbance norm is 3.6 % out.  The (1, 4, 5) noise entry was corrected
from 89.05, a copy of that row's product, to 29.78 = 89.0512 / 2.99.  The
gap can only be settled by the report's definitions of the noise and
disturbance H2 maps; fitting a scale factor would be a guess.  The
failure message carries the measured values.
"""

import time

import numpy as np
import numpy.testing as npt
from scipy.linalg import block_diag, null_space, solve_discrete_are
from scipy.optimize import linear_sum_assignment

from conftest import brute_force_qp, condensation_gaps
from lti2mpc.linalg import loop_margins, spectral_radius
from lti2mpc.models import (
    pendulum_controller,
    pendulum_plant,
    satellite_controller,
    satellite_plant,
    scale_surrogate,
)
from lti2mpc.mpc import MpcConfig, build_condensed_qp, matching_cost
from lti2mpc.qp import solve_qp
from lti2mpc.realisation import (
    check_decoupling,
    closed_loop_matrix,
    margin_loop,
    riccati_residual,
    search_realisations,
)
from lti2mpc.sim import (
    BaselineController,
    MpcController,
    Scenario,
    scenario_library,
    simulate,
)
from lti2mpc.statespace import DtStateSpace, add_dipole, loop_shift


def _report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _rel(measured, expected):
    return abs(measured - expected) / abs(expected)


def _match(got, want):
    """Pair each pole in ``want`` with its own pole in ``got``, one to one.

    Returns the indices of ``got`` used (in the order of ``want``) and the
    largest relative gap of the pairing that minimises the summed distance.
    """
    got = np.asarray(got, complex)
    want = np.asarray(want, complex)
    rows, cols = linear_sum_assignment(np.abs(want[:, None] - got[None, :]))
    gap = float(np.max(np.abs(got[cols] - want[rows]) / np.abs(want[rows])))
    return cols, gap


def _kalman_predictor_poles(G, K, T, Qn, Rn):
    """Free observer poles recomputed with scipy, apart from the package.

    The reduced pair is A_red = T_perp' (A + B D_K C) T_perp and
    C_red = B_K C T_perp on an orthonormal null-space basis of T; its
    steady-state Kalman predictor gain comes from scipy's DARE solver.
    With Qn a multiple of the identity the poles do not depend on which
    orthonormal basis spans the null space.
    """
    Tp = null_space(T)
    A_red = Tp.T @ (G.A + G.B @ K.D @ G.C) @ Tp
    C_red = K.B @ G.C @ Tp
    Q = Qn * np.eye(A_red.shape[0])
    R = Rn * np.eye(C_red.shape[0])
    P = solve_discrete_are(A_red.T, C_red.T, Q, R)
    L = A_red @ P @ C_red.T @ np.linalg.inv(C_red @ P @ C_red.T + R)
    return np.linalg.eigvals(A_red - L @ C_red)


# ---------------------------------------------------------------------------
# 1. satellite discretisation entries


def test_criterion_01_satellite_discretisation_entries():
    t0 = time.perf_counter()
    G = satellite_plant()
    got = [G.A[0, 1], G.A[0, 2], G.A[1, 2], G.C[0, 0]]
    want = [0.25, 0.00358, 0.02865, 0.01745]
    elapsed = time.perf_counter() - t0
    _report(1, True, f"entries {[f'{v:.5g}' for v in got]} vs {want}, "
            f"{elapsed:.2f} s")
    npt.assert_allclose(got, want, rtol=2e-3)  # three significant figures
    npt.assert_allclose(G.B[:2, 0], want[1:3], rtol=2e-3)
    npt.assert_allclose(G.B[:, 0], G.B[:, 1], rtol=1e-12)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. closed-loop poles once the dipole is inserted


def test_criterion_02_satellite_closed_loop_poles():
    t0 = time.perf_counter()
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    got = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(G, K1)))
    want = np.sort_complex(np.array(
        [1.0, 0.9764, 0.9086 + 0.1204j, 0.9086 - 0.1204j, 0.5660, 0.0177]))
    elapsed = time.perf_counter() - t0
    _report(2, True, f"poles match to {np.max(np.abs(got - want)):.2e}, "
            f"{elapsed:.2f} s")
    npt.assert_allclose(got, want, atol=1e-3)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. satellite realisation table


def test_criterion_03_satellite_realisation_table():
    t0 = time.perf_counter()
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    res = search_realisations(G, K1, form="filter", rank_by="product")
    rows = {tuple(r.choice.state_feedback_set): s for r, s in res.ranked}
    # reference row figures: noise, disturbance, product, gain margin,
    # delay margin (samples), keyed by the selected eigenvalue indices
    reference = {
        (2, 3, 5): (29.95, 5.03, 150.5319, 11.67, 4.36),
        (0, 1, 5): (12.31, 5.59, 68.7844, 1.66, 0.51),
        (0, 4, 5): (18.89, 3.17, 59.8672, 2.01, 0.98),
        # noise 29.78 = product / disturbance = 89.0512 / 2.99, not 89.05
        (1, 4, 5): (29.78, 2.99, 89.0512, 4.42, 2.83),
    }
    failures = []

    if len(res.ranked) != 4 or set(rows) != set(reference):
        failures.append(f"expected the 4 reference splits, got {sorted(rows)}")

    measured = {}
    for r, s in res.ranked:
        m = loop_margins(margin_loop(r, G, 0))
        measured[r.choice.state_feedback_set] = (s.h2_noise, s.h2_dist, s.product,
                                                 m.gain_margin, m.delay_margin)
    for S, ref in reference.items():
        s = measured.get(S)
        if s is None:
            continue
        if _rel(s[0], ref[0]) > 0.01:
            failures.append(
                f"S={S}: noise norm {s[0]:.4f} is outside 1% of {ref[0]}")
        if _rel(s[1], ref[1]) > 0.01:
            failures.append(
                f"S={S}: disturbance norm {s[1]:.4f} is outside 1% of {ref[1]}")
        if _rel(s[2], ref[2]) > 0.01:
            failures.append(
                f"S={S}: product {s[2]:.4f} is outside 1% of {ref[2]}")
        if _rel(s[3], ref[3]) > 0.01:
            failures.append(
                f"S={S}: gain margin {s[3]:.3f} is outside 1% of {ref[3]}")
        if _rel(s[4], ref[4]) > 0.02:
            failures.append(
                f"S={S}: delay margin {s[4]:.3f} is outside 2% of {ref[4]}")

    first = tuple(res.ranked[0][0].choice.state_feedback_set)
    if first != (0, 4, 5):
        failures.append(f"product ranking picked {first}, not (0, 4, 5)")

    elapsed = time.perf_counter() - t0
    order = [tuple(r.choice.state_feedback_set) for r, _ in res.ranked]
    _report(3, not failures,
            f"{len(res.ranked)} feasible, ranking {order}, "
            f"{len(failures)} clause(s) failed, {elapsed:.1f} s")
    assert elapsed < 10.0
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 4. pendulum controller bilinear discretisation


def test_criterion_04_pendulum_controller_discretisation():
    t0 = time.perf_counter()
    K = pendulum_controller()
    got = [K.A[0, 0], K.A[1, 1], K.B[0, 0], K.B[1, 1],
           K.C[0, 0], K.C[0, 1], K.D[0, 0], K.D[0, 1]]
    want = [0.6, -0.2, 3.2, 25.6, -0.384, -2.438, 3.232, 72.0]
    elapsed = time.perf_counter() - t0
    _report(4, True, f"worst entry gap "
            f"{max(abs(g - w) for g, w in zip(got, want)):.2e}, "
            f"{elapsed:.2f} s")
    npt.assert_allclose(got, want, atol=1e-3)
    npt.assert_allclose([K.A[0, 1], K.A[1, 0], K.B[0, 1], K.B[1, 0]],
                        0.0, atol=1e-14)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 5. pendulum realisation enumeration


def test_criterion_05_pendulum_realisations():
    t0 = time.perf_counter()
    Gs, Ks = loop_shift(pendulum_plant(), pendulum_controller())
    res = search_realisations(Gs, Ks, form="predictor", rank_by="noise",
                              Qn=1.0, Rn=1e7)
    failures = []
    if len(res.ranked) != 3:
        failures.append(f"expected 3 feasible realisations, got {len(res.ranked)}")

    # reference split of the six closed-loop poles into the state-feedback
    # set, keyed by the eventual noise norm of that realisation
    pair_a = [0.2416 - 0.5304j, 0.2416 + 0.5304j]
    pair_b = [0.7832 - 0.0630j, 0.7832 + 0.0630j]
    reals = [0.8800, 0.9708]
    reference = {
        19.61: np.sort_complex(np.array(pair_a + pair_b)),
        3.62: np.sort_complex(np.array(pair_b + reals)),
        6.59: np.sort_complex(np.array(pair_a + reals)),
    }
    evals = np.linalg.eigvals(closed_loop_matrix(Gs, Ks))
    order = np.lexsort((evals.imag.round(12), evals.real.round(12)))
    evals = evals[order]

    # reference replacement poles, keyed the same way.  The noise-3.62 row
    # of the reference lists 0.242 +/- 0.530j, which is that realisation's
    # own retained observer pair (0.2416 +/- 0.5304j, its O set) to three
    # digits: it would give the error dynamics a repeated pair, which the
    # Kalman design cannot place there, and no Rn from 1e-6 to 1e9 at
    # Qn = 1 brings the replacement pair within 90 % of it.  That row is
    # therefore not pinned; the scipy oracle below checks all three rows.
    new_ref = {
        19.61: np.sort_complex(np.array([0.354 - 0.624j, 0.354 + 0.624j])),
        6.59: np.sort_complex(np.array([0.515 - 0.763j, 0.515 + 0.763j])),
    }

    new_gaps = {}
    oracle_gaps = {}
    for r, score in res.ranked:
        got = np.sort_complex(evals[list(r.choice.state_feedback_set)])
        hit = [n for n, want in reference.items()
               if got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-3]
        if len(hit) != 1:
            failures.append(f"split {got.round(4)} matches none of the "
                            "reference pole splits to 1e-3")
            continue
        name = hit[0]
        if _rel(score.h2_noise, name) > 0.05:
            failures.append(
                f"noise norm {score.h2_noise:.4f} is outside 5% of {name}")

        # the error dynamics keep the closed-loop poles outside the split
        # (the O set) and add the free poles
        err_poles = np.linalg.eigvals(Gs.A - r.K_f @ Gs.C)
        kept = np.delete(evals, list(r.choice.state_feedback_set))
        used, kept_gap = _match(err_poles, kept)
        if kept_gap > 1e-9:
            failures.append(
                f"retained observer poles {np.sort_complex(kept).round(4)} of "
                f"the noise-{name} realisation are {kept_gap:.1e} from the "
                "error dynamics (outside 1e-9)")
        new = np.sort_complex(np.delete(err_poles, used))

        oracle = _kalman_predictor_poles(Gs, Ks, r.T, 1.0, 1e7)
        _, gap = _match(new, oracle)
        oracle_gaps[name] = gap
        if new.shape != oracle.shape or gap > 1e-9:
            failures.append(
                f"replacement observer poles {new.round(4)} of the "
                f"noise-{name} realisation are {gap:.1e} from the scipy "
                f"Kalman predictor poles {np.sort_complex(oracle).round(4)} "
                "(outside 1e-9)")

        if name in new_ref:
            gap = float(np.max(np.abs(new - new_ref[name])
                               / np.abs(new_ref[name])))
            new_gaps[name] = gap
            if gap > 0.05:
                failures.append(
                    f"replacement observer poles {new.round(4)} of the "
                    f"noise-{name} realisation are {gap:.0%} from the "
                    f"reference {new_ref[name].round(3)} (outside 5%)")

    # the chosen realisation leaves the lightly damped pair to the observer
    best = res.ranked[0][0]
    best_split = np.sort_complex(evals[list(best.choice.state_feedback_set)])
    if np.max(np.abs(best_split - reference[3.62])) > 1e-3:
        failures.append("the lowest-noise realisation does not carry the "
                        f"expected split (got {best_split.round(4)})")

    elapsed = time.perf_counter() - t0
    _report(5, not failures,
            f"{len(res.ranked)} feasible, noise norms "
            f"{[f'{s.h2_noise:.4f}' for _, s in res.ranked]}, replacement "
            f"pole gaps {({k: f'{v:.1%}' for k, v in sorted(new_gaps.items())})}, "
            f"oracle gaps {({k: f'{v:.0e}' for k, v in sorted(oracle_gaps.items())})}, "
            f"{len(failures)} clause(s) failed, {elapsed:.1f} s")
    assert elapsed < 10.0
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 6. unconstrained equivalence across random pairs and both case studies


def _random_loop(rng):
    n = int(rng.integers(2, 11))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    nk = int(rng.integers(1, 3))
    A = rng.normal(size=(n, n))
    A *= 0.9 * rng.uniform(0.4, 1.0) / max(spectral_radius(A), 1e-12)
    G = DtStateSpace(A, rng.normal(size=(n, m)), rng.normal(size=(p, n)),
                     np.zeros((p, m)), 1.0)
    Ak = rng.normal(size=(nk, nk))
    Ak *= 0.8 * rng.uniform(0.3, 1.0) / max(spectral_radius(Ak), 1e-12)
    K = DtStateSpace(Ak, 0.3 * rng.normal(size=(nk, p)),
                     0.3 * rng.normal(size=(m, nk)), np.zeros((m, p)), 1.0)
    return G, K


def _loop_deviation(G, K, real, duration, x0, plant=None, design=None):
    base = simulate(Scenario(name="b", plant=plant if plant is not None else G,
                             duration=duration,
                             controller=BaselineController(K), x0=x0))
    mpc = MpcController(realisation=real,
                        design_model=design if design is not None else G,
                        config=MpcConfig(N=8, cost=matching_cost(real.K_c)))
    test = simulate(Scenario(name="m", plant=plant if plant is not None else G,
                             duration=duration, controller=mpc, x0=x0))
    return max(float(np.max(np.abs(base.u - test.u))),
               float(np.max(np.abs(base.y - test.y))))


def test_criterion_06_unconstrained_equivalence():
    t0 = time.perf_counter()
    worst = 0.0

    # 400 steps of the satellite loop, filter form, no injected lag (the
    # satellite's own model, not the named satellite, which an MPC lags)
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    real = search_realisations(G, K1, form="filter").ranked[0][0]
    dev = _loop_deviation(G, K1, real, 100.0,
                          np.array([0.02, -0.01, 0.0]), plant=satellite_plant())
    worst = max(worst, dev)
    assert dev <= 1e-7

    # 400 steps of the pendulum loop on its linear model, predictor form
    Gp = pendulum_plant()
    K0 = pendulum_controller()
    Gs, Ks = loop_shift(Gp, K0)
    real = search_realisations(Gs, Ks, form="predictor",
                               rank_by="noise").ranked[0][0]
    dev = _loop_deviation(Gs, K0, real, 40.0,
                          np.array([0.05, 0.0, 0.02, 0.0]),
                          plant=Gp, design=Gs)
    worst = max(worst, dev)
    assert dev <= 1e-7

    count = 0
    attempt = 0
    while count < 50:
        assert attempt < 150, "random pair generation stalled"
        rng = np.random.default_rng(6000 + attempt)
        attempt += 1
        Gr, Kr = _random_loop(rng)
        if spectral_radius(closed_loop_matrix(Gr, Kr)) > 0.98:
            continue
        try:
            found = search_realisations(Gr, Kr, form="predictor",
                                        rank_by="noise")
        except Exception:
            continue
        stable = [r for r, s in found.ranked if s.stable]
        if not stable:
            continue
        dev = _loop_deviation(Gr, Kr, stable[0], 400.0,
                              0.5 * rng.normal(size=Gr.n))
        worst = max(worst, dev)
        assert dev <= 1e-7, f"pair seed {6000 + attempt - 1}: deviation {dev:.2e}"
        count += 1

    elapsed = time.perf_counter() - t0
    _report(6, True, f"50 random pairs + both case studies, worst per-step "
            f"deviation {worst:.2e}, {elapsed:.1f} s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. zero-value cost identity and the condensation against plain simulation


def test_criterion_07_zero_value_cost_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7000)
    worst_cost = worst_u0 = worst_gap = 0.0
    for i in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        while True:
            A = rng.normal(size=(n, n))
            A *= 0.9 * rng.uniform(0.3, 1.0) / max(spectral_radius(A), 1e-12)
            B = rng.normal(size=(n, m))
            K_c = 0.3 * rng.normal(size=(m, n))
            if spectral_radius(A + B @ K_c) < 1.05:
                break
        if i % 2:
            M = rng.normal(size=(m, m))
            W = M @ M.T + 0.2 * np.eye(m)
        else:
            W = None
        cost = matching_cost(K_c, W)
        G = DtStateSpace(A, B, np.eye(n), np.zeros((n, m)), 1.0)
        cfg = MpcConfig(N=10, cost=cost)
        qp = build_condensed_qp(G, cfg)
        x0 = rng.normal(size=n)
        ud = qp.input_sequence(solve_qp(qp.H, qp.f(x0)).x_star)

        gap = max(condensation_gaps(G, cfg, qp, x0))
        u0_err = float(np.max(np.abs(ud[0] - K_c @ x0)))
        x = x0.copy()
        total = 0.0
        for k in range(cfg.N):
            u = ud[k]
            total += (x @ cost.Q @ x + 2.0 * x @ cost.S @ u + u @ cost.R @ u)
            x = A @ x + B @ u
        worst_cost = max(worst_cost, abs(total))
        worst_u0 = max(worst_u0, u0_err)
        worst_gap = max(worst_gap, gap)
        assert abs(total) <= 1e-9, f"instance {i}: optimal cost {total:.2e}"
        assert u0_err <= 1e-8, f"instance {i}: first input off by {u0_err:.2e}"
        assert gap <= 1e-9, f"instance {i}: condensation off plain simulation by {gap:.2e}"

    elapsed = time.perf_counter() - t0
    _report(7, True, f"100 instances, worst optimal cost {worst_cost:.1e}, "
            f"worst first-input error {worst_u0:.1e}, worst gap to plain "
            f"simulation {worst_gap:.1e}, {elapsed:.1f} s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 8. QP solver against the exhaustive oracle


def test_criterion_08_qp_solver_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8000)
    worst_obj = worst_x = worst_kkt = 0.0
    for i in range(1000):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        L = rng.normal(size=(d, d))
        H = L @ L.T + (0.1 + rng.uniform()) * np.eye(d)
        f = 2.0 * rng.normal(size=d)
        A = rng.normal(size=(m, d))
        b = A @ rng.normal(size=d) + rng.uniform(0.0, 1.5, size=m)

        sol = solve_qp(H, f, A, b)
        oracle = brute_force_qp(H, f, A, b)
        assert oracle is not None and sol.status == "optimal", f"instance {i}"
        x_o, obj_o = oracle
        obj_err = abs(sol.objective - obj_o)
        x_err = float(np.max(np.abs(sol.x_star - x_o)))
        assert obj_err <= 1e-7, f"instance {i}: objective gap {obj_err:.2e}"
        assert x_err <= 1e-7, f"instance {i}: minimiser gap {x_err:.2e}"

        lam = np.zeros(m)
        for k, j in enumerate(sol.active_set):
            lam[j] = sol.multipliers[k]
        slack = A @ sol.x_star - b
        stat = float(np.max(np.abs(H @ sol.x_star + f + A.T @ lam)))
        assert stat <= 1e-7 * (1.0 + float(np.max(np.abs(f)))), f"instance {i}"
        assert float(np.max(slack)) <= 1e-8 * (1.0 + float(np.max(np.abs(b))))
        assert float(np.min(lam, initial=0.0)) >= -1e-9
        assert float(np.max(np.abs(lam * slack))) <= 1e-7 * (1.0 + abs(obj_o))
        worst_obj = max(worst_obj, obj_err)
        worst_x = max(worst_x, x_err)
        worst_kkt = max(worst_kkt, stat)

    elapsed = time.perf_counter() - t0
    _report(8, True, f"1000 problems, worst objective gap {worst_obj:.1e}, "
            f"worst minimiser gap {worst_x:.1e}, worst stationarity "
            f"{worst_kkt:.1e}, {elapsed:.1f} s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 9. constrained satellite run preserves output and net torque


def test_criterion_09_satellite_net_torque_preserved():
    t0 = time.perf_counter()
    lib = scenario_library()
    unc = simulate(lib["satellite-case-1"])
    con = simulate(lib["satellite-case-3"])

    y_dev = float(np.max(np.abs(con.y - unc.y)))
    net_con = con.u_applied.sum(axis=1)
    net_unc = unc.u_applied.sum(axis=1)
    per_step = float(np.max(np.abs(net_con - net_unc)))
    summed = abs(float(net_con.sum() - net_unc.sum()))
    u_peak = float(np.max(np.abs(con.u_applied)))

    elapsed = time.perf_counter() - t0
    _report(9, True, f"output deviation {y_dev:.2e} rad, summed net torque "
            f"gap {summed:.2e} (per-step peak {per_step:.2e}), input peak "
            f"{u_peak:.4f}, {elapsed:.1f} s")
    assert y_dev <= 1e-3
    assert summed <= 1e-6
    assert u_peak <= 0.11 + 1e-8
    assert all(s == "optimal" for s in con.qp_status)
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 10. satellite fault recovery stays inside the softened output budget


def test_criterion_10_satellite_fault_recovery():
    t0 = time.perf_counter()
    tr = simulate(scenario_library()["satellite-case-5"])

    y_peak = float(np.max(np.abs(tr.y)))
    after = tr.t >= 3.0
    locked = float(np.max(np.abs(tr.u_applied[after, 0]), initial=0.0))
    u_peak = float(np.max(np.abs(tr.u_applied)))
    y_final = float(np.abs(tr.y[-1, 0]))

    elapsed = time.perf_counter() - t0
    _report(10, True, f"output peak {y_peak:.2e} rad (budget 1.2e-2), "
            f"healthy-torque peak {u_peak:.4f}, final output {y_final:.1e}, "
            f"{elapsed:.1f} s")
    assert not tr.diverged
    assert y_peak <= 0.012
    assert locked == 0.0
    assert u_peak <= 0.15 + 1e-8
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 11. pendulum tracking respects the softened state bounds


def test_criterion_11_pendulum_bounded_tracking():
    t0 = time.perf_counter()
    tr = simulate(scenario_library()["pendulum-case-2"])

    settled = tr.t > 0.1 + 1e-9  # skip the documented feedthrough transient
    vel = float(np.max(np.abs(tr.x[settled, 1])))
    ang = float(np.max(np.abs(tr.x[settled, 2])))
    rate = float(np.max(np.abs(tr.x[settled, 3])))
    pos_final = float(tr.x[-1, 0])

    elapsed = time.perf_counter() - t0
    _report(11, True, f"post-transient peaks vel {vel:.3f}/0.735, angle "
            f"{ang:.3f}/0.184, rate {rate:.3f}/0.315, final position "
            f"{pos_final:.4f}, {elapsed:.1f} s")
    assert not tr.diverged
    assert vel <= 1.05 * 0.7
    assert ang <= 1.05 * 0.175
    assert rate <= 1.05 * 0.3
    assert abs(pos_final - 1.0) <= 0.01
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 12. large synthetic search completes and the ranking is sane


def test_criterion_12_scale_search_property():
    t0 = time.perf_counter()
    G, K = scale_surrogate(seed=0)
    res = search_realisations(G, K, form="predictor", rank_by="product",
                              workers=2)
    elapsed = time.perf_counter() - t0

    examined = len(res.ranked) + len(res.rejected)
    products = sorted(s.product for _, s in res.ranked)
    best = res.ranked[0][1].product
    median = products[len(products) // 2]

    _report(12, True, f"{examined} pruned choices ({len(res.ranked)} "
            f"feasible), best product {best:.1f} vs median {median:.1f}, "
            f"{elapsed:.0f} s")
    assert examined >= 10_000
    assert best == products[0]
    assert best <= median
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 13. cross-coupling diagnostic on duplicated loops


def test_criterion_13_cross_coupling_diagnostic():
    t0 = time.perf_counter()
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    T1 = search_realisations(G, K1, form="filter",
                             forced_S=(0, 4, 5)).ranked[0][0].T

    G2 = DtStateSpace(block_diag(G.A, G.A), block_diag(G.B, G.B),
                      block_diag(G.C, G.C), np.zeros((2, 4)), G.Ts)
    K2 = DtStateSpace(block_diag(K1.A, K1.A), block_diag(K1.B, K1.B),
                      block_diag(K1.C, K1.C), block_diag(K1.D, K1.D), K1.Ts)
    A2 = closed_loop_matrix(G2, K2)
    blocks = [((0, 1, 2), (0, 1, 2)), ((3, 4, 5), (3, 4, 5))]

    # complete eigenspaces: both copies of every selected mode
    T_complete = block_diag(T1, T1)
    coupled_none = check_decoupling(T_complete, blocks)
    assert riccati_residual(A2, T_complete) <= 1e-9

    # split selection: mix the two copies of one mode and unbalance the
    # counts so the invariant subspace is no longer a per-loop direct sum
    w, V = np.linalg.eig(closed_loop_matrix(G, K1))

    def eigvec(target):
        v = V[:, int(np.argmin(np.abs(w - target)))]
        return np.real(v / np.linalg.norm(v))

    def embed(v, loop):
        out = np.zeros(12)
        out[3 * loop:3 * loop + 3] = v[:3]
        out[6 + 3 * loop:9 + 3 * loop] = v[3:]
        return out

    v1, v97, v56, v01 = (eigvec(z) for z in (1.0, 0.9764, 0.5660, 0.0177))
    U = np.column_stack([
        embed(v1, 0), embed(v1, 1), embed(v97, 0), embed(v97, 1),
        (embed(v56, 0) + embed(v56, 1)) / np.sqrt(2.0), embed(v01, 0),
    ])
    T_split = U[6:] @ np.linalg.inv(U[:6])
    coupled_split = check_decoupling(T_split, blocks)
    assert riccati_residual(A2, T_split) <= 1e-9

    elapsed = time.perf_counter() - t0
    _report(13, True, f"complete selection couples {coupled_none:.1e}, "
            f"split selection couples {coupled_split:.3f}, {elapsed:.1f} s")
    assert coupled_none <= 1e-9
    assert coupled_split >= 0.1
    assert elapsed < 5.0
