"""Solver checks against closed forms and an exhaustive active-set oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import brute_force_qp, record_steps
from lti2mpc.qp import affine_law, factor_qp, solve_qp


def assert_kkt(H, f, A, b, sol):
    x = sol.x_star
    assert np.all(A @ x - b <= 1e-8)
    lam = sol.multipliers
    assert np.all(lam >= -1e-9)
    grad = H @ x + f
    if sol.active_set:
        grad = grad + A[list(sol.active_set)].T @ lam
    assert np.linalg.norm(grad) <= 1e-7 * (1.0 + np.linalg.norm(f))
    for i, lam_i in zip(sol.active_set, lam):
        assert abs(lam_i * (A[i] @ x - b[i])) <= 1e-8 * (1.0 + abs(lam_i))


def test_unconstrained_minimum():
    H = np.diag([2.0, 4.0])
    f = np.array([-2.0, -8.0])
    sol = solve_qp(H, f)
    assert sol.status == "optimal"
    assert_allclose(sol.x_star, [1.0, 2.0], atol=1e-12)


def test_single_halfspace_projection():
    # min 1/2||x||^2 with -x1 <= -1: projection onto x1 >= 1
    H = np.eye(2)
    f = np.zeros(2)
    A = np.array([[-1.0, 0.0]])
    b = np.array([-1.0])
    sol = solve_qp(H, f, A, b)
    assert sol.status == "optimal"
    assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-10)
    assert sol.active_set == (0,)
    assert_allclose(sol.multipliers, [1.0], atol=1e-10)
    assert_allclose(sol.objective, 0.5, atol=1e-10)


def test_inactive_constraints_ignored():
    H = np.eye(3)
    f = -np.ones(3)
    A = np.array([[1.0, 0.0, 0.0]])
    b = np.array([5.0])
    sol = solve_qp(H, f, A, b)
    assert sol.status == "optimal" and sol.active_set == ()
    assert_allclose(sol.x_star, np.ones(3), atol=1e-12)


def test_box_corner():
    H = 2.0 * np.eye(2)
    f = np.array([-10.0, -10.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 0.0, 0.0])
    sol = solve_qp(H, f, A, b)
    assert sol.status == "optimal"
    assert_allclose(sol.x_star, [1.0, 2.0], atol=1e-10)
    assert set(sol.active_set) == {0, 1}


def test_infeasible_rows_detected():
    H = np.eye(1)
    f = np.zeros(1)
    A = np.array([[1.0], [-1.0]])
    b = np.array([-2.0, 1.0])  # x <= -2 and x >= -1
    sol = solve_qp(H, f, A, b)
    assert sol.status == "infeasible"


def test_duplicate_constraints_are_harmless():
    H = np.eye(2)
    f = np.array([-3.0, 0.0])
    A = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0])
    sol = solve_qp(H, f, A, b)
    assert sol.status == "optimal"
    assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-10)
    assert_kkt(H, f, A, b, sol)


def _oracle_instances(count=300, seed=31):
    """Small random QPs, biased so most are feasible but constraints bind
    often."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        M = rng.standard_normal((d, d))
        H = M @ M.T + 0.3 * np.eye(d)
        f = rng.standard_normal(d)
        A = rng.standard_normal((m, d))
        b = A @ rng.standard_normal(d) * 0.3 + rng.uniform(-0.2, 0.6, m)
        yield H, f, A, b


def test_matches_exhaustive_oracle():
    solved = 0
    for H, f, A, b in _oracle_instances():
        sol = solve_qp(H, f, A, b)
        ref = brute_force_qp(H, f, A, b)
        if ref is None:
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        assert_allclose(sol.objective, ref[1], rtol=1e-7, atol=1e-7)
        assert_allclose(sol.x_star, ref[0], atol=1e-6)
        assert_kkt(H, f, A, b, sol)
        solved += 1
    assert solved >= 200


def test_deterministic_resolve():
    rng = np.random.default_rng(32)
    M = rng.standard_normal((5, 5))
    H = M @ M.T + 0.5 * np.eye(5)
    f = rng.standard_normal(5)
    A = rng.standard_normal((8, 5))
    b = rng.uniform(-0.1, 0.5, 8)
    s1 = solve_qp(H, f, A, b)
    s2 = solve_qp(H, f, A, b)
    assert s1.status == s2.status
    assert s1.iterations == s2.iterations
    assert s1.active_set == s2.active_set
    assert np.array_equal(s1.x_star, s2.x_star)


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(2), np.zeros((1, 3)), np.zeros(1))


def _warm_guesses(rng, m, optimal):
    """Random subsets (often infeasible together or with negative
    multipliers), guesses with repeated rows, the optimal set, and the
    optimal set padded with extra rows."""
    guesses = [tuple(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
               for _ in range(3)]
    guesses.append(tuple(rng.integers(0, m, size=m + 2)))
    guesses.append(optimal)
    guesses.append(optimal + tuple(rng.integers(0, m, size=2)))
    return [g for g in guesses if g]


def test_warm_start_matches_the_oracle_and_the_cold_solve():
    rng = np.random.default_rng(41)
    hits = dropped = infeasible = 0
    for i, (H, f, A, b) in enumerate(_oracle_instances()):
        if i % 3 == 0 and A.shape[0] >= 2:
            # a repeated row and a row that is the sum of two others
            A = np.vstack([A, A[0], A[0] + A[1]])
            b = np.concatenate([b, b[:1], [b[0] + b[1] + rng.uniform(-0.1, 0.1)]])
        cold = solve_qp(H, f, A, b)
        ref = brute_force_qp(H, f, A, b)
        for guess in _warm_guesses(rng, A.shape[0], cold.active_set):
            sol = solve_qp(H, f, A, b, warm=guess)
            if ref is None:
                assert cold.status == sol.status == "infeasible"
                infeasible += 1
                continue
            assert sol.status == "optimal"
            assert_allclose(sol.x_star, cold.x_star, rtol=1e-9, atol=1e-9)
            assert_allclose(sol.x_star, ref[0], rtol=1e-9, atol=1e-9)
            assert_allclose(sol.objective, ref[1], rtol=1e-9, atol=1e-9)
            assert_kkt(H, f, A, b, sol)
            hits += sol.warm_start
            dropped += (not sol.warm_start) and sol.iterations == 0
    assert hits >= 350 and dropped >= 500 and infeasible >= 100


def test_warm_start_drops_dependent_rows_and_negative_multipliers():
    # three copies of x1 <= 1: only one can stay in the working set
    H, f = np.eye(2), np.array([-3.0, 0.0])
    A = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    b = np.ones(3)
    sol = solve_qp(H, f, A, b, warm=(2, 1, 0, 2))
    assert sol.status == "optimal" and sol.active_set == (2,)
    assert sol.warm_start is False and sol.iterations == 0
    assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-12)
    assert_kkt(H, f, A, b, sol)
    # x1 >= -1 is slack at the optimum x = (1, 0): held active it would
    # need a negative multiplier, so the guess falls back to the cold start
    A, b = np.array([[-1.0, 0.0]]), np.array([1.0])
    sol = solve_qp(H, np.array([-1.0, 0.0]), A, b, warm=(0,))
    assert sol.active_set == () and not sol.warm_start and sol.iterations == 0
    assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-12)
    # the optimal set is a hit
    A, b = np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 2.0, 0.0, 0.0])
    sol = solve_qp(2.0 * np.eye(2), np.array([-10.0, -10.0]), A, b, warm=(1, 0))
    assert sol.warm_start and sol.iterations == 0 and sol.active_set == (1, 0)
    assert_allclose(sol.x_star, [1.0, 2.0], atol=1e-12)
    # a contradictory guess still ends in the infeasibility verdict
    sol = solve_qp(np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]),
                   np.array([-2.0, 1.0]), warm=(0, 1))
    assert sol.status == "infeasible"


def test_shared_factor_gives_the_same_solution():
    rng = np.random.default_rng(42)
    M = rng.standard_normal((6, 6))
    H = M @ M.T + 0.5 * np.eye(6)
    A = rng.standard_normal((9, 6))
    factor = factor_qp(H, A)
    for _ in range(20):
        f = rng.standard_normal(6)
        b = rng.uniform(-0.1, 0.5, 9)
        own, shared = solve_qp(H, f, A, b), solve_qp(H, f, A, b, factor=factor)
        assert own.active_set == shared.active_set
        assert np.array_equal(own.x_star, shared.x_star)


def test_bad_warm_rows_and_non_finite_data_raise():
    H, f = np.eye(2), np.zeros(2)
    A, b = np.eye(2), np.ones(2)
    for warm in [(2,), (-1,), (0, 5), (True,), (1.0,)]:
        with pytest.raises(ValueError, match="warm-start row"):
            solve_qp(H, f, A, b, warm=warm)
    with pytest.raises(ValueError, match="warm-start row"):
        solve_qp(H, f, warm=(0,))
    factor = factor_qp(H, A)
    for bad_f, bad_b in [([np.nan, 0.0], b), (f, [1.0, np.inf])]:
        with pytest.raises(ValueError, match="finite"):
            solve_qp(H, bad_f, A, bad_b)
        with pytest.raises(ValueError, match="finite"):
            solve_qp(H, bad_f, A, bad_b, factor=factor)
    with pytest.raises(ValueError, match="finite"):
        solve_qp(H, [np.inf, 0.0])
    with pytest.raises(ValueError, match="finite"):
        factor_qp([[1.0, np.nan], [np.nan, 1.0]], A)
    with pytest.raises(ValueError, match="factor does not match"):
        solve_qp(H, f, A[:1], b[:1], factor=factor)


@pytest.fixture(scope="module")
def satellite_case_5_solves():
    """(arguments, memo hit, solution, memo after) of solve_qp fed, in
    order, every control step's (f, b, warm) of a satellite-case-5 replay,
    on the factor of the controller fresh from the library that ran it."""
    from lti2mpc.sim import scenario_library

    _, steps = record_steps(scenario_library("satellite")["satellite-case-5"])
    calls = []
    for qp, f, b, warm, _ in steps:
        factor = qp.factor
        memo = factor.qr_memo
        hit = bool(warm) and memo is not None and memo[0] == tuple(warm)
        sol = solve_qp(qp.H, f, qp.A_ineq, b, factor=factor, warm=warm)
        calls.append(((qp.H, f, qp.A_ineq, b, factor, warm), hit, sol, factor.qr_memo))
    return calls


def test_a_memo_hit_solves_bitwise_as_a_factor_without_memo(satellite_case_5_solves):
    hits = 0
    for (H, f, A, b, factor, warm), hit, shared, _ in satellite_case_5_solves:
        fresh = factor_qp(H, A)
        assert fresh.qr_memo is None
        own = solve_qp(H, f, A, b, factor=fresh, warm=warm)
        assert own.status == shared.status
        assert own.active_set == shared.active_set
        assert own.iterations == shared.iterations
        assert own.warm_start == shared.warm_start
        assert np.array_equal(own.x_star, shared.x_star)
        assert np.array_equal(own.multipliers, shared.multipliers)
        hits += hit
    assert hits >= 100


def test_the_memo_holds_one_read_only_factor(satellite_case_5_solves):
    factor = satellite_case_5_solves[0][0][4]
    d = factor.G.shape[0]
    assert all(call[0][4] is factor for call in satellite_case_5_solves)
    memos = [call[3] for call in satellite_case_5_solves if call[3] is not None]
    assert len(memos) >= 100
    for key, Q, R in memos:
        assert isinstance(key, tuple) and Q.shape == (d, d) and R.shape == (d, len(key))
        assert not (Q.flags.writeable or R.flags.writeable)
    with pytest.raises(ValueError):
        memos[-1][1][0, 0] = 1.0


def test_a_permuted_working_set_misses_the_memo(monkeypatch):
    rng = np.random.default_rng(44)
    M = rng.standard_normal((6, 6))
    factor = factor_qp(M @ M.T + 0.5 * np.eye(6), rng.standard_normal((9, 6)))
    qr, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or qr(*a, **k))
    Q, R = factor.working_qr([3, 1, 4])
    assert factor.working_qr([3, 1, 4]) == (Q, R) and len(calls) == 1
    assert factor.working_qr((3, 1, 4))[0] is Q and len(calls) == 1
    Qp, Rp = factor.working_qr([1, 3, 4])
    assert len(calls) == 2 and factor.qr_memo[0] == (1, 3, 4)
    assert not np.array_equal(Rp, R)
    # one slot: the permuted set replaced the first, which now misses too
    factor.working_qr([3, 1, 4])
    assert len(calls) == 3


def _parametric_qp(seed, d=6, m=10, p=3):
    """H, A and the maps F, B, b0 of f = F theta, b = b0 + B theta."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    H = M @ M.T + 0.5 * np.eye(d)
    A = rng.standard_normal((m, d))
    return H, A, rng.standard_normal((d, p)), rng.standard_normal((m, p)), np.abs(
        rng.standard_normal(m)) + 0.1


def test_an_affine_law_reproduces_the_solver_on_its_own_region():
    H, A, F, B, b0 = _parametric_qp(5)
    factor = factor_qp(H, A)
    rng = np.random.default_rng(6)
    served = refused = 0
    for _ in range(200):
        theta = 2.0 * rng.standard_normal(F.shape[1])
        f, b = F @ theta, b0 + B @ theta
        sol = solve_qp(H, f, A, b, factor=factor)
        assert sol.status == "optimal"
        law = affine_law(factor, A, sol.active_set, F, B, b0)
        assert law.active == sol.active_set
        assert not (law.M.flags.writeable or law.c.flags.writeable)
        hit = law.solve(H, theta)
        assert hit is not None  # the solver's optimal set is optimal
        assert_kkt(H, f, A, b, hit)
        assert (hit.iterations, hit.warm_start) == (0, bool(sol.active_set))
        assert_allclose(hit.x_star, sol.x_star, atol=1e-9)
        assert_allclose(hit.multipliers, sol.multipliers, atol=1e-9)
        assert_allclose(hit.objective, sol.objective, rtol=1e-9, atol=1e-12)
        # the unconstrained law serves theta exactly when no row binds
        free = affine_law(factor, A, (), F, B, b0).solve(H, theta)
        if free is None:
            refused += 1
            assert sol.active_set
        else:
            served += 1
            assert sol.active_set == ()
            assert_allclose(free.x_star, sol.x_star, atol=1e-9)
    assert served and refused


def test_an_affine_law_refuses_what_a_warm_start_would_prune():
    H, A, F, B, b0 = _parametric_qp(8, d=3, m=6)
    A[4] = 2.0 * A[1]  # a dependent pair
    factor = factor_qp(H, A)
    assert affine_law(factor, A, (1, 4), F, B, b0) is None
    assert affine_law(factor, A, (0, 1, 2, 3), F, B, b0) is None  # more rows than d
    assert affine_law(factor, A, (2, 2), F, B, b0).active == (2,)
    for bad in ((6,), (-1,), (True,), (1.0,)):
        with pytest.raises(ValueError, match="warm-start row"):
            affine_law(factor, A, bad, F, B, b0)
