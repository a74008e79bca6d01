import numpy as np
import pytest

from klctrl import (
    Formulation,
    Policy,
    brute_force_policy_search,
    em_solve,
    evaluate_objective,
    initial_value,
    load_bundled_problem,
    mm_solve,
    regularized_policy_value,
    solve_formulation,
)
from klctrl.solvers import expected_cost_under, rsoc_value
from klctrl.verify import perturb_policy, run_checks

from conftest import random_problem


def test_m1_closed_form_iterates(m1):
    _, trace = mm_solve(m1, "soc", lambda_p=1.0, tol=0.0, max_iters=20)
    for k, table in enumerate(trace.policy_iterates):
        expected = 1 / (1 + np.exp(-k))
        assert table[0, 0, 1] == pytest.approx(expected, abs=1e-12)
    assert trace.policy_iterates[2][0, 0, 1] == pytest.approx(0.880797, abs=1e-6)
    assert all(np.diff(trace.true_objective) <= 0)


def test_one_hot_baseline_is_a_fixed_point(m1):
    one_hot = Policy.deterministic(np.array([[1, 1]]), 2)
    problem = m1.replace(baseline_policy=one_hot)
    sol, trace = mm_solve(problem, "soc", lambda_p=1.0, tol=1e-12, max_iters=10)
    assert trace.converged
    assert trace.iterations == 1
    np.testing.assert_allclose(sol.pi_star.table, one_hot.table, atol=1e-14)


def test_rsoc_target_matches_soc_target_on_dirac_kernels(m1):
    _, soc_trace = mm_solve(m1, "soc", lambda_p=1.0, tol=0.0, max_iters=10)
    _, rsoc_trace = mm_solve(m1, "rsoc", lambda_p=1.0, tol=0.0, max_iters=10)
    for a, b in zip(soc_trace.policy_iterates, rsoc_trace.policy_iterates):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_surrogate_majorizes_the_true_objective(rng):
    for _ in range(10):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        anchor = perturb_policy(problem.baseline_policy, rng)
        lam_p = float(rng.uniform(0.5, 2.0))
        anchored = problem.replace(baseline_policy=anchor, lambda_p=lam_p)
        # touching the true objective at the anchor itself
        at_anchor = regularized_policy_value(problem, "soc", anchor, anchor, lam_p)
        assert at_anchor == pytest.approx(
            expected_cost_under(problem, anchor), abs=1e-10
        )
        for _ in range(5):
            cand = perturb_policy(anchor, rng)
            surrogate = regularized_policy_value(problem, "soc", cand, anchor, lam_p)
            assert surrogate >= expected_cost_under(problem, cand) - 1e-10


def test_monotone_descent_on_random_instances(rng):
    for _ in range(15):
        problem = random_problem(rng)
        for target in ("soc", "rsoc"):
            _, trace = mm_solve(problem, target, lambda_p=1.0, tol=1e-10, max_iters=50)
            drops = np.diff(trace.true_objective)
            assert np.all(drops <= 1e-12)


def test_converged_policy_matches_the_exhaustive_optimum(rng):
    found = 0
    while found < 10:
        problem = random_problem(rng, max_states=3, max_actions=2, max_horizon=2)
        bf_policy, bf_value = brute_force_policy_search(problem, "soc")
        # require a unique optimum with a clear margin before comparing
        runner_up = _second_best_value(problem)
        if runner_up - bf_value < 0.1:
            continue
        found += 1
        sol, trace = mm_solve(problem, "soc", lambda_p=1.0, tol=1e-10, max_iters=10000)
        assert trace.converged
        final = expected_cost_under(problem, sol.pi_star)
        assert final == pytest.approx(bf_value, abs=1e-6)


def _second_best_value(problem):
    from klctrl.oracle import _policy_values_soc

    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    count = A ** (S * T)
    flat = np.array(np.unravel_index(np.arange(count), (A,) * (S * T))).T
    values = _policy_values_soc(problem, flat.reshape(count, T, S))
    return np.sort(values)[1]


def test_fixed_point_satisfies_its_own_soft_problem(rng):
    problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
    sol, trace = mm_solve(problem, "soc", lambda_p=1.0, tol=1e-12, max_iters=5000)
    assert trace.converged
    sub = problem.replace(baseline_policy=sol.pi_star, lambda_p=1.0)
    again = solve_formulation(sub, Formulation.SP_SOC)
    assert float(np.max(np.abs(again.pi_star.table - sol.pi_star.table))) <= 1e-10


def test_surrogate_column_upper_bounds_the_true_column(rng):
    problem = random_problem(rng, lambda_s=1.0)
    _, trace = mm_solve(problem, "rsoc", lambda_p=1.0, tol=0.0, max_iters=20)
    for surr, true in zip(trace.surrogate_objective, trace.true_objective):
        # surrogate is evaluated at its own minimizer, still a majorizer value
        assert surr >= true - 1e-9


def test_mm_argument_validation(m1):
    with pytest.raises(ValueError):
        mm_solve(m1, "central", 1.0, 1e-8, 10)
    with pytest.raises(ValueError):
        mm_solve(m1, "soc", -1.0, 1e-8, 10)
    with pytest.raises(ValueError):
        mm_solve(m1, "soc", 1.0, 1e-8, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda m1: rsoc_value(m1, m1.baseline_policy, 0.0),
        lambda m1: rsoc_value(m1, m1.baseline_policy, np.inf),
        lambda m1: rsoc_value(m1, m1.baseline_policy, np.nan),
        lambda m1: regularized_policy_value(m1, "soc", m1.baseline_policy, m1.baseline_policy, 0.0),
        lambda m1: regularized_policy_value(m1, "rsoc", m1.baseline_policy, m1.baseline_policy, -1.0),
        lambda m1: regularized_policy_value(m1, "soc", m1.baseline_policy, m1.baseline_policy, np.inf),
        lambda m1: regularized_policy_value(m1, "soc", m1.baseline_policy, m1.baseline_policy, np.nan),
        lambda m1: mm_solve(m1.replace(lambda_s=None), "rsoc", 1.0, 1e-8, 10),
    ],
    ids=[
        "rsoc_value-zero",
        "rsoc_value-inf",
        "rsoc_value-nan",
        "regularized-zero",
        "regularized-negative",
        "regularized-inf",
        "regularized-nan",
        "mm-rsoc-without-lambda_s",
    ],
)
def test_degenerate_weights_are_refused(m1, call):
    with pytest.raises(ValueError):
        call(m1)


def test_em_argument_validation(m1):
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            em_solve(m1, 1.0, tol, 10)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        em_solve(m1, 1.0, 1e-8, 0)


def test_em_on_m1_first_step(m1):
    policy, trace = em_solve(m1, lam=1.0, tol=0.0, max_iters=1)
    assert policy.table[0, 0, 1] == pytest.approx(1 / (1 + np.exp(-1)), abs=1e-12)


def test_em_single_action_is_trivially_converged(rng):
    problem = random_problem(rng, num_actions=1)
    policy, trace = em_solve(problem, lam=1.0, tol=1e-12, max_iters=5)
    assert trace.converged
    np.testing.assert_allclose(policy.table, 1.0)


def test_em_requires_positive_lambda(m1):
    with pytest.raises(ValueError):
        em_solve(m1, lam=-1.0, tol=1e-8, max_iters=5)


def test_em_matches_synchronized_mm_iterates_on_m1(m1):
    _, em_trace = em_solve(m1, lam=1.0, tol=0.0, max_iters=10)
    _, mm_trace = mm_solve(m1, "rsoc", lambda_p=1.0, tol=0.0, max_iters=10)
    # state s1 is unreachable at t=0, so only the reachable row must agree
    for a, b in zip(em_trace.policy_iterates, mm_trace.policy_iterates):
        np.testing.assert_allclose(a[0, 0], b[0, 0], atol=1e-10)


def test_em_keeps_the_unreachable_row_of_the_current_iterate(m1):
    _, trace = em_solve(m1, lam=1.0, tol=0.0, max_iters=5)
    # s1 has no mass at t=0, so its row stays at the baseline [0.5, 0.5]
    for table in trace.policy_iterates:
        np.testing.assert_array_equal(table[0, 1], [0.5, 0.5])
    assert trace.policy_iterates[-1][0, 0, 1] > 0.5


def test_mm_and_em_need_no_trajectory_enumeration(rng):
    # full support from six start states: enumerating (S, A, T) = (6, 3, 5)
    # takes 6 * 18^5 = 11,337,408 rows, past the oracle's 10^6 cap
    problem = random_problem(rng, num_states=6, num_actions=3, horizon=5)
    assert problem.initial_distribution.min() > 0
    for target in ("soc", "rsoc"):
        _, trace = mm_solve(problem, target, lambda_p=1.0, tol=0.0, max_iters=5)
        assert trace.iterations == 5
        assert np.all(np.diff(trace.true_objective) <= 1e-12)
    _, trace = em_solve(problem, lam=1.0, tol=0.0, max_iters=5)
    assert trace.iterations == 5
    assert np.all(np.diff(trace.true_objective) <= 1e-12)


def test_em_matches_synchronized_mm_on_random_instances(rng):
    for _ in range(10):
        lam = float(rng.uniform(0.3, 2.0))
        problem = random_problem(rng, lambda_s=lam)
        _, em_trace = em_solve(problem, lam=lam, tol=0.0, max_iters=8)
        _, mm_trace = mm_solve(problem, "rsoc", lambda_p=lam, tol=0.0, max_iters=8)
        for a, b in zip(em_trace.policy_iterates, mm_trace.policy_iterates):
            np.testing.assert_allclose(a, b, atol=1e-10)


def test_em_objective_is_non_increasing(rng):
    for _ in range(10):
        lam = float(rng.uniform(0.3, 2.0))
        problem = random_problem(rng, lambda_s=lam)
        _, trace = em_solve(problem, lam=lam, tol=1e-10, max_iters=50)
        assert np.all(np.diff(trace.true_objective) <= 1e-12)


def test_em_takes_each_objective_from_the_next_e_step(rng, monkeypatch):
    from klctrl import iterate

    calls = []
    monkeypatch.setattr(
        iterate, "rsoc_value", lambda *args: calls.append(args) or rsoc_value(*args)
    )
    for max_iters in (1, 6):
        lam = float(rng.uniform(0.3, 2.0))
        problem = random_problem(rng, lambda_s=lam)
        calls.clear()
        _, trace = em_solve(problem, lam=lam, tol=0.0, max_iters=max_iters)
        # only the final iterate is evaluated apart from the E-steps
        assert len(calls) == 1
        values = [rsoc_value(problem, Policy(pi), lam) for pi in trace.policy_iterates]
        np.testing.assert_allclose(trace.true_objective, values[1:], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name, detail",
    [("m1", "converged after 24 iterations"), ("chain5", "not converged after 200 iterations")],
)
def test_verify_says_whether_mm_converged(name, detail):
    problem, components = load_bundled_problem(name)
    (check,) = [r for r in run_checks(problem, components) if r.name == "mm-descent"]
    assert (check.status, check.detail) == ("pass", detail)


def test_em_validates_the_problem_once(monkeypatch):
    from klctrl import desirability, model, solvers

    calls = []

    def counting(problem):
        calls.append(problem)
        return model.validate_problem(problem)

    for module in (solvers, desirability):
        monkeypatch.setattr(module, "validate_problem", counting)
    problem, _ = load_bundled_problem("grid4x4")
    _, trace = em_solve(problem, lam=1.0, tol=0.0, max_iters=20)
    assert trace.iterations == 20
    assert len(calls) == 1


def test_an_objective_that_rises_raises_non_descent_with_its_trace(m1, monkeypatch):
    import itertools

    import klctrl.iterate as kit
    from klctrl import NonDescentError

    values = itertools.count(1.0)
    monkeypatch.setattr(kit, "expected_cost_under", lambda problem, policy: next(values))
    with pytest.raises(NonDescentError, match="objective increased from 1.0 to 2.0") as err:
        mm_solve(m1, "soc", 1.0, 0.0, 5)
    assert err.value.trace.iterations == 1
    assert err.value.trace.true_objective == [2.0]
