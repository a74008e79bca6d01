import numpy as np
import pytest

from klctrl import (
    ControlProblem,
    Formulation,
    Policy,
    TransitionKernel,
    evaluate_objective,
    initial_value,
    linear_backward,
    policy_from_desirability,
    solve_central,
    solve_formulation,
)
from klctrl.risk import entropic_risk_rows
from klctrl.solvers import expected_cost_under, regularized_policy_value, rsoc_value
from klctrl.verify import central_no_improvement, perturb_kernel, perturb_policy

from conftest import make_m1, random_problem, sparse_problem

M1_V0 = -np.log(0.5 * (1 + np.exp(-1)))
M1_PI1 = 1 / (1 + np.exp(-1))


def central_residual(problem, sol):
    worst = 0.0
    for t in range(problem.horizon):
        q = problem.stage_costs[t] + entropic_risk_rows(
            problem.baseline_kernels.table[t], sol.V[t + 1][None, None, :],
            problem.lambda_s,
        )
        v = entropic_risk_rows(problem.baseline_policy.table[t], q, problem.lambda_p)
        worst = max(worst, np.max(np.abs(q - sol.Q[t])), np.max(np.abs(v - sol.V[t])))
    return worst


def test_central_on_m1(m1):
    sol = solve_central(m1)
    assert sol.V[1] == pytest.approx([1.0, 0.0])
    assert sol.V[0][0] == pytest.approx(M1_V0, abs=1e-12)
    assert sol.pi_star.table[0, 0, 1] == pytest.approx(M1_PI1, abs=1e-12)
    np.testing.assert_allclose(sol.tau_star.table, m1.baseline_kernels.table, atol=1e-14)


def test_zero_costs_give_zero_values_and_baseline_tables(rng):
    problem = random_problem(rng)
    problem = problem.replace(
        stage_costs=np.zeros_like(problem.stage_costs),
        terminal_cost=np.zeros_like(problem.terminal_cost),
    )
    sol = solve_central(problem)
    np.testing.assert_allclose(sol.V, 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.pi_star.table, problem.baseline_policy.table, atol=1e-12)
    np.testing.assert_allclose(sol.tau_star.table, problem.baseline_kernels.table, atol=1e-12)


def test_single_state_tilt_matches_risk_example():
    kernels = np.full((1, 1, 1, 2), 0.5)
    # two terminal states reachable from a single (state, action) pair
    problem = ControlProblem(
        horizon=1,
        num_states=2,
        num_actions=1,
        initial_distribution=[1.0, 0.0],
        baseline_kernels=TransitionKernel(np.broadcast_to(0.5, (1, 2, 1, 2)).copy()),
        baseline_policy=Policy(np.ones((1, 2, 1))),
        stage_costs=np.zeros((1, 2, 1)),
        terminal_cost=[0.0, np.log(4)],
        lambda_p=1.0,
        lambda_s=1.0,
    )
    sol = solve_central(problem)
    assert sol.Q[0, 0, 0] == pytest.approx(-np.log(0.625), abs=1e-12)
    np.testing.assert_allclose(sol.tau_star.table[0, 0, 0], [0.8, 0.2], atol=1e-12)


def test_bellman_residuals_on_random_instances(rng):
    for _ in range(50):
        problem = random_problem(rng)
        sol = solve_central(problem)
        assert central_residual(problem, sol) <= 1e-9


def test_objective_matches_initial_value(rng):
    for _ in range(50):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        sol = solve_central(problem)
        obj = evaluate_objective(problem, Formulation.CENTRAL, sol.pi_star, sol.tau_star)
        assert obj == pytest.approx(initial_value(problem, sol), abs=1e-8)


def test_perturbations_never_improve_the_central_objective(rng):
    for _ in range(10):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        sol = solve_central(problem)
        best = evaluate_objective(problem, Formulation.CENTRAL, sol.pi_star, sol.tau_star)
        assert central_no_improvement(problem, sol, best, rng, 20) <= 1e-9


def test_soc_on_m1(m1):
    sol = solve_formulation(m1, Formulation.SOC)
    assert sol.V[0, 0] == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(sol.pi_star.table[0, 0], [0.0, 1.0])


def test_rsoc_equals_soc_on_dirac_kernels(m1):
    for lam_s in (0.7, -0.7, 3.0):
        problem = make_m1(lambda_s=lam_s)
        soc = solve_formulation(problem, Formulation.SOC)
        rsoc = solve_formulation(problem, Formulation.RSOC)
        np.testing.assert_allclose(soc.V, rsoc.V, atol=1e-12)
        np.testing.assert_allclose(soc.pi_star.table, rsoc.pi_star.table, atol=1e-12)


def test_sp_soc_on_m1_matches_central(m1):
    sol = solve_formulation(m1, Formulation.SP_SOC)
    assert sol.V[0, 0] == pytest.approx(M1_V0, abs=1e-12)
    assert sol.pi_star.table[0, 0, 1] == pytest.approx(M1_PI1, abs=1e-12)


def test_deterministic_collapse_on_random_dirac_instances(rng):
    for _ in range(25):
        problem = random_problem(rng, dirac=True)
        problem = problem.replace(lambda_p=abs(problem.lambda_s), lambda_s=problem.lambda_s)
        soc = solve_formulation(problem, Formulation.SOC)
        rsoc = solve_formulation(problem, Formulation.RSOC)
        np.testing.assert_allclose(soc.V, rsoc.V, atol=1e-10)
        sp_soc = solve_formulation(problem, Formulation.SP_SOC)
        sync = problem.replace(lambda_s=problem.lambda_p)
        sp_rsoc = solve_formulation(sync, Formulation.SP_RSOC)
        np.testing.assert_allclose(sp_soc.V, sp_rsoc.V, atol=1e-10)
        np.testing.assert_allclose(sp_soc.pi_star.table, sp_rsoc.pi_star.table, atol=1e-10)


def test_doc_requires_dirac_kernels(rng):
    problem = random_problem(rng)
    with pytest.raises(ValueError):
        solve_formulation(problem, Formulation.DOC)
    dirac = random_problem(rng, dirac=True)
    doc = solve_formulation(dirac, Formulation.DOC)
    soc = solve_formulation(dirac, Formulation.SOC)
    np.testing.assert_allclose(doc.V, soc.V, atol=1e-14)


@pytest.mark.parametrize("form", ["soc", "sp_soc", "doc", "sp_doc"])
def test_pinned_transitions_return_the_baseline_kernel_itself(rng, form):
    problem = random_problem(rng, dirac=True)
    sol = solve_formulation(problem, form)
    assert sol.tau_star is problem.baseline_kernels


def test_greedy_policy_breaks_a_tie_toward_the_lowest_action():
    # one state: every action returns to it, so Q is the stage cost plus a
    # constant and ties exactly where the costs do
    problem = ControlProblem(
        horizon=2,
        num_states=1,
        num_actions=3,
        initial_distribution=[1.0],
        baseline_kernels=TransitionKernel(np.ones((2, 1, 3, 1))),
        baseline_policy=Policy(np.full((2, 1, 3), 1 / 3)),
        stage_costs=[[[2.0, 1.0, 1.0]], [[0.5, 0.5, 0.5]]],
        terminal_cost=[0.0],
        lambda_s=1.0,
    )
    for form in (Formulation.SOC, Formulation.RSOC, Formulation.DOC):
        sol = solve_formulation(problem, form)
        np.testing.assert_array_equal(sol.pi_star.table, [[[0, 1, 0]], [[1, 0, 0]]])
        assert sol.V[0, 0] == pytest.approx(1.5, abs=1e-14)


def test_missing_lambda_is_an_error(rng):
    problem = random_problem(rng).replace(lambda_s=None)
    with pytest.raises(ValueError):
        solve_formulation(problem, Formulation.RSOC)
    problem = random_problem(rng).replace(lambda_p=None)
    with pytest.raises(ValueError):
        solve_formulation(problem, Formulation.SP_SOC)


def test_synchronized_flag_sets_the_policy_weight(rng):
    problem = random_problem(rng, lambda_s=-1.3, lambda_p=0.4)
    sync = solve_formulation(problem, Formulation.SP_RSOC, synchronized=True)
    manual = solve_formulation(
        problem.replace(lambda_p=1.3), Formulation.SP_RSOC
    )
    np.testing.assert_allclose(sync.V, manual.V, atol=1e-14)
    with pytest.raises(ValueError):
        solve_formulation(problem, Formulation.SP_RSOC, synchronized=True,
                          table_literal=True)


def test_sign_behavior_of_the_risk_value(rng):
    for _ in range(20):
        problem = random_problem(rng, lambda_s=1.0)
        policy = perturb_policy(problem.baseline_policy, rng)
        mean = expected_cost_under(problem, policy)
        seeking = evaluate_objective(problem.replace(lambda_s=0.8), Formulation.RSOC, policy)
        averse = evaluate_objective(problem.replace(lambda_s=-0.8), Formulation.RSOC, policy)
        assert averse >= mean - 1e-10
        assert mean >= seeking - 1e-10


def test_large_policy_weight_recovers_the_greedy_solution(rng):
    for _ in range(10):
        problem = random_problem(rng, dirac=True)
        soc = solve_formulation(problem, Formulation.SOC)
        pinned = problem.replace(baseline_policy=soc.pi_star, lambda_p=1e6)
        central = solve_central(pinned)
        assert initial_value(problem, central) == pytest.approx(
            initial_value(problem, soc), abs=1e-4
        )
    # stochastic kernels need a near-neutral transition weight
    problem = random_problem(rng, lambda_s=1e-6)
    soc = solve_formulation(problem, Formulation.SOC)
    pinned = problem.replace(baseline_policy=soc.pi_star, lambda_p=1e6)
    central = solve_central(pinned)
    assert initial_value(problem, central) == pytest.approx(
        initial_value(problem, soc), abs=1e-4
    )


def test_evaluate_objective_examples(m1):
    # baseline policy scores the plain expected cost under sp_soc
    assert evaluate_objective(m1, Formulation.SP_SOC, m1.baseline_policy) == pytest.approx(
        expected_cost_under(m1, m1.baseline_policy), abs=1e-12
    )
    one_hot = Policy.deterministic(np.array([[1, 1]]), 2)
    assert evaluate_objective(m1, Formulation.SOC, one_hot) == pytest.approx(0.0, abs=1e-14)
    closed = evaluate_objective(m1, Formulation.RSOC, m1.baseline_policy)
    assert closed == pytest.approx(M1_V0, abs=1e-12)


def test_central_policy_value_matches_enumeration(rng):
    from klctrl import central_policy_value

    for _ in range(30):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        pi = perturb_policy(problem.baseline_policy, rng)
        tau = perturb_kernel(problem.baseline_kernels, rng)
        fast = central_policy_value(problem, pi, tau)
        slow = evaluate_objective(problem, Formulation.CENTRAL, pi, tau)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_regularized_policy_value_matches_enumeration(rng):
    for _ in range(20):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        policy = perturb_policy(problem.baseline_policy, rng)
        fast = regularized_policy_value(
            problem, "soc", policy, problem.baseline_policy, problem.lambda_p
        )
        slow = evaluate_objective(problem, Formulation.SP_SOC, policy)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_expected_cost_under_matches_enumeration(rng):
    for _ in range(20):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        policy = perturb_policy(problem.baseline_policy, rng)
        assert expected_cost_under(problem, policy) == pytest.approx(
            evaluate_objective(problem, Formulation.SOC, policy), abs=1e-10
        )


def test_rsoc_value_matches_closed_form_enumeration(rng):
    for _ in range(20):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        policy = perturb_policy(problem.baseline_policy, rng)
        assert rsoc_value(problem, policy, problem.lambda_s) == pytest.approx(
            evaluate_objective(problem, Formulation.RSOC, policy), abs=1e-10
        )


@pytest.mark.parametrize("lam_s", [0.5, -0.7, 40.0, -40.0, 700.0, -700.0])
def test_exact_zeros_of_the_baseline_stay_exact_zeros(rng, lam_s):
    problem = sparse_problem(rng, 12, 4, 5, lambda_s=lam_s)
    iota = problem.baseline_kernels.table
    rho = problem.baseline_policy.table
    for form, kw in (
        (Formulation.CENTRAL, {}),
        (Formulation.RSOC, {}),
        (Formulation.SP_RSOC, {"synchronized": True}),
        (Formulation.SP_SOC, {}),
    ):
        sol = solve_formulation(problem, form, **kw)
        assert np.all(sol.tau_star.table[iota == 0] == 0.0), form
        if form is not Formulation.RSOC:
            assert np.all(sol.pi_star.table[rho == 0] == 0.0), form
    if lam_s > 0:
        pi = policy_from_desirability(problem, linear_backward(problem, lam_s))
        assert np.all(pi.table[rho == 0] == 0.0)
