import numpy as np
import pytest

from klctrl import (
    ControlProblem,
    Policy,
    SupportViolationError,
    Trajectory,
    TransitionKernel,
    cumulative_cost,
    enumerate_trajectories,
    trajectory_kl,
    trajectory_log_prob,
    validate_problem,
)
from klctrl.model import ProblemValidationError, _row_violations, cost_warnings
from klctrl.solvers import solve_central

from conftest import make_m1, random_problem


def test_well_formed_problem_has_no_violations(m1):
    assert validate_problem(m1) == []


def test_bad_policy_row_sum_is_reported():
    problem = make_m1()
    table = problem.baseline_policy.table.copy()
    table[0, 0] = [0.6, 0.6]
    with pytest.raises(Exception) as err:
        Policy(table)
    assert "row sum 1.2" in str(err.value)


def test_lambda_s_zero_is_a_violation():
    problem = make_m1(lambda_s=0.0)
    violations = validate_problem(problem)
    assert len(violations) == 1
    assert "lambda_s" in violations[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_policy_row_is_refused(bad):
    table = make_m1().baseline_policy.table.copy()
    table[0, 1] = [bad, 0.5]
    with pytest.raises(ProblemValidationError, match=r"pi\(0, 1\): non-finite entry"):
        Policy(table)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_kernel_row_is_refused(bad):
    table = make_m1().baseline_kernels.table.copy()
    table[0, 0, 1] = [bad, 1.0]
    with pytest.raises(ProblemValidationError, match=r"tau\(0, 0, 1\): non-finite entry"):
        TransitionKernel(table)


def test_row_summing_to_one_with_a_negative_entry_is_refused():
    with pytest.raises(ProblemValidationError) as err:
        Policy(np.array([[[0.5, 0.5], [1.5, -0.5]]]))
    assert err.value.violations == ["pi(0, 1, 1): negative entry -0.5"]
    table = make_m1().baseline_kernels.table.copy()
    table[0, 1, 0] = [-0.25, 1.25]
    with pytest.raises(ProblemValidationError) as err:
        TransitionKernel(table)
    assert err.value.violations == ["tau(0, 1, 0, 0): negative entry -0.25"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_distribution_is_a_violation(bad):
    problem = make_m1().replace(initial_distribution=[bad, 0.0])
    assert validate_problem(problem) == ["initial_distribution: non-finite entry"]
    with pytest.raises(ProblemValidationError):
        solve_central(problem)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_lambda_p_is_a_violation(bad):
    problem = make_m1(lambda_p=bad)
    violations = validate_problem(problem)
    assert len(violations) == 1 and violations[0].startswith("lambda_p")
    with pytest.raises(ProblemValidationError):
        solve_central(problem)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_lambda_s_is_a_violation(bad):
    problem = make_m1(lambda_s=bad)
    violations = validate_problem(problem)
    assert len(violations) == 1 and violations[0].startswith("lambda_s")
    with pytest.raises(ProblemValidationError):
        solve_central(problem)


def test_negative_costs_warn_but_do_not_invalidate():
    problem = make_m1()
    costs = problem.stage_costs.copy()
    costs[0, 0, 0] = -1.0
    problem = problem.replace(stage_costs=costs)
    assert validate_problem(problem) == []
    assert cost_warnings(problem) == ["stage_costs: negative entries present"]


def test_log_prob_of_the_unique_deterministic_trajectory_is_zero(m1):
    policy = Policy.deterministic(np.array([[1, 1]]), 2)
    traj = Trajectory((0, 1), (1,))
    lp = trajectory_log_prob(m1, policy, m1.baseline_kernels, traj)
    assert lp == 0.0


def test_log_prob_uniform_two_step_problem():
    rng = np.random.default_rng(0)
    kernels = np.full((2, 2, 2, 2), 0.5)
    problem = ControlProblem(
        horizon=2,
        num_states=2,
        num_actions=2,
        initial_distribution=[1.0, 0.0],
        baseline_kernels=TransitionKernel(kernels),
        baseline_policy=Policy(np.full((2, 2, 2), 0.5)),
        stage_costs=np.zeros((2, 2, 2)),
        terminal_cost=[0.0, 0.0],
    )
    traj = Trajectory((0, 1, 0), (1, 0))
    lp = trajectory_log_prob(
        problem, problem.baseline_policy, problem.baseline_kernels, traj
    )
    assert lp == pytest.approx(np.log(1 / 16), abs=1e-12)


def test_log_prob_off_support_is_minus_inf(m1):
    traj = Trajectory((0, 1), (0,))  # action 0 goes to state 0, not 1
    lp = trajectory_log_prob(m1, m1.baseline_policy, m1.baseline_kernels, traj)
    assert lp == -np.inf


def test_cumulative_cost_sums_stages_and_terminal():
    rng = np.random.default_rng(1)
    problem = random_problem(rng, num_states=2, num_actions=2, horizon=2)
    costs = np.zeros((2, 2, 2))
    costs[0, 0, 1] = 1.0
    costs[1, 1, 0] = 2.0
    problem = problem.replace(stage_costs=costs, terminal_cost=[0.0, 3.0])
    traj = Trajectory((0, 1, 1), (1, 0))
    assert cumulative_cost(problem, traj) == pytest.approx(6.0)


def test_cumulative_cost_zero_horizon():
    problem = ControlProblem(
        horizon=0,
        num_states=2,
        num_actions=1,
        initial_distribution=[0.0, 1.0],
        baseline_kernels=TransitionKernel(np.zeros((0, 2, 1, 2))),
        baseline_policy=Policy(np.zeros((0, 2, 1))),
        stage_costs=np.zeros((0, 2, 1)),
        terminal_cost=[5.0, 7.0],
    )
    assert cumulative_cost(problem, Trajectory((1,), ())) == 7.0


def test_trajectory_kl_of_identical_tables_is_zero(rng):
    problem = random_problem(rng)
    d_pi, d_tau = trajectory_kl(
        problem.baseline_policy,
        problem.baseline_policy,
        problem.baseline_kernels,
        problem.baseline_kernels,
        problem,
    )
    assert d_pi == pytest.approx(0.0, abs=1e-14)
    assert d_tau == pytest.approx(0.0, abs=1e-14)


def test_trajectory_kl_one_step_example(m1):
    tilted = Policy(np.array([[[0.8, 0.2], [0.8, 0.2]]]))
    d_pi, d_tau = trajectory_kl(
        tilted, m1.baseline_policy, m1.baseline_kernels, m1.baseline_kernels, m1
    )
    expected = 0.8 * np.log(1.6) + 0.2 * np.log(0.4)
    assert d_pi == pytest.approx(expected, abs=1e-12)
    assert d_pi == pytest.approx(0.19274, abs=1e-5)
    assert d_tau == pytest.approx(0.0, abs=1e-14)


def test_trajectory_kl_support_breach_raises(m1):
    dirac = np.zeros((1, 2, 2, 2))
    dirac[..., 1] = 1.0  # always jump to state 1
    wide = TransitionKernel(np.full((1, 2, 2, 2), 0.5))
    with pytest.raises(SupportViolationError):
        trajectory_kl(m1.baseline_policy, m1.baseline_policy, wide,
                      TransitionKernel(dirac), m1)


def test_trajectory_probabilities_sum_to_one(rng):
    for _ in range(20):
        problem = random_problem(rng)
        table = enumerate_trajectories(
            problem, problem.baseline_policy, problem.baseline_kernels
        )
        assert table.total_probability() == pytest.approx(1.0, abs=1e-9)


def test_log_prob_factorizes(rng):
    problem = random_problem(rng, num_states=3, num_actions=2, horizon=3)
    table = enumerate_trajectories(
        problem, problem.baseline_policy, problem.baseline_kernels
    )
    for i, traj in enumerate(table.trajectories()):
        if i >= 25:
            break
        factors = [problem.initial_distribution[traj.states[0]]]
        for t in range(problem.horizon):
            factors.append(problem.baseline_policy.table[t, traj.states[t], traj.actions[t]])
            factors.append(
                problem.baseline_kernels.table[
                    t, traj.states[t], traj.actions[t], traj.states[t + 1]
                ]
            )
        lp = trajectory_log_prob(
            problem, problem.baseline_policy, problem.baseline_kernels, traj
        )
        assert np.exp(lp) == pytest.approx(np.prod(factors), rel=1e-12)


def test_negative_initial_entry_names_its_value():
    problem = make_m1().replace(initial_distribution=[1.5, -0.5])
    assert validate_problem(problem) == ["initial_distribution(1,): negative entry -0.5"]


def test_row_and_cost_violation_messages():
    table = np.full((2, 3, 2), 0.5)
    assert _row_violations("pi", table) == []
    table[1, 2] = [0.6, 0.6]
    assert _row_violations("pi", table) == ["pi(1, 2): row sum 1.2 != 1"]
    table[1, 2] = [1.5, -0.5]
    assert _row_violations("pi", table) == ["pi(1, 2, 1): negative entry -0.5"]
    assert _row_violations("initial_distribution", np.array([0.5, 0.6])) == [
        "initial_distribution: row sum 1.1 != 1"
    ]
    problem = make_m1()
    assert validate_problem(problem) == []
    costs = problem.stage_costs.copy()
    costs[0, 0, 1] = np.nan
    assert validate_problem(problem.replace(stage_costs=costs)) == [
        "stage_costs(0, 0, 1): non-finite entry"
    ]
