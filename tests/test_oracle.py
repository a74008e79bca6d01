import ast
import tracemalloc
from pathlib import Path

import klctrl
import numpy as np
import pytest

from klctrl import (
    EnumerationCapError,
    Formulation,
    Policy,
    brute_force_policy_search,
    conditional_policy,
    enumerate_trajectories,
    evaluate_objective,
    exact_posterior,
    exact_risk_objective,
    initial_value,
    solve_formulation,
    tilt_table,
)
from klctrl.oracle import expected_cost

from conftest import random_problem

M1_V0 = -np.log(0.5 * (1 + np.exp(-1)))


def test_enumeration_row_counts(m1, rng):
    table = enumerate_trajectories(m1, m1.baseline_policy, m1.baseline_kernels)
    assert len(table) == 2  # Dirac start and kernels: one trajectory per action
    full = random_problem(rng, num_states=2, num_actions=2, horizon=2)
    table = enumerate_trajectories(full, full.baseline_policy, full.baseline_kernels)
    assert len(table) == 2 * (2 * 2) ** 2  # p0 x (action, next state) per step
    one = random_problem(rng, num_states=3, num_actions=1, horizon=2, dirac=True)
    p0 = np.zeros(3)
    p0[0] = 1.0
    one = one.replace(initial_distribution=p0)
    table = enumerate_trajectories(one, one.baseline_policy, one.baseline_kernels)
    assert len(table) == 1


def test_exact_risk_objective_on_m1(m1):
    table = enumerate_trajectories(m1, m1.baseline_policy, m1.baseline_kernels)
    seeking = exact_risk_objective(table, 1.0)
    assert seeking == pytest.approx(M1_V0, abs=1e-12)
    averse = exact_risk_objective(table, -1.0)
    assert averse == pytest.approx(np.log(0.5 * np.e + 0.5), abs=1e-12)
    assert averse == pytest.approx(0.620115, abs=1e-6)


def test_expected_cost_on_m1(m1):
    table = enumerate_trajectories(m1, m1.baseline_policy, m1.baseline_kernels)
    assert expected_cost(table) == pytest.approx(0.5, abs=1e-14)


def test_posterior_on_m1(m1):
    post = exact_posterior(m1, m1.baseline_policy, 1.0)
    probs = {tuple(traj.actions): p for traj, p in zip(post.trajectories(), post.probs)}
    assert probs[(0,)] == pytest.approx(0.26894142136999510, abs=1e-12)
    assert probs[(1,)] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_posterior_sharpens_with_lambda(m1):
    post = exact_posterior(m1, m1.baseline_policy, 2.0)
    probs = {tuple(traj.actions): p for traj, p in zip(post.trajectories(), post.probs)}
    assert probs[(1,)] == pytest.approx(1 / (1 + np.exp(-2)), abs=1e-12)
    assert probs[(1,)] == pytest.approx(0.880797, abs=1e-6)


def test_tilt_semigroup(rng):
    problem = random_problem(rng, num_states=3, num_actions=2, horizon=2)
    table = enumerate_trajectories(problem, problem.baseline_policy, problem.baseline_kernels)
    once = tilt_table(tilt_table(table, 0.4), 0.9)
    combined = tilt_table(table, 1.3)
    np.testing.assert_allclose(once.probs, combined.probs, atol=1e-12)


def test_tilt_preserves_normalization(rng):
    problem = random_problem(rng)
    table = enumerate_trajectories(problem, problem.baseline_policy, problem.baseline_kernels)
    for lam in (0.5, -0.5, 3.0):
        assert tilt_table(table, lam).total_probability() == pytest.approx(1.0, abs=1e-9)


def test_conditional_policy_reproduces_posterior_action_marginals(rng):
    for _ in range(10):
        problem = random_problem(rng, lambda_s=1.0)
        post = exact_posterior(problem, problem.baseline_policy, problem.lambda_s)
        cond = conditional_policy(post)
        for t in range(problem.horizon):
            joint = np.zeros((problem.num_states, problem.num_actions))
            np.add.at(joint, (post.states[:, t], post.actions[:, t]), post.probs)
            marg = joint.sum(axis=1)
            for x in range(problem.num_states):
                if marg[x] > 1e-12:
                    np.testing.assert_allclose(
                        cond.table[t, x], joint[x] / marg[x], atol=1e-10
                    )


def test_conditional_policy_unvisited_rows_fall_back_to_baseline(m1):
    post = exact_posterior(m1, m1.baseline_policy, 1.0)
    cond = conditional_policy(post)
    # state 1 is unreachable at t=0
    np.testing.assert_allclose(cond.table[0, 1], m1.baseline_policy.table[0, 1])


def test_brute_force_on_m1(m1):
    policy, value = brute_force_policy_search(m1, "soc")
    assert value == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(policy.table[0, 0], [0.0, 1.0])


def test_brute_force_rsoc_matches_solver(rng):
    for _ in range(10):
        problem = random_problem(rng, max_states=3, max_actions=2, max_horizon=3)
        _, value = brute_force_policy_search(problem, "rsoc", problem.lambda_s)
        sol = solve_formulation(problem, Formulation.RSOC)
        assert initial_value(problem, sol) == pytest.approx(value, abs=1e-9)


def test_brute_force_soc_matches_solver(rng):
    for _ in range(10):
        problem = random_problem(rng, max_states=3, max_actions=2, max_horizon=3)
        _, value = brute_force_policy_search(problem, "soc")
        sol = solve_formulation(problem, Formulation.SOC)
        assert initial_value(problem, sol) == pytest.approx(value, abs=1e-9)


def test_brute_force_soc_equals_rsoc_on_dirac(rng):
    for _ in range(5):
        problem = random_problem(rng, max_states=3, max_actions=2, max_horizon=3, dirac=True)
        _, v_soc = brute_force_policy_search(problem, "soc")
        for lam in (0.8, -0.8):
            _, v_rsoc = brute_force_policy_search(problem, "rsoc", lam)
            assert v_rsoc == pytest.approx(v_soc, abs=1e-10)


def test_brute_force_returns_a_deterministic_policy(rng):
    problem = random_problem(rng)
    policy, _ = brute_force_policy_search(problem, "soc")
    assert np.all(np.isin(policy.table, (0.0, 1.0)))
    np.testing.assert_allclose(policy.table.sum(axis=-1), 1.0)


def test_enumeration_cap_raises(rng):
    problem = random_problem(rng, num_states=4, num_actions=4, horizon=4)
    with pytest.raises(EnumerationCapError):
        enumerate_trajectories(
            problem, problem.baseline_policy, problem.baseline_kernels, cap=100
        )


def test_over_cap_stage_is_refused_before_it_is_built(rng):
    # full support on (6, 6, 6): stage 3 needs 6^3 * 36^3 = 10,077,696 rows;
    # building that stage's step table and indices would take ~300 MB
    problem = random_problem(rng, num_states=6, num_actions=6, horizon=6)
    assert problem.initial_distribution.min() > 0
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match="10077696 rows at stage 3"):
            enumerate_trajectories(
                problem, problem.baseline_policy, problem.baseline_kernels
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_policy_sweep_cap_raises(rng):
    problem = random_problem(rng, num_states=4, num_actions=4, horizon=4)
    with pytest.raises(EnumerationCapError):
        brute_force_policy_search(problem, "soc", cap=1000)


def test_posterior_requires_positive_lambda(m1):
    with pytest.raises(ValueError):
        exact_posterior(m1, m1.baseline_policy, -1.0)


def _output(form, kw, with_kernel):
    words = [form.value, *kw] + (["tau"] if with_kernel else [])
    return pytest.param(form, kw, with_kernel, id="-".join(words))


# every solver output, scored with tau* where the transitions are free
SOLVER_OUTPUTS = [
    _output(Formulation.CENTRAL, {}, True),
    _output(Formulation.SOC, {}, False),
    _output(Formulation.SP_SOC, {}, False),
    _output(Formulation.RSOC, {}, True),
    _output(Formulation.RSOC, {}, False),
    _output(Formulation.SP_RSOC, {}, True),
    _output(Formulation.SP_RSOC, {"synchronized": True}, True),
    _output(Formulation.SP_RSOC, {"table_literal": True}, True),
    _output(Formulation.DOC, {}, False),
    _output(Formulation.SP_DOC, {}, False),
]


@pytest.mark.parametrize("lam_s", [0.7, -1.3])
@pytest.mark.parametrize("form, kw, with_kernel", SOLVER_OUTPUTS)
def test_evaluate_objective_scores_each_solver_output_at_its_value(
    rng, form, kw, with_kernel, lam_s
):
    dirac = form in (Formulation.DOC, Formulation.SP_DOC)
    for _ in range(5):
        problem = random_problem(
            rng, max_states=3, max_actions=3, max_horizon=3, dirac=dirac, lambda_s=lam_s
        )
        sol = solve_formulation(problem, form, **kw)
        kernel = sol.tau_star if with_kernel else None
        value = evaluate_objective(problem, form, sol.pi_star, kernel, **kw)
        assert value == pytest.approx(initial_value(problem, sol), abs=1e-9)


@pytest.mark.parametrize(
    "form, kw, with_kernel",
    [
        _output(Formulation.SOC, {}, True),
        _output(Formulation.SP_SOC, {}, True),
        _output(Formulation.DOC, {}, True),
        _output(Formulation.SP_DOC, {}, True),
        _output(Formulation.CENTRAL, {}, False),
        _output(Formulation.SP_RSOC, {}, False),
        _output(Formulation.SP_RSOC, {"synchronized": True}, False),
    ],
)
def test_evaluate_objective_refuses_a_kernel_that_does_not_fit(m1, form, kw, with_kernel):
    kernel = m1.baseline_kernels if with_kernel else None
    if with_kernel:
        message = f"^{form.value} has no free transition kernel$"
    else:
        message = f"^{form.value} needs an explicit transition kernel$"
    with pytest.raises(ValueError, match=message):
        evaluate_objective(m1, form, m1.baseline_policy, kernel, **kw)


def test_trajectories_stay_inside_the_oracle():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(klctrl.__file__).resolve().parent.glob("*.py")
    }

    def referenced(tree):
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
        return out

    # __init__.py only re-exports the public names
    enumerating = {
        name
        for name, tree in trees.items()
        if name != "__init__.py" and "enumerate_trajectories" in referenced(tree)
    }
    assert enumerating == {"oracle.py", "verify.py"}
    solver_imports = [
        node for node in ast.walk(trees["solvers.py"]) if isinstance(node, ast.ImportFrom)
    ]
    assert not any(node.module == "oracle" for node in solver_imports)
    assert not any(
        alias.name == "oracle" for node in solver_imports for alias in node.names
    )
    model_defs = {
        node.name
        for node in trees["model.py"].body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    moved = {"Trajectory", "cumulative_cost", "trajectory_log_prob", "trajectory_kl"}
    assert not model_defs & moved


SOLVER_ROW_OPERATORS = {
    "_log_sum",
    "log_expect_exp",
    "entropic_risk_rows",
    "tilted_rows",
    "risk_and_tilted_rows",
}


def _referenced(tree):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_reference_values_stay_apart_from_the_solver_row_operators():
    package = Path(klctrl.__file__).resolve().parent

    def functions(name):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}, tree

    risk_defs, _ = functions("risk.py")
    verify_defs, _ = functions("verify.py")
    _, oracle_tree = functions("oracle.py")
    reference = ["entropic_risk", "tilted_distribution", "dual_certificate", "_reference_log_sum"]
    todo = [oracle_tree, verify_defs["_central_bellman_residual"]]
    todo += [risk_defs[name] for name in reference]
    # follow calls into risk's own helpers, so none can hide a row operator
    reached, seen = set(), set(reference)
    while todo:
        names = _referenced(todo.pop())
        reached |= names
        for name in (names & set(risk_defs)) - seen:
            seen.add(name)
            todo.append(risk_defs[name])
    assert not reached & SOLVER_ROW_OPERATORS
    assert "_reference_log_sum" in _referenced(oracle_tree)
    assert "_reference_log_sum" in _referenced(verify_defs["_central_bellman_residual"])
