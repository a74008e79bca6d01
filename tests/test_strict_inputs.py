"""Inputs that used to pass without a word: a formulation flag that does not
apply, a key given twice in a problem file, doc and sp_doc on stochastic
kernels, and a NaN cost under the backward evaluators."""

import json

import numpy as np
import pytest

from klctrl import (
    Formulation,
    ProblemFormatError,
    ProblemValidationError,
    bundled_problem_path,
    central_policy_value,
    load_bundled_problem,
    load_problem,
    regularized_policy_value,
    solve_formulation,
)
from klctrl.cli import main
from klctrl.oracle import evaluate_objective
from klctrl.solvers import expected_cost_under, rsoc_value

from conftest import make_m1


@pytest.mark.parametrize("form", [f for f in Formulation if f is not Formulation.SP_RSOC])
@pytest.mark.parametrize("flag", ["synchronized", "table_literal"])
def test_sp_rsoc_flags_are_refused_for_other_formulations(form, flag):
    m1 = make_m1()
    with pytest.raises(ValueError, match=f"sp_rsoc only, not {form.value}"):
        solve_formulation(m1, form, **{flag: True})
    solution = solve_formulation(m1, form)
    with pytest.raises(ValueError, match="sp_rsoc only"):
        evaluate_objective(m1, form, solution.pi_star, solution.tau_star, **{flag: True})


def test_cli_refuses_sync_for_other_formulations(tmp_path, capsys):
    out = tmp_path / "sol.json"
    args = ["solve", "--problem", str(bundled_problem_path("m1")), "--formulation", "soc"]
    assert main(args + ["--sync", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "synchronized / table_literal apply to sp_rsoc only, not soc"
    ]
    assert not out.exists()
    assert main(["solve", "--problem", str(bundled_problem_path("m1")), "--formulation",
                 "sp-rsoc", "--sync", "--out", str(out)]) == 0


def _with_duplicate(text, where, key, value):
    """``text`` of a JSON object with ``"key": value`` added again before the
    first closing brace after ``where``."""
    at = text.index("}", text.index(where))
    return text[:at] + f', "{key}": {json.dumps(value)}' + text[at:]


def test_duplicate_top_level_key_is_refused(tmp_path, capsys):
    text = bundled_problem_path("m1").read_text()
    assert '"lambda_s"' in text
    path = tmp_path / "dup.json"
    path.write_text(text.rstrip()[:-1] + ', "lambda_s": -3.0}')
    with pytest.raises(ProblemFormatError, match="duplicate key 'lambda_s'"):
        load_problem(path)
    assert main(["solve", "--problem", str(path), "--formulation", "soc",
                 "--out", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err.splitlines() == ["duplicate key 'lambda_s'"]
    assert not (tmp_path / "sol.json").exists()


def test_duplicate_key_in_a_component_is_refused(tmp_path):
    text = bundled_problem_path("chain5").read_text()
    assert '"components"' in text
    path = tmp_path / "dup.json"
    path.write_text(_with_duplicate(text, '"components"', "gamma", 2.0))
    with pytest.raises(ProblemFormatError, match="duplicate key 'gamma'"):
        load_problem(path)


@pytest.mark.parametrize("form", [Formulation.DOC, Formulation.SP_DOC])
def test_doc_forms_refuse_stochastic_kernels_in_solver_and_oracle(form):
    chain5, _ = load_bundled_problem("chain5")
    soc = solve_formulation(chain5, Formulation.SOC)
    message = r"doc/sp_doc require deterministic baseline kernels \(Dirac rows\)"
    with pytest.raises(ValueError, match=message):
        solve_formulation(chain5, form)
    with pytest.raises(ValueError, match=message):
        evaluate_objective(chain5, form, soc.pi_star)


@pytest.mark.parametrize(
    "form, twin",
    [(Formulation.DOC, Formulation.SOC), (Formulation.SP_DOC, Formulation.SP_SOC)],
)
def test_doc_forms_on_dirac_kernels_are_their_stochastic_twins(form, twin):
    m1 = make_m1()
    solution = solve_formulation(m1, form)
    assert np.array_equal(solution.V, solve_formulation(m1, twin).V)
    assert evaluate_objective(m1, form, solution.pi_star) == evaluate_objective(
        m1, twin, solution.pi_star
    )


def _evaluators(problem):
    policy, kernel = problem.baseline_policy, problem.baseline_kernels
    return [
        lambda: expected_cost_under(problem, policy),
        lambda: rsoc_value(problem, policy, 1.0),
        lambda: regularized_policy_value(problem, "rsoc", policy, policy, 1.0),
        lambda: central_policy_value(problem, policy, kernel),
    ]


def test_backward_evaluators_refuse_a_nan_cost():
    m1 = make_m1()
    costs = m1.stage_costs.copy()
    costs[0, 0, 1] = np.nan
    message = r"stage_costs\(0, 0, 1\): non-finite entry"
    for evaluate in _evaluators(m1.replace(stage_costs=costs)):
        with pytest.raises(ProblemValidationError, match=message):
            evaluate()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backward_evaluators_keep_the_value_of_a_valid_problem_that_overflows():
    # each cost passes validation, and their sums overflow as before: inf
    # times the zero initial mass of state 1 gives NaN
    m1 = make_m1()
    big = m1.replace(stage_costs=np.full((1, 2, 2), 1.5e308), terminal_cost=np.full(2, 1.5e308))
    for evaluate in _evaluators(big):
        assert np.isnan(evaluate())
