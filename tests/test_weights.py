"""One rule for every KL weight: finite, |lambda| >= 1e-12, and > 0 where the
site needs a positive weight.  Problem files and function arguments follow
the same rule, so a weight is refused where it enters, with one message."""

import numpy as np
import pytest

from klctrl import (
    ComponentSet,
    Formulation,
    ProblemValidationError,
    compose,
    dump_problem,
    em_solve,
    linear_backward,
    load_bundled_problem,
    mm_solve,
    path_integral_estimate,
    regularized_policy_value,
    solve_formulation,
    to_desirability,
    validate_problem,
)
from klctrl.cli import main
from klctrl.solvers import rsoc_value

FLOOR = ">= 1e-12"


def test_check_weight_accepts_and_refuses_by_one_rule():
    from klctrl.model import MIN_ABS_LAMBDA, check_weight

    assert MIN_ABS_LAMBDA == 1e-12
    for value in (1e-12, 0.5, 2, np.float64(3.0)):
        assert check_weight(value, "lam", positive=True) == float(value)
    assert type(check_weight(2, "lam", positive=True)) is float
    assert check_weight(-1e-12, "lambda_s", positive=False) == -1e-12
    for value in (0.0, 1e-13, -1e-13, 1e-300, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^lambda_s: must be finite and nonzero"):
            check_weight(value, "lambda_s", positive=False)
    for value in (-1.0, -1e-12, 0.0, 1e-13, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^lambda_p: must be finite and > 0"):
            check_weight(value, "lambda_p", positive=True)


@pytest.mark.parametrize("lam", [1e-15, -1e-15, 1e-300])
def test_rsoc_value_refuses_a_weight_below_the_floor(m1, lam):
    # m1's lambda -> 0 limit is 0.5; below the floor the risk step loses it to
    # rounding (0.444, 0.556 and 0 for these three weights)
    with pytest.raises(ValueError, match=FLOOR):
        rsoc_value(m1, m1.baseline_policy, lam)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: linear_backward(p, 1e-300),
        lambda p: linear_backward(p, 1e-13),
        lambda p: to_desirability(np.zeros(2), 1e-13),
        lambda p: compose(p, ComponentSet([[1.0, 0.0]], [1.0]), 1e-13),
        lambda p: path_integral_estimate(p, 1e-13, 0, 0, num_samples=10, seed=0),
    ],
    ids=[
        "linear_backward-1e-300", "linear_backward-1e-13", "to_desirability", "compose", "sampler"
    ],
)
def test_desirability_refuses_a_weight_below_the_floor(m1, call):
    with pytest.raises(ValueError, match=FLOOR):
        call(m1)


@pytest.mark.parametrize("lambda_s", [1e-13, -1e-13])
def test_solve_formulation_refuses_lambda_s_below_the_floor(lambda_s):
    problem = load_bundled_problem("grid4x4")[0].replace(lambda_s=lambda_s)
    with pytest.raises(ProblemValidationError) as err:
        solve_formulation(problem, Formulation.SOC)
    assert err.value.violations == validate_problem(problem)
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith("lambda_s: ") and FLOOR in err.value.violations[0]


def test_regularized_policy_value_refuses_an_infinite_lambda_s(m1):
    problem = m1.replace(lambda_s=np.inf)
    with pytest.raises(ValueError, match=FLOOR):
        regularized_policy_value(problem, "rsoc", m1.baseline_policy, m1.baseline_policy, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: mm_solve(p, "soc", np.inf, 1e-8, 5),
        lambda p: mm_solve(p, "rsoc", np.nan, 1e-8, 5),
        lambda p: mm_solve(p, "soc", 1e-13, 1e-8, 5),
        lambda p: em_solve(p, 1e-13, 1e-8, 5),
        lambda p: em_solve(p, np.inf, 1e-8, 5),
    ],
    ids=["mm-inf", "mm-nan", "mm-1e-13", "em-1e-13", "em-inf"],
)
def test_mm_and_em_refuse_a_weight_at_entry(m1, call):
    # refused by the entry check, not by a later sub-solve's validation
    with pytest.raises(ValueError, match=FLOOR) as err:
        call(m1)
    assert not isinstance(err.value, ProblemValidationError)


def test_cli_refuses_lambda_s_below_the_floor(tmp_path, capsys):
    path = tmp_path / "grid.json"
    dump_problem(load_bundled_problem("grid4x4")[0].replace(lambda_s=1e-13), path)
    assert main(["verify", "--problem", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL validation (lambda_s: ")
    out = tmp_path / "o.json"
    assert main(["solve", "--problem", str(path), "--formulation", "soc", "--out", str(out)]) == 1
    assert "lambda_s: " in capsys.readouterr().err
    assert not out.exists()
