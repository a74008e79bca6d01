"""Inputs that used to pass without a word: a formulation flag that does not
apply, and a key given twice in a problem file."""

import json

import pytest

from klctrl import (
    Formulation,
    ProblemFormatError,
    bundled_problem_path,
    load_problem,
    solve_formulation,
)
from klctrl.cli import main
from klctrl.oracle import evaluate_objective

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
