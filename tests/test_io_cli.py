import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import klctrl
import numpy as np
import pytest

from klctrl import (
    ProblemFormatError,
    ProblemValidationError,
    bundled_problem_path,
    dump_problem,
    load_bundled_problem,
    load_problem,
)
from klctrl.cli import main
from klctrl.problem_io import parse_problem, problem_to_dict, write_json

from conftest import random_problem


def minimal_doc():
    return {
        "horizon": 1,
        "num_states": 2,
        "num_actions": 2,
        "initial_distribution": [1.0, 0.0],
        "transitions": [[[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]],
        "stage_costs": [[[0.0, 0.0], [0.0, 0.0]]],
        "terminal_cost": [1.0, 0.0],
    }


def test_minimal_document_parses_with_uniform_default_policy():
    problem, components = parse_problem(minimal_doc())
    assert components is None
    np.testing.assert_allclose(problem.baseline_policy.table, 0.5)
    assert problem.lambda_p is None


def test_unknown_key_is_rejected():
    doc = minimal_doc()
    doc["stage_cost"] = doc.pop("stage_costs")
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)


def test_missing_key_is_rejected():
    doc = minimal_doc()
    del doc["transitions"]
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)


def test_stage_free_tables_need_the_homogeneous_flag():
    doc = minimal_doc()
    doc["stage_costs"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    doc["time_homogeneous"] = True
    doc["transitions"] = doc["transitions"][0]
    problem, _ = parse_problem(doc)
    assert problem.stage_costs.shape == (1, 2, 2)


def test_bad_row_sums_are_caught_by_validation():
    # schema checks pass; the semantic check reports the bad distribution
    from klctrl import validate_problem

    doc = minimal_doc()
    doc["initial_distribution"] = [0.7, 0.7]
    problem, _ = parse_problem(doc)
    violations = validate_problem(problem)
    assert any("initial_distribution" in v for v in violations)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literals_are_refused(tmp_path, capsys, literal):
    text = json.dumps(minimal_doc() | {"lambda_p": 1.0, "lambda_s": 1.0})
    path = tmp_path / "p.json"
    path.write_text(text.replace('"lambda_s": 1.0', f'"lambda_s": {literal}'))
    with pytest.raises(ProblemFormatError, match=f"non-finite literal {literal}"):
        load_problem(path)
    out = tmp_path / "sol.json"
    args = ["solve", "--problem", str(path), "--formulation", "central", "--out", str(out)]
    assert main(args) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "field",
    [
        {"lambda_p": [1]},
        {"transitions": {"a": 1}},
        {"components": [5]},
        {"components": [{"terminal_cost": [0, 1], "gamma": "x"}]},
    ],
    ids=["lambda_p-list", "transitions-object", "component-number", "gamma-string"],
)
def test_malformed_field_types_are_format_errors(tmp_path, field):
    doc = minimal_doc() | field
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    src = str(Path(klctrl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["solve", "--problem", str(path), "--formulation", "soc", "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "klctrl.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "field",
    [
        {"horizon": 1.9},
        {"horizon": True},
        {"num_states": "2"},
        {"num_actions": 2.0},
        {"time_homogeneous": "no"},
        {"time_homogeneous": 1},
        {"lambda_p": "1.5"},
        {"lambda_p": True},
        {"lambda_s": "-1"},
        {"initial_distribution": ["1", "0"]},
        {"terminal_cost": [None, 0.0]},
        {"stage_costs": [[[False, False], [False, False]]]},
        {"terminal_cost": [True, 0.5]},
        {"stage_costs": [[[0.0, 1], [2, False]]]},
        {"initial_distribution": [1, False]},
        {"components": [{"terminal_cost": [0, 1], "gamma": True}]},
        {"components": [{"terminal_cost": [0.0, True], "gamma": 1.0}]},
    ],
    ids=[
        "horizon-float",
        "horizon-bool",
        "num_states-string",
        "num_actions-float",
        "time_homogeneous-string",
        "time_homogeneous-number",
        "lambda_p-string",
        "lambda_p-bool",
        "lambda_s-string",
        "initial_distribution-strings",
        "terminal_cost-null",
        "stage_costs-bools",
        "terminal_cost-bool-among-floats",
        "stage_costs-bool-among-numbers",
        "initial_distribution-bool-among-ints",
        "gamma-bool",
        "component-terminal_cost-bool-among-floats",
    ],
)
def test_fields_are_not_coerced(tmp_path, field):
    doc = minimal_doc() | field
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    args = ["solve", "--problem", str(path), "--formulation", "soc", "--out", str(tmp_path / "o")]
    assert main(args) == 1


@pytest.mark.parametrize(
    "field",
    [
        {"terminal_cost": [10**20, 0.5]},
        {"initial_distribution": [1, -(2**63) - 1]},
        {"stage_costs": [[[0.0, 0.0], [0.0, 2**64]]]},
    ],
    ids=["past-2**64", "below-int64", "2**64"],
)
def test_integers_past_64_bits_are_refused_as_out_of_range(tmp_path, capsys, field):
    doc = minimal_doc() | field
    with pytest.raises(ProblemFormatError, match="out of range"):
        parse_problem(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    args = ["solve", "--problem", str(path), "--formulation", "soc", "--out", str(tmp_path / "o")]
    assert main(args) == 1
    assert "out of range" in capsys.readouterr().err


def test_tables_with_zeros_and_ones_still_parse():
    doc = minimal_doc() | {"terminal_cost": [1, 0.0], "stage_costs": [[[0, 1.0], [1, 0]]]}
    problem, _ = parse_problem(doc)
    np.testing.assert_array_equal(problem.terminal_cost, [1.0, 0.0])
    np.testing.assert_array_equal(problem.stage_costs, [[[0.0, 1.0], [1.0, 0.0]]])


def test_cli_mm_rsoc_without_lambda_s_exits_1(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(minimal_doc()))
    src = str(Path(klctrl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [
        "mm", "--problem", str(path), "--target", "rsoc", "--lambda-p", "1.0",
        "--tol", "1e-8", "--max-iters", "5", "--out", str(tmp_path / "o.json"),
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "klctrl.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "lambda_s" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_sample_z_refuses_an_out_of_range_seed(tmp_path, seed):
    src = str(Path(klctrl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "o.json"
    args = [
        "sample-z", "--problem", str(bundled_problem_path("chain5")), "--lambda", "1.0",
        "--t", "0", "--state", "0", "--samples", "10", "--seed", seed, "--out", str(out),
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "klctrl.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "seed must be an integer" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_import_needs_numpy_alone():
    src = str(Path(klctrl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, klctrl, klctrl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_adds_only_stdlib_numpy_and_klctrl():
    # numpy is the only runtime dependency, and `import klctrl` is part of
    # every in-process benchmark set-up.
    src = str(Path(klctrl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; before = set(sys.modules); import klctrl; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(*sorted(added - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"klctrl", "numpy"}


def test_components_round_trip(tmp_path, rng):
    problem = random_problem(rng)
    path = tmp_path / "p.json"
    dump_problem(problem, path)
    again, _ = load_problem(path)
    np.testing.assert_array_equal(again.stage_costs, problem.stage_costs)
    np.testing.assert_array_equal(
        again.baseline_kernels.table, problem.baseline_kernels.table
    )
    np.testing.assert_array_equal(
        again.initial_distribution, problem.initial_distribution
    )
    assert again.lambda_p == problem.lambda_p
    assert again.lambda_s == problem.lambda_s


def test_round_trip_is_bitwise_exact(tmp_path, rng):
    problem = random_problem(rng)
    path = tmp_path / "p.json"
    dump_problem(problem, path)
    again, _ = load_problem(path)
    assert problem_to_dict(again) == problem_to_dict(problem)


def test_bundled_problems_load():
    for name in ("m1", "chain5", "grid4x4"):
        problem, _ = load_bundled_problem(name)
        assert problem.num_states >= 2
    with pytest.raises(FileNotFoundError):
        bundled_problem_path("nope")


def test_cli_solve_json(tmp_path):
    out = tmp_path / "sol.json"
    code = main(
        [
            "solve",
            "--problem", str(bundled_problem_path("m1")),
            "--formulation", "central",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["formulation"] == "central"
    assert payload["V"][0][0] == pytest.approx(-np.log(0.5 * (1 + np.exp(-1))), abs=1e-12)


def test_cli_soc_and_rsoc_agree_on_deterministic_dynamics(tmp_path):
    # apart from the formulation tag the two outputs must be identical
    outputs = {}
    for form in ("soc", "rsoc"):
        out = tmp_path / f"{form}.json"
        assert main(
            [
                "solve",
                "--problem", str(bundled_problem_path("m1")),
                "--formulation", form,
                "--out", str(out),
            ]
        ) == 0
        outputs[form] = json.loads(out.read_text())
    assert outputs["soc"].pop("formulation") == "soc"
    assert outputs["rsoc"].pop("formulation") == "rsoc"
    assert outputs["soc"] == outputs["rsoc"]


def _solution_tables_from_csv(path, like):
    """The V, Q, pi and tau tables of a CSV solution, shaped as ``like``, and
    its number of lines."""
    tables = {name: np.full(np.shape(like[name]), np.nan) for name in ("V", "Q", "pi", "tau")}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[:2] == [
        ["formulation", like["formulation"], "", "", "", ""],
        ["table", "t", "x", "u", "x_next", "value"],
    ]
    for name, *index, value in rows[2:]:
        tables[name][tuple(int(i) for i in index if i)] = float(value)
    return tables, len(rows)


def test_cli_solve_csv_has_full_precision(tmp_path):
    # every CSV entry is bit-for-bit the JSON output of the same solve
    for name, form in (("grid4x4", "central"), ("chain5", "soc")):
        outputs = {}
        for fmt in ("json", "csv"):
            outputs[fmt] = tmp_path / f"{name}.{fmt}"
            assert main(
                [
                    "solve",
                    "--problem", str(bundled_problem_path(name)),
                    "--formulation", form,
                    "--out", str(outputs[fmt]),
                    "--format", fmt,
                ]
            ) == 0
        payload = json.loads(outputs["json"].read_text())
        tables, num_rows = _solution_tables_from_csv(outputs["csv"], payload)
        assert num_rows == 2 + sum(table.size for table in tables.values())
        for key, table in tables.items():
            assert table.tobytes() == np.asarray(payload[key], dtype=float).tobytes(), key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_csv_refuses_a_non_finite_value_as_json_does(tmp_path):
    # each cost passes validation, but their sums overflow to inf
    m1, _ = load_bundled_problem("m1")
    huge = m1.replace(
        stage_costs=np.full(m1.stage_costs.shape, 1.5e308),
        terminal_cost=np.full(m1.terminal_cost.shape, 1.5e308),
    )
    path = tmp_path / "huge.json"
    dump_problem(huge, path)
    for fmt in ("json", "csv"):
        out = tmp_path / f"sol.{fmt}"
        args = ["solve", "--problem", str(path), "--formulation", "soc", "--format", fmt]
        assert main(args + ["--out", str(out)]) == 1
        assert not out.exists()


def test_cli_dump_problem_round_trips(tmp_path):
    dumped = tmp_path / "again.json"
    out = tmp_path / "sol.json"
    assert main(
        [
            "solve",
            "--problem", str(bundled_problem_path("grid4x4")),
            "--formulation", "central",
            "--out", str(out),
            "--dump-problem", str(dumped),
        ]
    ) == 0
    original, _ = load_bundled_problem("grid4x4")
    again, _ = load_problem(dumped)
    assert problem_to_dict(again) == problem_to_dict(original)


def test_cli_mm_and_em(tmp_path):
    out = tmp_path / "mm.json"
    assert main(
        [
            "mm",
            "--problem", str(bundled_problem_path("m1")),
            "--target", "soc",
            "--lambda-p", "1.0",
            "--tol", "1e-10",
            "--max-iters", "200",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"]
    drops = np.diff([row["true_objective"] for row in payload["trace"]])
    assert np.all(drops <= 1e-12)

    out = tmp_path / "em.json"
    assert main(
        [
            "em",
            "--problem", str(bundled_problem_path("m1")),
            "--lambda", "1.0",
            "--tol", "1e-10",
            "--max-iters", "200",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"]


def test_cli_sample_z_is_chunk_independent(tmp_path):
    payloads = []
    for chunk in ("64", "1000"):
        out = tmp_path / f"z{chunk}.json"
        assert main(
            [
                "sample-z",
                "--problem", str(bundled_problem_path("chain5")),
                "--lambda", "1.0",
                "--t", "0",
                "--state", "0",
                "--samples", "1000",
                "--seed", "7",
                "--chunk-size", chunk,
                "--out", str(out),
            ]
        ) == 0
        payloads.append(json.loads(out.read_text()))
    assert payloads[0]["estimate"] == payloads[1]["estimate"]
    assert payloads[0]["standard_error"] == payloads[1]["standard_error"]


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def test_cli_mm_writes_strict_json(tmp_path):
    out = tmp_path / "mm.json"
    assert main(
        [
            "mm",
            "--problem", str(bundled_problem_path("grid4x4")),
            "--target", "rsoc",
            "--lambda-p", "1",
            "--tol", "0",
            "--max-iters", "3",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text(), parse_constant=_refuse_constant)
    deltas = [row["value_delta"] for row in payload["trace"]]
    assert deltas[0] is None
    assert all(np.isfinite(deltas[1:]))


def test_cli_sample_z_rejects_nonpositive_chunk_size(tmp_path, capsys):
    out = tmp_path / "z.json"
    code = main(
        [
            "sample-z",
            "--problem", str(bundled_problem_path("chain5")),
            "--lambda", "1.0",
            "--t", "0",
            "--state", "0",
            "--samples", "1000",
            "--seed", "0",
            "--chunk-size", "-5",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert "chunk_size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_refuses_to_write_a_non_finite_value(tmp_path, capsys):
    # exp(-lambda * cost) overflows to inf on the cheap terminal state
    m1, _ = load_bundled_problem("m1")
    path = tmp_path / "steep.json"
    dump_problem(m1.replace(terminal_cost=[-1000.0, 0.0]), path)
    out = tmp_path / "z.json"
    code = main(
        [
            "sample-z",
            "--problem", str(path),
            "--lambda", "1.0",
            "--t", "0",
            "--state", "0",
            "--samples", "100",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert "JSON" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compose(tmp_path):
    out = tmp_path / "comp.json"
    assert main(
        [
            "compose",
            "--problem", str(bundled_problem_path("chain5")),
            "--lambda", "1.0",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    weights = np.asarray(payload["weights"])
    np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-12)


def test_cli_compose_without_components_fails(tmp_path):
    out = tmp_path / "comp.json"
    code = main(
        [
            "compose",
            "--problem", str(bundled_problem_path("m1")),
            "--lambda", "1.0",
            "--out", str(out),
        ]
    )
    assert code == 1


def test_cli_verify_bundled_corpus(capsys):
    for name in ("m1", "chain5", "grid4x4"):
        code = main(["verify", "--problem", str(bundled_problem_path(name))])
        captured = capsys.readouterr()
        assert code == 0, f"{name}:\n{captured.out}"
        assert "FAIL" not in captured.out


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "missing.json"
    out = tmp_path / "out.json"
    assert main(
        ["solve", "--problem", str(missing), "--formulation", "soc", "--out", str(out)]
    ) == 1

    bad = tmp_path / "bad.json"
    doc = minimal_doc()
    doc["bogus"] = 1
    bad.write_text(json.dumps(doc))
    assert main(
        ["solve", "--problem", str(bad), "--formulation", "soc", "--out", str(out)]
    ) == 1

    rows = tmp_path / "rows.json"
    doc = minimal_doc()
    doc["initial_distribution"] = [0.7, 0.7]
    rows.write_text(json.dumps(doc))
    assert main(
        ["solve", "--problem", str(rows), "--formulation", "soc", "--out", str(out)]
    ) == 1


def test_cli_cap_exit_code(tmp_path, rng):
    # large enough that the deterministic-policy sweep in verify cannot run,
    # but verify merely skips; the cap exit is exercised through solve's
    # objective-evaluation path is not applicable, so use verify on a file
    # whose enumeration itself blows the trajectory cap.
    problem = random_problem(rng, num_states=6, num_actions=6, horizon=6)
    path = tmp_path / "big.json"
    dump_problem(problem, path)
    code = main(["verify", "--problem", str(path)])
    assert code == 2


@pytest.mark.parametrize("num_states", [3, 6], ids=["sweep", "sweep-past-cap"])
def test_verify_solves_soc_and_rsoc_once(monkeypatch, rng, num_states):
    # a Dirac-kernel problem runs the deterministic-collapse check; at six
    # states the policy sweep is past its cap and is skipped
    import klctrl.verify as kv

    calls = []
    solve = kv.solve_formulation
    monkeypatch.setattr(
        kv, "solve_formulation", lambda p, f, **kw: calls.append(f.value) or solve(p, f, **kw)
    )
    problem = random_problem(rng, num_states=num_states, num_actions=3, horizon=3, dirac=True)
    results = {r.name: r.status for r in kv.run_checks(problem)}
    assert results["deterministic-collapse"] == "pass"
    assert results["soc-matches-policy-sweep"] == ("pass" if num_states == 3 else "skip")
    assert calls == ["soc", "rsoc"]


def test_dump_problem_refuses_a_non_finite_table(tmp_path):
    m1, _ = load_bundled_problem("m1")
    costs = m1.stage_costs.copy()
    costs[0, 0, 1] = np.nan
    path = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        dump_problem(m1.replace(stage_costs=costs), path)
    assert not path.exists()


def test_a_refused_write_leaves_an_existing_file_as_it_was(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"x": 1.0})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json(path, {"x": float("nan")})
    assert path.read_bytes() == before


BAD_KERNEL_ROWS = [
    "tau(0, 0, 0): row sum 1.1 != 1",
    "tau(0, 1, 1, 0): negative entry -0.5",
]


def _m1_file_with_two_bad_kernel_rows(tmp_path):
    m1, _ = load_bundled_problem("m1")
    doc = problem_to_dict(m1)
    doc["transitions"][0][0][0] = [0.5, 0.6]
    doc["transitions"][0][1][1] = [-0.5, 1.5]
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(doc))
    return path


def test_bad_kernel_rows_in_a_file_keep_their_violations(tmp_path):
    path = _m1_file_with_two_bad_kernel_rows(tmp_path)
    with pytest.raises(ProblemValidationError) as err:
        load_problem(path)
    assert err.value.violations == BAD_KERNEL_ROWS


def test_cli_prints_each_bad_kernel_row_on_its_own_line(tmp_path, capsys):
    path = _m1_file_with_two_bad_kernel_rows(tmp_path)
    out = tmp_path / "out.json"
    code = main(["solve", "--problem", str(path), "--formulation", "soc", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == BAD_KERNEL_ROWS


def test_verify_residual_sees_a_fault_in_the_solver_rows(monkeypatch, capsys):
    import klctrl.solvers as ks
    import klctrl.verify as kv
    from klctrl.risk import entropic_risk_rows

    def shifted(mu, f, lam):
        return entropic_risk_rows(mu, f, lam) + 1e-6

    monkeypatch.setattr(ks, "entropic_risk_rows", shifted)
    monkeypatch.setattr(kv, "entropic_risk_rows", shifted, raising=False)
    problem, components = load_bundled_problem("chain5")
    results = {r.name: r for r in kv.run_checks(problem, components)}
    assert results["central-bellman-residual"].status == "fail"


def test_cli_reports_an_out_path_that_is_a_directory(tmp_path, capsys):
    args = ["solve", "--problem", str(bundled_problem_path("m1")), "--formulation", "soc"]
    assert main(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Is a directory" in err[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_refused_solution_write_leaves_no_dumped_problem(tmp_path, capsys):
    # each cost passes validation, but their sums overflow to inf
    m1, _ = load_bundled_problem("m1")
    huge = m1.replace(
        stage_costs=np.full(m1.stage_costs.shape, 1.5e308),
        terminal_cost=np.full(m1.terminal_cost.shape, 1.5e308),
    )
    path = tmp_path / "huge.json"
    dump_problem(huge, path)
    dumped, out = tmp_path / "dumped.json", tmp_path / "sol.csv"
    args = ["solve", "--problem", str(path), "--formulation", "soc", "--format", "csv"]
    assert main(args + ["--out", str(out), "--dump-problem", str(dumped)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "V holds a non-finite value, which CSV output refuses"
    ]
    assert not dumped.exists() and not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ([minimal_doc()], "problem file must be a JSON object"),
        (
            minimal_doc() | {"stage_costs": [[0.0, 0.0, 0.0]]},
            "stage_costs has shape (1, 3); expected (1, 2, 2) or (2, 2)",
        ),
        (
            minimal_doc() | {"initial_distribution": [1.0]},
            "initial_distribution must have one entry per state",
        ),
        (
            minimal_doc() | {"terminal_cost": [1.0, 0.0, 0.0]},
            "terminal_cost must have one entry per state",
        ),
        (minimal_doc() | {"components": []}, "components must be a nonempty list"),
        (minimal_doc() | {"components": {}}, "components must be a nonempty list"),
        (
            minimal_doc() | {"components": [{"terminal_cost": [0.0], "gamma": 1.0}]},
            "components[0].terminal_cost must have one entry per state",
        ),
        ('{"horizon": 1,', "invalid JSON: "),
    ],
    ids=[
        "not-an-object",
        "stage-costs-shape",
        "initial-length",
        "terminal-length",
        "components-empty",
        "components-object",
        "component-terminal-length",
        "not-json",
    ],
)
def test_problem_file_refusals_name_the_fault(tmp_path, doc, message):
    path = tmp_path / "p.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ProblemFormatError) as err:
        load_problem(path)
    assert str(err.value).startswith(message)


def test_verify_skips_the_checks_whose_weights_are_missing():
    import klctrl.verify as kv

    m1, _ = load_bundled_problem("m1")
    results = {r.name: r for r in kv.run_checks(m1.replace(lambda_p=None))}
    assert results["central-bellman-residual"].status == "skip"
    assert results["central-bellman-residual"].detail == "lambda_p/lambda_s not set"
    chain5, components = load_bundled_problem("chain5")
    results = {r.name: r for r in kv.run_checks(chain5.replace(lambda_s=-0.5), components)}
    for name in ("compositionality", "linear-bellman-equivalence"):
        assert results[name].status == "skip"
        assert results[name].detail == "needs lambda_s > 0"


def horizon_zero_doc():
    """A time-homogeneous (T, S, A) = (0, 2, 2) problem: no stage at all."""
    return minimal_doc() | {
        "horizon": 0,
        "time_homogeneous": True,
        "transitions": [[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.3, 0.7]]],
        "stage_costs": [[1.0, 2.0], [0.5, 0.0]],
        "lambda_p": 1.0,
        "lambda_s": 0.5,
    }


def test_cli_mm_em_and_verify_run_on_a_horizon_zero_problem(tmp_path, capsys):
    path, out = tmp_path / "h0.json", tmp_path / "out.json"
    path.write_text(json.dumps(horizon_zero_doc()))
    stop = ["--tol", "1e-10", "--max-iters", "5", "--out", str(out)]
    for target in ("soc", "rsoc"):
        args = ["mm", "--problem", str(path), "--target", target, "--lambda-p", "1.0"]
        assert main(args + stop) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] and payload["iterations"] == 1
    assert main(["em", "--problem", str(path), "--lambda", "1.0"] + stop) == 0
    assert json.loads(out.read_text())["converged"]
    capsys.readouterr()
    assert main(["verify", "--problem", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "PASS validation"
    assert all(line.startswith(("PASS ", "SKIP ")) for line in lines)


def test_a_horizon_zero_problem_round_trips_through_its_dump(tmp_path):
    problem, _ = parse_problem(horizon_zero_doc())
    dump_problem(problem, tmp_path / "dumped.json")
    again, _ = load_problem(tmp_path / "dumped.json")
    for name in ("initial_distribution", "stage_costs", "terminal_cost"):
        assert np.array_equal(getattr(again, name), getattr(problem, name)), name
    assert np.array_equal(again.baseline_kernels.table, problem.baseline_kernels.table)
    assert np.array_equal(again.baseline_policy.table, problem.baseline_policy.table)
    assert again.baseline_kernels.table.shape == (0, 2, 2, 2)

    path, dumped = tmp_path / "h0.json", tmp_path / "cli-dumped.json"
    path.write_text(json.dumps(horizon_zero_doc()))
    args = ["solve", "--formulation", "central", "--out", str(tmp_path / "sol.json")]
    assert main(args + ["--problem", str(path), "--dump-problem", str(dumped)]) == 0
    assert main(args + ["--problem", str(dumped)]) == 0


def test_a_stage_free_empty_table_is_refused_past_horizon_zero():
    doc = minimal_doc() | {"transitions": []}
    with pytest.raises(ProblemFormatError, match=r"transitions has shape \(0,\)"):
        parse_problem(doc)


@pytest.mark.parametrize(
    "command, reasons",
    [
        (
            ["solve", "--formulation", "soc", "--format", "csv"],
            ["V holds a non-finite value, which CSV output refuses"],
        ),
        (
            ["solve", "--formulation", "central"],
            ["pi(0, 0): non-finite entry", "pi(0, 1): non-finite entry"],
        ),
        (
            ["mm", "--target", "soc", "--lambda-p", "1.0", "--tol", "1e-8", "--max-iters", "5"],
            ["pi(0, 0): non-finite entry", "pi(0, 1): non-finite entry"],
        ),
        (
            ["em", "--lambda", "1.0", "--tol", "1e-8", "--max-iters", "5"],
            ["desirability table is inconsistent with the problem: policy row sums deviate by nan"],
        ),
        (["verify"], ["pi(0, 0): non-finite entry", "pi(0, 1): non-finite entry"]),
    ],
    ids=["solve-soc-csv", "solve-central", "mm", "em", "verify"],
)
def test_an_overflowing_problem_prints_only_its_reasons(tmp_path, capsys, command, reasons):
    # each cost passes validation, but their sums overflow to inf; no
    # filterwarnings mark, so a numpy warning would fail this test
    m1, _ = load_bundled_problem("m1")
    huge = m1.replace(
        stage_costs=np.full(m1.stage_costs.shape, 1.5e308),
        terminal_cost=np.full(m1.terminal_cost.shape, 1.5e308),
    )
    path = tmp_path / "huge.json"
    dump_problem(huge, path)
    out = [] if command == ["verify"] else ["--out", str(tmp_path / "out")]
    assert main(command + ["--problem", str(path)] + out) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == reasons
    assert captured.out == ""
