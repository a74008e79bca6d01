"""`klctrl solve --format csv` bytes against a csv.writer reference writer,
and the memory the CLI's writer needs."""

import csv
import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

from klctrl import Formulation, bundled_problem_path, load_problem, solve_formulation
from klctrl.cli import _FORM_FLAGS, _solution_payload, _write_solution_csv, main

from conftest import random_problem


def reference_csv(path, payload):
    """The same file written by ``csv.writer``, one tuple per entry."""
    tables = {name: table for name, table in payload.items() if name != "formulation"}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["formulation", payload["formulation"], "", "", "", ""])
        writer.writerow(["table", "t", "x", "u", "x_next", "value"])
        for name, table in tables.items():
            pad = [[""]] * (4 - table.ndim)
            for t, stage in enumerate(table):
                index = product([name], [t], *map(range, stage.shape), *pad)
                writer.writerows(i + (v,) for i, v in zip(index, stage.ravel().tolist()))


def assert_csv_matches_reference(tmp_path, problem_path, flag, sync=False):
    out = tmp_path / "out.csv"
    argv = ["solve", "--problem", str(problem_path), "--formulation", flag]
    argv += ["--format", "csv", "--out", str(out)] + (["--sync"] if sync else [])
    assert main(argv) == 0
    problem, _ = load_problem(problem_path)
    solution = solve_formulation(problem, _FORM_FLAGS[flag], synchronized=sync)
    reference_csv(tmp_path / "reference.csv", _solution_payload(solution))
    assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()


CORPUS_CASES = [
    (name, flag)
    for name in ("m1", "chain5", "grid4x4")
    for flag in sorted(_FORM_FLAGS)
    # doc and sp_doc need Dirac kernels, which only m1 has
    if name == "m1" or _FORM_FLAGS[flag] not in (Formulation.DOC, Formulation.SP_DOC)
]


@pytest.mark.parametrize("name, flag", CORPUS_CASES)
def test_csv_bytes_match_the_reference_on_the_corpus(tmp_path, name, flag):
    assert_csv_matches_reference(tmp_path, bundled_problem_path(name), flag)


@pytest.mark.parametrize("name", ["m1", "chain5", "grid4x4"])
def test_csv_bytes_match_the_reference_for_synchronized_sp_rsoc(tmp_path, name):
    assert_csv_matches_reference(tmp_path, bundled_problem_path(name), "sp-rsoc", sync=True)


def _homogeneous_doc(horizon, S=5, A=3, seed=3):
    """A time-homogeneous problem document with some zero kernel entries."""
    rng = np.random.default_rng(seed)
    kernels = rng.dirichlet(np.ones(S), size=(S, A))
    kernels[kernels < 0.1] = 0.0
    kernels /= kernels.sum(axis=-1, keepdims=True)
    return {
        "horizon": horizon,
        "num_states": S,
        "num_actions": A,
        "time_homogeneous": True,
        "initial_distribution": np.full(S, 1.0 / S).tolist(),
        "transitions": kernels.tolist(),
        "stage_costs": rng.uniform(0.0, 2.0, size=(S, A)).tolist(),
        "terminal_cost": rng.uniform(0.0, 2.0, size=S).tolist(),
        "lambda_p": 1.0,
        "lambda_s": 0.5,
    }


@pytest.mark.parametrize("horizon", [4, 0])
def test_csv_bytes_match_the_reference_on_a_homogeneous_file(tmp_path, horizon):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_homogeneous_doc(horizon)), encoding="utf-8")
    assert_csv_matches_reference(tmp_path, path, "central")


def test_csv_writer_holds_one_stage_of_text(tmp_path, rng):
    # tau is (20, 50, 5, 50): 250,000 rows, about 9 MB of text; the whole
    # file as one string peaks near 45 MB, one stage at a time near 3 MB
    problem = random_problem(rng, num_states=50, num_actions=5, horizon=20)
    payload = _solution_payload(solve_formulation(problem, Formulation.CENTRAL))
    tracemalloc.start()
    try:
        _write_solution_csv(tmp_path / "out.csv", payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
