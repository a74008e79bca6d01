"""The freeze rule: read-only data is shared, data a caller can still write is
copied, and a time-homogeneous file is stored once as stride-0 views."""

import json
import tracemalloc

import numpy as np
import pytest

from klctrl import desirability
from klctrl import (
    ControlProblem,
    Formulation,
    Policy,
    ProblemValidationError,
    TransitionKernel,
    compose,
    linear_backward,
    load_problem,
    path_integral_estimate,
    policy_from_desirability,
    solve_central,
    solve_formulation,
)

from conftest import make_m1, random_problem


def _rows(rng, shape):
    """Random distribution rows with exact zeros, never an empty row."""
    w = rng.random(shape) * (rng.random(shape) >= 0.3)
    np.put_along_axis(w, rng.integers(0, shape[-1], shape[:-1] + (1,)), 1.0, axis=-1)
    return w / w.sum(axis=-1, keepdims=True)


def _homogeneous_pair(tmp_path, S=10, A=9, T=5, seed=3):
    """The same problem as a time-homogeneous file and with full tables."""
    rng = np.random.default_rng(seed)
    iota, rho, costs = _rows(rng, (S, A, S)), _rows(rng, (S, A)), rng.random((S, A))
    doc = {
        "horizon": T,
        "num_states": S,
        "num_actions": A,
        "initial_distribution": _rows(rng, (S,)).tolist(),
        "terminal_cost": rng.random(S).tolist(),
        "lambda_p": 0.8,
        "lambda_s": 0.6,
        "components": [
            {"terminal_cost": rng.random(S).tolist(), "gamma": g} for g in (0.5, 2.0)
        ],
    }
    loaded = []
    for homogeneous in (True, False):
        stage = (lambda a: a) if homogeneous else (lambda a: np.repeat(a[None], T, axis=0))
        doc.update(
            time_homogeneous=homogeneous,
            transitions=stage(iota).tolist(),
            baseline_policy=stage(rho).tolist(),
            stage_costs=stage(costs).tolist(),
        )
        path = tmp_path / f"p{int(homogeneous)}.json"
        path.write_text(json.dumps(doc))
        loaded.append(load_problem(path))
    return loaded


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_replace_shares_every_table():
    p = make_m1()
    q = p.replace(lambda_p=2.0)
    assert q.baseline_kernels.table is p.baseline_kernels.table
    assert q.baseline_policy.table is p.baseline_policy.table
    assert q.stage_costs is p.stage_costs
    assert q.terminal_cost is p.terminal_cost
    assert q.initial_distribution is p.initial_distribution


def test_rewrapping_frozen_tables_shares_them(rng):
    p = random_problem(rng)
    assert Policy(p.baseline_policy.table).table is p.baseline_policy.table
    assert TransitionKernel(p.baseline_kernels.table).table is p.baseline_kernels.table
    again = ControlProblem(
        p.horizon, p.num_states, p.num_actions, p.initial_distribution,
        p.baseline_kernels.table, p.baseline_policy.table, p.stage_costs, p.terminal_cost,
    )
    assert again.stage_costs is p.stage_costs
    assert again.baseline_kernels.table is p.baseline_kernels.table


def test_data_a_caller_can_still_write_is_copied(rng):
    writeable = rng.dirichlet(np.ones(3), size=(2, 4))
    view = writeable[:]
    view.flags.writeable = False
    for table in (writeable, view):
        frozen = Policy(table).table
        assert not frozen.flags.writeable
        assert not np.shares_memory(frozen, writeable)
    costs = rng.random((2, 4, 3))
    cost_view = costs[:]
    cost_view.flags.writeable = False
    p = random_problem(rng, num_states=4, num_actions=3, horizon=2)
    for table in (costs, cost_view):
        assert not np.shares_memory(p.replace(stage_costs=table).stage_costs, costs)
    kernel = rng.dirichlet(np.ones(4), size=(2, 4, 3))
    assert not np.shares_memory(TransitionKernel(kernel).table, kernel)


def test_homogeneous_file_is_stored_once(tmp_path):
    (hom, _), _ = _homogeneous_pair(tmp_path)
    for table in (hom.baseline_kernels.table, hom.baseline_policy.table, hom.stage_costs):
        assert table.strides[0] == 0
        assert not table.flags.writeable


@pytest.mark.parametrize("form", [Formulation.CENTRAL, Formulation.SOC])
def test_homogeneous_file_solves_bitwise_as_full_tables(tmp_path, form):
    (hom, _), (full, _) = _homogeneous_pair(tmp_path)
    a, b = solve_formulation(hom, form), solve_formulation(full, form)
    assert _same_bits(a.V, b.V) and _same_bits(a.Q, b.Q)
    assert _same_bits(a.pi_star.table, b.pi_star.table)
    assert _same_bits(a.tau_star.table, b.tau_star.table)


def test_homogeneous_file_linear_pass_is_bitwise_as_full_tables(tmp_path):
    (hom, _), (full, _) = _homogeneous_pair(tmp_path)
    assert _same_bits(linear_backward(hom, 0.7).log_z, linear_backward(full, 0.7).log_z)


def test_homogeneous_file_samples_bitwise_as_full_tables(tmp_path):
    (hom, _), (full, _) = _homogeneous_pair(tmp_path)
    for t, x, n, chunk in [(0, 0, 3000, 65536), (2, 3, 3000, 333), (4, 7, 50, 1), (5, 1, 100, 7)]:
        out = path_integral_estimate(hom, 0.7, t, x, n, 11, chunk_size=chunk)
        assert out == path_integral_estimate(full, 0.7, t, x, n, 11, chunk_size=chunk)


def test_sampling_a_homogeneous_file_holds_one_stage(tmp_path):
    rng = np.random.default_rng(4)
    S, A, T = 60, 5, 400
    doc = {
        "horizon": T,
        "num_states": S,
        "num_actions": A,
        "initial_distribution": _rows(rng, (S,)).tolist(),
        "time_homogeneous": True,
        "transitions": _rows(rng, (S, A, S)).tolist(),
        "baseline_policy": _rows(rng, (S, A)).tolist(),
        "stage_costs": rng.random((S, A)).tolist(),
        "terminal_cost": rng.random(S).tolist(),
    }
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(doc))
    problem, _ = load_problem(path)
    tracemalloc.start()
    try:
        path_integral_estimate(problem, 1.0, 0, 0, num_samples=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stage's padded kernel CDF is 60 * 5 * 64 * 8 bytes = 154 kB; the
    # CDFs of all 400 stages would take 58 MB
    assert peak < 2 * 2**20


def test_tables_built_from_a_homogeneous_problem_are_c_contiguous(tmp_path, monkeypatch):
    # a buffer laid out like a stride-0 table (np.zeros_like) puts T innermost
    (hom, components), _ = _homogeneous_pair(tmp_path)
    tau = solve_central(hom).tau_star.table
    assert tau.flags.c_contiguous and tau.strides[0] != 0
    buffers = []

    def recording_policy(table):
        buffers.append(table)
        return Policy(table)

    monkeypatch.setattr(desirability, "Policy", recording_policy)
    d = linear_backward(hom, 0.7)
    assert policy_from_desirability(hom, d).table.flags.c_contiguous
    assert compose(hom, components, 0.7).mixture_policy.table.flags.c_contiguous
    assert len(buffers) == 4 and all(b.flags.c_contiguous for b in buffers)


def test_reading_tau_star_holds_about_one_table():
    rng = np.random.default_rng(5)
    p = random_problem(rng, num_states=60, num_actions=6, horizon=20, lambda_s=0.5)
    solution = solve_central(p)
    tracemalloc.start()
    try:
        tau = solution.tau_star.table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * tau.nbytes


def test_a_bad_stage_free_row_is_reported_once_as_stage_0(tmp_path):
    doc = {
        "horizon": 3,
        "num_states": 2,
        "num_actions": 2,
        "initial_distribution": [1.0, 0.0],
        "time_homogeneous": True,
        "transitions": [[[0.6, 0.6], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "stage_costs": [[0.0, 0.0], [0.0, 0.0]],
        "terminal_cost": [1.0, 0.0],
    }
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemValidationError) as err:
        load_problem(path)
    assert err.value.violations == ["tau(0, 0, 0): row sum 1.2 != 1"]

    doc.update(
        time_homogeneous=False,
        transitions=[doc["transitions"]] * 3,
        stage_costs=[doc["stage_costs"]] * 3,
    )
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemValidationError) as err:
        load_problem(path)
    assert err.value.violations == [f"tau({t}, 0, 0): row sum 1.2 != 1" for t in range(3)]
