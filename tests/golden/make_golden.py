"""Golden-output corpus: every output family of klctrl on fixed inputs.

``outputs()`` computes each output, by name; ``tests/test_golden.py``
recomputes them and compares them with ``outputs.npz``, bitwise when the file
was written by the same numpy and BLAS build on a CPU with the same SIMD
extensions (``build_key``), and within ``FOREIGN_ULP`` otherwise.  The
random inputs are drawn here, not by the test helpers, so that a change to
those helpers cannot move the corpus.

Refresh the file only in a change that moves last bits on purpose, and list
the outputs that moved, with their largest gap in ulp, in its CHANGES entry.
From the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from klctrl import (
    ControlProblem,
    Formulation,
    Policy,
    TransitionKernel,
    bundled_problem_path,
    central_policy_value,
    compose,
    em_solve,
    entropic_risk,
    enumerate_trajectories,
    exact_risk_objective,
    linear_backward,
    load_bundled_problem,
    mm_solve,
    policy_from_desirability,
    regularized_policy_value,
    solve_formulation,
    tilted_distribution,
)
from klctrl.cli import main
from klctrl.oracle import _policy_values_rsoc, _policy_values_soc, brute_force_policy_search
from klctrl.solvers import expected_cost_under, rsoc_value

GOLDEN = Path(__file__).with_name("outputs.npz")
BUILD = "__build__"
FOREIGN_ULP = 4
CORPUS = ("m1", "chain5", "grid4x4")
LAMBDAS_S = (0.5, -0.7, 40.0, -40.0, 700.0, -700.0)


def build_key() -> str:
    """numpy version, BLAS name and version, and the SIMD extensions numpy
    found on this CPU: the things the last bits of an output may hang on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]["found"]
    return json.dumps([np.__version__, blas["name"], blas["version"], simd])


def _random_problem(seed, S, A, T, lambda_s, *, sparse=False, dirac=False, cost=0.0):
    """A seeded instance; sparse rows keep about half their entries."""
    rng = np.random.default_rng(seed)
    if dirac:
        kernels = np.zeros((T, S, A, S))
        t, x, u = np.indices((T, S, A))
        kernels[t, x, u, rng.integers(0, S, size=(T, S, A))] = 1.0
    else:
        kernels = rng.dirichlet(np.full(S, 2.0), size=(T, S, A))
    rho = rng.dirichlet(np.full(A, 2.0), size=(T, S))
    if sparse:
        # zero about half of each row, keeping its largest entry
        for table in (kernels, rho):
            drop = rng.random(table.shape) < 0.5
            drop &= table < table.max(axis=-1, keepdims=True)
            table[drop] = 0.0
            table /= table.sum(axis=-1, keepdims=True)
    return ControlProblem(
        horizon=T,
        num_states=S,
        num_actions=A,
        initial_distribution=rng.dirichlet(np.full(S, 5.0)),
        baseline_kernels=TransitionKernel(kernels),
        baseline_policy=Policy(rho),
        stage_costs=cost + rng.uniform(0.0, 2.0, size=(T, S, A)),
        terminal_cost=cost + rng.uniform(0.0, 2.0, size=S),
        lambda_p=0.8,
        lambda_s=lambda_s,
    )


def problems() -> dict:
    """The bundled corpus plus seeded random instances, by name."""
    out = {name: load_bundled_problem(name)[0] for name in CORPUS}
    for i, lam in enumerate(LAMBDAS_S):
        out[f"full{lam:+g}"] = _random_problem(100 + i, 4, 3, 3, lam)
        out[f"sparse{lam:+g}"] = _random_problem(200 + i, 5, 3, 3, lam, sparse=True)
    out["costs1e3"] = _random_problem(300, 4, 3, 3, 0.5, cost=1e3)
    out["dirac"] = _random_problem(301, 4, 3, 3, 0.7, dirac=True)
    return out


def _variants(problem: ControlProblem):
    """(label, formulation, options) of every formulation the problem admits."""
    forms = [f for f in Formulation if f not in (Formulation.DOC, Formulation.SP_DOC)]
    if problem.has_deterministic_kernels():
        forms += [Formulation.DOC, Formulation.SP_DOC]
    for form in forms:
        yield form.value, form, {}
    yield "sp_rsoc_sync", Formulation.SP_RSOC, {"synchronized": True}
    yield "sp_rsoc_literal", Formulation.SP_RSOC, {"table_literal": True}


def _solutions(name, problem, out):
    for label, form, options in _variants(problem):
        sol = solve_formulation(problem, form, **options)
        key = f"solve/{name}/{label}"
        out[f"{key}/V"], out[f"{key}/Q"] = sol.V, sol.Q
        out[f"{key}/pi"] = sol.pi_star.table
        if sol.weight_s is not None:
            out[f"{key}/tau"] = sol.tau_star.table


def _evaluators(name, problem, out):
    rho = problem.baseline_policy
    central = solve_formulation(problem, Formulation.CENTRAL)
    mixed = Policy(0.5 * (rho.table + central.pi_star.table))
    out[f"evaluate/{name}"] = np.array(
        [
            expected_cost_under(problem, central.pi_star),
            rsoc_value(problem, central.pi_star, problem.lambda_s),
            regularized_policy_value(problem, "soc", central.pi_star, mixed, 0.6),
            regularized_policy_value(problem, "rsoc", mixed, rho, 0.6),
            central_policy_value(problem, mixed, central.tau_star),
        ]
    )


def _desirability(name, problem, lam, out):
    d = linear_backward(problem, lam)
    out[f"linear/{name}/log_z"] = d.log_z
    out[f"linear/{name}/pi"] = policy_from_desirability(problem, d).table


def _iterations(name, problem, out):
    for target in ("soc", "rsoc"):
        solution, trace = mm_solve(problem, target, 0.7, tol=0.0, max_iters=10)
        key = f"mm/{name}/{target}"
        out[f"{key}/trace"] = np.array(
            [trace.surrogate_objective, trace.true_objective, trace.policy_delta]
        )
        out[f"{key}/value_delta"] = np.array(trace.value_delta[1:])
        out[f"{key}/V"], out[f"{key}/pi"] = solution.V, solution.pi_star.table
    policy, trace = em_solve(problem, 0.9, tol=0.0, max_iters=10)
    out[f"em/{name}/trace"] = np.array(
        [trace.surrogate_objective, trace.true_objective, trace.policy_delta, trace.value_delta]
    )
    out[f"em/{name}/pi"] = policy.table


def _risks(out):
    rng = np.random.default_rng(400)
    mu = rng.dirichlet(np.ones(12))
    mu[[2, 7]] = 0.0
    mu /= mu.sum()
    f = rng.uniform(-3.0, 3.0, size=12)
    lams = (1e-9, 0.5, -0.7, 40.0, -40.0, 700.0, -700.0)
    out["risk/entropic_risk"] = np.array([entropic_risk(mu, f, lam) for lam in lams])
    out["risk/tilted_distribution"] = np.array([tilted_distribution(mu, f, lam) for lam in lams])
    for name in ("m1", "chain5"):
        problem = load_bundled_problem(name)[0]
        table = enumerate_trajectories(problem, problem.baseline_policy, problem.baseline_kernels)
        out[f"risk/exact_risk_objective/{name}"] = np.array(
            [exact_risk_objective(table, lam) for lam in lams]
        )


def _sweeps(out):
    """Sweep optima on the corpus and on instances of one to four chunks of
    policies, plus the value of every policy of two small instances."""
    cases = {
        "m1": load_bundled_problem("m1")[0],
        "full325": _random_problem(500, 3, 2, 5, 0.8),
        "sparse325": _random_problem(501, 3, 2, 5, -0.7, sparse=True),
        "full228": _random_problem(502, 2, 2, 8, 40.0),
        "dirac234": _random_problem(503, 2, 3, 4, -40.0, dirac=True),
    }
    for name, problem in cases.items():
        for objective in ("soc", "rsoc"):
            policy, value = brute_force_policy_search(problem, objective, problem.lambda_s)
            out[f"sweep/{name}/{objective}/pi"] = policy.table
            out[f"sweep/{name}/{objective}/value"] = np.array(value)
    for name, (S, A, T) in {"full222": (2, 2, 2), "full322": (3, 2, 2)}.items():
        problem = _random_problem(510 + S, S, A, T, -0.7)
        acts = np.array(np.unravel_index(np.arange(A ** (S * T)), (A,) * (S * T))).T
        acts = acts.reshape(-1, T, S)
        out[f"sweep_values/{name}/soc"] = _policy_values_soc(problem, acts)
        out[f"sweep_values/{name}/rsoc"] = _policy_values_rsoc(problem, acts, problem.lambda_s)


def _verify(out):
    for name in CORPUS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            main(["verify", "--problem", str(bundled_problem_path(name))])
        out[f"verify/{name}"] = np.array(stdout.getvalue().splitlines())


def outputs() -> dict:
    """Every golden output, by name, as a numpy array."""
    out = {}
    cases = problems()
    for name, problem in cases.items():
        _solutions(name, problem, out)
        _evaluators(name, problem, out)
        if problem.lambda_s > 0:
            _desirability(name, problem, problem.lambda_s, out)
    _desirability("grid4x4-lam0.5", load_bundled_problem("grid4x4")[0], 0.5, out)
    problem, components = load_bundled_problem("chain5")
    result = compose(problem, components, 0.9)
    out["compose/chain5/log_z"] = result.composite.log_z
    out["compose/chain5/weights"] = result.weights
    out["compose/chain5/component_pi"] = np.array([p.table for p in result.component_policies])
    out["compose/chain5/mixture_pi"] = result.mixture_policy.table
    for name in ("m1", "chain5", "grid4x4", "sparse+0.5"):
        _iterations(name, cases[name], out)
    _risks(out)
    _sweeps(out)
    _verify(out)
    return {name: np.asarray(value) for name, value in out.items()}


if __name__ == "__main__":
    arrays = outputs()
    np.savez_compressed(GOLDEN, **{BUILD: np.array(build_key())}, **arrays)
    floats = sum(a.size for a in arrays.values() if a.dtype.kind == "f")
    print(f"wrote {len(arrays)} outputs ({floats} floats), {GOLDEN.stat().st_size} bytes")
