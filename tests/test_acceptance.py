"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (bypassing capture) so the gate is readable from any
pytest run.
"""

import json
import time

import numpy as np
import pytest

from klctrl import (
    Formulation,
    brute_force_policy_search,
    bundled_problem_path,
    central_policy_value,
    compose,
    conditional_policy,
    dual_certificate,
    dump_problem,
    em_solve,
    entropic_risk,
    evaluate_objective,
    exact_posterior,
    initial_value,
    linear_backward,
    mm_solve,
    path_integral_estimate,
    policy_from_desirability,
    solve_central,
    solve_formulation,
    tilted_distribution,
)
from klctrl import ComponentSet, load_problem
from klctrl.cli import main
from klctrl.problem_io import problem_to_dict
from klctrl.solvers import expected_cost_under
from klctrl.verify import central_no_improvement

from conftest import make_m1, random_problem

M1_Z0 = 0.5 * (1 + np.exp(-1))


def _report(capsys, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_01_central_recursion(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_improvement = 0.0
    for _ in range(200):
        problem = random_problem(rng)
        sol = solve_central(problem)
        obj = evaluate_objective(problem, Formulation.CENTRAL, sol.pi_star, sol.tau_star)
        worst_gap = max(worst_gap, abs(obj - initial_value(problem, sol)))
        worst_improvement = max(
            worst_improvement, central_no_improvement(problem, sol, obj, rng, 100)
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_improvement <= 1e-9 and elapsed < 30
    _report(
        capsys,
        "01 central-recursion",
        ok,
        f"objective gap {worst_gap:.2e}, best improvement {worst_improvement:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_formulation_vs_policy_sweep(capsys):
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(40):
        if rng.random() < 0.5:
            problem = random_problem(rng, num_actions=2, max_states=3, max_horizon=4)
        else:
            problem = random_problem(rng, num_states=2, num_actions=3, max_horizon=3)
        _, bf_soc = brute_force_policy_search(problem, "soc")
        soc = solve_formulation(problem, Formulation.SOC)
        worst = max(worst, abs(initial_value(problem, soc) - bf_soc))
        for lam in (0.8, -0.8):
            risky = problem.replace(lambda_s=lam)
            _, bf_rsoc = brute_force_policy_search(risky, "rsoc", lam)
            rsoc = solve_formulation(risky, Formulation.RSOC)
            worst = max(worst, abs(initial_value(risky, rsoc) - bf_rsoc))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60
    _report(capsys, "02 formulation-vs-policy-sweep", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_deterministic_collapse(capsys):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        problem = random_problem(rng, dirac=True)
        soc = solve_formulation(problem, Formulation.SOC)
        rsoc = solve_formulation(problem, Formulation.RSOC)
        worst = max(worst, float(np.max(np.abs(soc.V - rsoc.V))))
        sync = problem.replace(lambda_s=problem.lambda_p)
        sp_soc = solve_formulation(sync, Formulation.SP_SOC)
        sp_rsoc = solve_formulation(sync, Formulation.SP_RSOC)
        worst = max(worst, float(np.max(np.abs(sp_soc.V - sp_rsoc.V))))
    ok = worst <= 1e-10
    _report(capsys, "03 deterministic-collapse", ok, f"max V gap {worst:.2e}")


def test_criterion_04_risk_dual(capsys):
    rng = np.random.default_rng(104)
    worst_eq = 0.0
    sides_ok = True
    for _ in range(1000):
        size = int(rng.integers(2, 7))
        mu = rng.dirichlet(np.ones(size))
        f = rng.uniform(-3.0, 3.0, size=size)
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        risk = entropic_risk(mu, f, lam)
        tilt = tilted_distribution(mu, f, lam)
        worst_eq = max(worst_eq, abs(dual_certificate(mu, f, lam, tilt) - risk))
        cands = rng.dirichlet(np.ones(size), size=100)
        for cand in cands:
            value = dual_certificate(mu, f, lam, cand)
            if lam > 0:
                sides_ok = sides_ok and value >= risk - 1e-10
            else:
                sides_ok = sides_ok and value <= risk + 1e-10
    ok = worst_eq <= 1e-9 and sides_ok
    _report(capsys, "04 risk-dual", ok, f"max attainment gap {worst_eq:.2e}, sides {sides_ok}")


def test_criterion_05_mm_descent_and_fixed_point(capsys):
    rng = np.random.default_rng(105)
    descent_ok = True
    oracle_worst = 0.0
    gap_checked = 0
    for _ in range(100):
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        for target in ("soc", "rsoc"):
            _, trace = mm_solve(problem, target, lambda_p=1.0, tol=1e-10, max_iters=30)
            descent_ok = descent_ok and bool(
                np.all(np.diff(trace.true_objective) <= 1e-12)
            )
        _, bf_value = brute_force_policy_search(problem, "soc")
        values = _all_policy_values(problem)
        if np.sort(values)[1] - bf_value < 0.1:
            continue
        gap_checked += 1
        sol, trace = mm_solve(problem, "soc", lambda_p=1.0, tol=1e-10, max_iters=10000)
        final = expected_cost_under(problem, sol.pi_star)
        oracle_worst = max(oracle_worst, abs(final - bf_value))
    # M1 closed form
    m1 = make_m1()
    _, trace = mm_solve(m1, "soc", lambda_p=1.0, tol=0.0, max_iters=20)
    closed = np.array(
        [1 / (1 + np.exp(-k)) for k in range(len(trace.policy_iterates))]
    )
    m1_gap = float(
        np.max(np.abs([t[0, 0, 1] for t in trace.policy_iterates] - closed))
    )
    ok = descent_ok and oracle_worst <= 1e-6 and m1_gap <= 1e-12 and gap_checked >= 5
    _report(
        capsys,
        "05 mm-descent-and-fixed-point",
        ok,
        f"descent {descent_ok}, oracle gap {oracle_worst:.2e} on {gap_checked} "
        f"gapped instances, M1 gap {m1_gap:.2e}",
    )


def _all_policy_values(problem):
    from klctrl.oracle import _policy_values_soc

    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    count = A ** (S * T)
    flat = np.array(np.unravel_index(np.arange(count), (A,) * (S * T))).T
    return _policy_values_soc(problem, flat.reshape(count, T, S))


def test_criterion_06_linear_equals_nonlinear(capsys):
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        problem = random_problem(rng)
        for lam in (0.1, 1.0, 10.0):
            d = linear_backward(problem, lam)
            central = solve_central(problem.replace(lambda_p=lam, lambda_s=lam))
            worst = max(worst, float(np.max(np.abs(d.values() - central.V))))
    ok = worst <= 1e-9
    _report(capsys, "06 linear-equals-nonlinear", ok, f"max V gap {worst:.2e}")


def test_criterion_07_path_integral(capsys):
    m1 = make_m1()
    hits = 0
    for seed in range(100):
        est, se = path_integral_estimate(m1, 1.0, 0, 0, num_samples=10**5, seed=seed)
        if abs(est - 0.683940) <= 3 * se:
            hits += 1
    deterministic = True
    for seed in (0, 17):
        outs = {
            path_integral_estimate(
                m1, 1.0, 0, 0, num_samples=50000, seed=seed, chunk_size=chunk
            )
            for chunk in (1, 997, 50000, 10**6)
        }
        deterministic = deterministic and len(outs) == 1
    ok = hits >= 95 and deterministic
    _report(
        capsys,
        "07 path-integral",
        ok,
        f"{hits}/100 seeds within 3 SE, schedule-deterministic {deterministic}",
    )


def test_criterion_08_compositionality(capsys):
    rng = np.random.default_rng(108)
    worst_z = 0.0
    worst_pi = 0.0
    worst_scale = 0.0
    for _ in range(200):
        problem = random_problem(rng)
        tc = rng.uniform(0.0, 2.0, size=(3, problem.num_states))
        g = rng.uniform(0.2, 2.0, size=3)
        comp = compose(problem, ComponentSet(tc, g), 1.0)
        parts = np.stack([c.z for c in comp.components])
        worst_z = max(worst_z, float(np.max(np.abs(parts.sum(axis=0) - comp.composite.z))))
        direct = policy_from_desirability(problem, comp.composite)
        worst_pi = max(
            worst_pi, float(np.max(np.abs(comp.mixture_policy.table - direct.table)))
        )
        scaled = compose(problem, ComponentSet(tc, 3.0 * g), 1.0)
        worst_scale = max(
            worst_scale,
            float(np.max(np.abs(scaled.weights - comp.weights))),
            float(
                np.max(np.abs(scaled.mixture_policy.table - comp.mixture_policy.table))
            ),
        )
    ok = worst_z <= 1e-10 and worst_pi <= 1e-10 and worst_scale <= 1e-12
    _report(
        capsys,
        "08 compositionality",
        ok,
        f"sum gap {worst_z:.2e}, policy gap {worst_pi:.2e}, scaling gap {worst_scale:.2e}",
    )


def test_criterion_09_inference_equivalences(capsys):
    rng = np.random.default_rng(109)
    worst_cond = 0.0
    for _ in range(200):
        lam = float(rng.uniform(0.3, 2.0))
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        sync = problem.replace(lambda_p=lam, lambda_s=lam)
        central = solve_central(sync)
        cond = conditional_policy(exact_posterior(problem, problem.baseline_policy, lam))
        # full-support instances: every state is reachable at every stage
        worst_cond = max(
            worst_cond, float(np.max(np.abs(cond.table - central.pi_star.table)))
        )
    worst_em = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.3, 2.0))
        problem = random_problem(rng, max_states=3, max_actions=3, max_horizon=3)
        _, em_trace = em_solve(problem, lam=lam, tol=0.0, max_iters=5)
        sync = problem.replace(lambda_s=lam)
        _, mm_trace = mm_solve(sync, "rsoc", lambda_p=lam, tol=0.0, max_iters=5)
        for a, b in zip(em_trace.policy_iterates, mm_trace.policy_iterates):
            worst_em = max(worst_em, float(np.max(np.abs(a - b))))
    ok = worst_cond <= 1e-9 and worst_em <= 1e-9
    _report(
        capsys,
        "09 inference-equivalences",
        ok,
        f"conditional-policy gap {worst_cond:.2e}, EM-vs-MM gap {worst_em:.2e}",
    )


def test_criterion_10_cli_contract(capsys, tmp_path):
    verify_ok = True
    for name in ("m1", "chain5", "grid4x4"):
        code = main(["verify", "--problem", str(bundled_problem_path(name))])
        verify_ok = verify_ok and code == 0
    capsys.readouterr()  # swallow the per-check verify output

    original, _ = load_problem(bundled_problem_path("grid4x4"))
    path = tmp_path / "round.json"
    dump_problem(original, path)
    again, _ = load_problem(path)
    round_trip_ok = problem_to_dict(again) == problem_to_dict(original)

    out = tmp_path / "out.json"
    bad = tmp_path / "bad.json"
    doc = json.loads(bundled_problem_path("m1").read_text())
    doc["mystery"] = 1
    bad.write_text(json.dumps(doc))
    codes_ok = (
        main(["solve", "--problem", str(bad), "--formulation", "soc", "--out", str(out)])
        == 1
    )
    rng = np.random.default_rng(110)
    big = tmp_path / "big.json"
    dump_problem(random_problem(rng, num_states=6, num_actions=6, horizon=6), big)
    codes_ok = codes_ok and (
        main(["verify", "--problem", str(big)])
        == 2
    )
    ok = verify_ok and round_trip_ok and codes_ok
    _report(
        capsys,
        "10 cli-contract",
        ok,
        f"verify {verify_ok}, round-trip {round_trip_ok}, exit codes {codes_ok}",
    )
