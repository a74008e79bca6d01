"""Instance-level cross-check suite backing the ``verify`` CLI command.

Runs the oracle against the solvers on one concrete problem: enumeration
totals, Bellman residuals, objective consistency, no-improvement under random
perturbations, deterministic-policy sweeps, the deterministic-dynamics
collapse, the linear/path-integral equivalences and compositionality.
The central Bellman residual is recomputed in the log domain by risk's
reference core, apart from the solver's row operators, so it can fail.
Checks that do not apply to the instance (wrong sign of lambda_s, missing
weights, infeasible deterministic-policy sweeps) are skipped, not failed.
The checks enumerate the baseline trajectories, so a problem whose
enumeration exceeds the trajectory cap raises ``EnumerationCapError`` (exit
code 2 from the CLI); only the infeasible policy sweeps are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import oracle
from .desirability import ComponentSet, compose, linear_backward, policy_from_desirability
from .iterate import mm_solve
from .model import ControlProblem, Policy, TransitionKernel, state_marginals, validate_problem
from .oracle import EnumerationCapError
from .risk import _reference_log_sum
from .solvers import (
    Formulation,
    central_policy_value,
    initial_value,
    solve_central,
    solve_formulation,
)

# random (pi*, tau*) perturbations tried by the central-no-improvement check
NUM_PERTURBATIONS = 50


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


def _perturb_rows(table: np.ndarray, rng) -> np.ndarray:
    out = table * np.exp(0.3 * rng.standard_normal(table.shape))
    out = np.where(table > 0, out, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def perturb_policy(policy: Policy, rng) -> Policy:
    """Random support-preserving multiplicative perturbation of each row."""
    return Policy(_perturb_rows(policy.table, rng))


def perturb_kernel(kernel: TransitionKernel, rng) -> TransitionKernel:
    """Random support-preserving multiplicative perturbation of each row."""
    return TransitionKernel(_perturb_rows(kernel.table, rng))


def central_no_improvement(problem, sol, opt, rng, num_perturbations) -> float:
    """Largest favorable move found by random perturbations of (pi*, tau*).

    When lambda_s > 0 both tables minimize, so a joint perturbation must not
    decrease the objective.  When lambda_s < 0 the kernel side maximizes:
    the check splits into policy-only perturbations (must not decrease) and
    kernel-only perturbations (must not increase).
    """
    worst = 0.0
    joint = problem.lambda_s > 0
    for _ in range(num_perturbations):
        pi = perturb_policy(sol.pi_star, rng)
        tau = perturb_kernel(sol.tau_star, rng)
        if joint:
            cand = central_policy_value(problem, pi, tau)
            worst = max(worst, opt - cand)
        else:
            pi_side = central_policy_value(problem, pi, sol.tau_star)
            tau_side = central_policy_value(problem, sol.pi_star, tau)
            worst = max(worst, opt - pi_side, tau_side - opt)
    return worst


def run_checks(
    problem: ControlProblem,
    components: Optional[ComponentSet] = None,
    seed: int = 0,
) -> List[CheckResult]:
    results: List[CheckResult] = []
    rng = np.random.default_rng(seed)

    def record(name, ok, detail=""):
        results.append(CheckResult(name, "pass" if ok else "fail", detail))

    def skip(name, why):
        results.append(CheckResult(name, "skip", why))

    violations = validate_problem(problem)
    record("validation", not violations, "; ".join(violations))
    if violations:
        return results

    table = oracle.enumerate_trajectories(
        problem, problem.baseline_policy, problem.baseline_kernels
    )
    total = table.total_probability()
    record(
        "enumeration-total-probability",
        abs(total - 1.0) <= 1e-9,
        f"sum = {total!r}",
    )

    has_central = problem.lambda_p is not None and problem.lambda_s is not None
    if has_central:
        sol = solve_central(problem)
        resid = _central_bellman_residual(problem, sol)
        record("central-bellman-residual", resid <= 1e-9, f"max residual {resid:.3g}")
        opt = oracle.evaluate_objective(
            problem, Formulation.CENTRAL, sol.pi_star, sol.tau_star
        )
        gap = abs(opt - initial_value(problem, sol))
        record("central-objective-consistency", gap <= 1e-8, f"gap {gap:.3g}")
        worst = central_no_improvement(problem, sol, opt, rng, NUM_PERTURBATIONS)
        record(
            "central-no-improvement",
            worst <= 1e-9,
            f"best improvement {worst:.3g}",
        )
    else:
        skip("central-bellman-residual", "lambda_p/lambda_s not set")

    soc = rsoc = None
    try:
        bf_policy, bf_value = oracle.brute_force_policy_search(problem, "soc")
        soc = solve_formulation(problem, Formulation.SOC)
        gap = abs(initial_value(problem, soc) - bf_value)
        record("soc-matches-policy-sweep", gap <= 1e-9, f"gap {gap:.3g}")
        if problem.lambda_s is not None:
            _, bf_rsoc = oracle.brute_force_policy_search(
                problem, "rsoc", problem.lambda_s
            )
            rsoc = solve_formulation(problem, Formulation.RSOC)
            gap = abs(initial_value(problem, rsoc) - bf_rsoc)
            record("rsoc-matches-policy-sweep", gap <= 1e-9, f"gap {gap:.3g}")
    except EnumerationCapError as exc:
        skip("soc-matches-policy-sweep", str(exc))

    if problem.has_deterministic_kernels() and problem.lambda_s is not None:
        # reuse the sweep's solves; a sweep past the cap made none
        soc = soc or solve_formulation(problem, Formulation.SOC)
        rsoc = rsoc or solve_formulation(problem, Formulation.RSOC)
        gap = float(np.max(np.abs(soc.V - rsoc.V)))
        record("deterministic-collapse", gap <= 1e-10, f"max V gap {gap:.3g}")

    sync_lam = None
    if problem.lambda_s is not None and problem.lambda_s > 0:
        sync_lam = float(problem.lambda_s)
    if sync_lam is not None:
        sync = problem.replace(lambda_p=sync_lam, lambda_s=sync_lam)
        central = solve_central(sync)
        d = linear_backward(problem, sync_lam)
        gap = float(np.max(np.abs(d.values() - central.V)))
        record("linear-bellman-equivalence", gap <= 1e-9, f"max V gap {gap:.3g}")
        pol = policy_from_desirability(problem, d)
        gap = float(np.max(np.abs(pol.table - central.pi_star.table), initial=0.0))
        record("desirability-policy-equivalence", gap <= 1e-9, f"max gap {gap:.3g}")
        posterior = oracle.exact_posterior(problem, problem.baseline_policy, sync_lam)
        cond = oracle.conditional_policy(posterior)
        reach = _reachable_mask(problem)
        gap = float(
            np.max(np.abs((cond.table - central.pi_star.table)[reach]), initial=0.0)
        )
        record("posterior-policy-equivalence", gap <= 1e-9, f"max gap {gap:.3g}")
    else:
        skip("linear-bellman-equivalence", "needs lambda_s > 0")

    if components is not None:
        if sync_lam is None:
            skip("compositionality", "needs lambda_s > 0")
        else:
            comp = compose(problem, components, sync_lam)
            direct = policy_from_desirability(problem, comp.composite)
            gap_pi = float(
                np.max(np.abs(comp.mixture_policy.table - direct.table), initial=0.0)
            )
            gap_w = float(np.max(np.abs(comp.weights.sum(axis=0) - 1.0)))
            record(
                "compositionality",
                gap_pi <= 1e-10 and gap_w <= 1e-12,
                f"policy gap {gap_pi:.3g}, weight-sum gap {gap_w:.3g}",
            )

    if problem.lambda_p is not None:
        _, trace = mm_solve(problem, "soc", problem.lambda_p, tol=1e-10, max_iters=200)
        mono = all(
            b <= a + 1e-12
            for a, b in zip(trace.true_objective, trace.true_objective[1:])
        )
        stop = "converged" if trace.converged else "not converged"
        record("mm-descent", mono, f"{stop} after {trace.iterations} iterations")
    return results


def _reachable_mask(problem: ControlProblem) -> np.ndarray:
    marg = state_marginals(
        problem, problem.baseline_policy, problem.baseline_kernels
    )
    return marg[:-1] > 0  # (T, S)


def _central_bellman_residual(problem: ControlProblem, sol) -> float:
    """Largest gap of the solver's (V, Q) from the central Bellman equations,
    recomputed for all stages at once in the log domain:
    Q_t = c_t - log sum iota_t exp(-lam_s V_{t+1}) / lam_s and
    V_t = -log sum rho_t exp(-lam_p Q_t) / lam_p."""
    lam_p, lam_s = problem.lambda_p, problem.lambda_s
    iota, rho = problem.baseline_kernels.table, problem.baseline_policy.table
    log_s = _reference_log_sum(iota, -lam_s * sol.V[1:, None, None, :])[1]
    q = problem.stage_costs - log_s / lam_s
    v = -_reference_log_sum(rho, -lam_p * sol.Q)[1] / lam_p
    return max(
        float(np.max(np.abs(q - sol.Q), initial=0.0)),
        float(np.max(np.abs(v - sol.V[:-1]), initial=0.0)),
    )
