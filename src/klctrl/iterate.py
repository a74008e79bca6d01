"""Iterative schemes built on the soft-policy solvers.

``mm_solve`` drives the classical objectives down by repeatedly solving the
soft-policy surrogate with the baseline pinned to the previous iterate
(majorize, then minimize).  ``em_solve`` runs expectation-maximization on the
optimality-likelihood reading of the risk-seeking objective; its iterates
coincide with the synchronized MM fixed-point iteration.  Neither enumerates
trajectories: objectives come from backward evaluation of the iterate and
the E-step from one linear (desirability) pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .desirability import linear_backward, policy_from_desirability
from .model import ControlProblem, Policy
from .risk import tilted_rows
from .solvers import (
    Formulation,
    Solution,
    expected_cost_under,
    initial_value,
    rsoc_value,
    solve_formulation,
)

DESCENT_SLACK = 1e-9
MASS_FLOOR = 1e-300


class NonDescentError(RuntimeError):
    """The true objective increased beyond numerical slack; carries the trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class IterationTrace:
    """Per-iteration diagnostics of an MM or EM run."""

    surrogate_objective: List[float] = field(default_factory=list)
    true_objective: List[float] = field(default_factory=list)
    policy_delta: List[float] = field(default_factory=list)
    value_delta: List[Optional[float]] = field(default_factory=list)
    policy_iterates: List[np.ndarray] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def _floor_support(table: np.ndarray) -> np.ndarray:
    """Treat denormal-scale masses as exact zeros and renormalize rows."""
    out = np.where(table < MASS_FLOOR, 0.0, table)
    sums = out.sum(axis=-1, keepdims=True)
    if (sums == 0).any():
        raise AssertionError("policy row lost all support; cannot happen for finite weights")
    return out / sums


def mm_solve(
    problem: ControlProblem,
    target: str,
    lambda_p: float,
    tol: float,
    max_iters: int,
    init_policy: Optional[Policy] = None,
):
    """Majorize-minimize loop for target 'soc' or 'rsoc'.

    Each step solves the soft-policy problem with baseline equal to the
    current iterate and the given policy weight; for 'rsoc' the transition
    weight is the problem's lambda_s.  Returns (final Solution, trace).
    """
    if target not in ("soc", "rsoc"):
        raise ValueError(f"unknown target {target!r}")
    if not lambda_p > 0:
        raise ValueError("lambda_p must be > 0")
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    form = Formulation.SP_SOC if target == "soc" else Formulation.SP_RSOC

    def true_objective(policy: Policy) -> float:
        if target == "soc":
            return expected_cost_under(problem, policy)
        return rsoc_value(problem, policy, problem.lambda_s)

    pi_k = init_policy if init_policy is not None else problem.baseline_policy
    trace = IterationTrace()
    trace.policy_iterates.append(pi_k.table)
    j_prev = true_objective(pi_k)
    v_prev = None
    solution = None
    for _ in range(max_iters):
        sub = problem.replace(baseline_policy=pi_k, lambda_p=lambda_p)
        solution = solve_formulation(sub, form)
        pi_next = Policy(_floor_support(solution.pi_star.table))
        j_next = true_objective(pi_next)
        delta_pi = float(np.max(np.abs(pi_next.table - pi_k.table)))
        # None on the first iteration: there is no previous V to compare with
        delta_v = (
            float(np.max(np.abs(solution.V - v_prev))) if v_prev is not None else None
        )
        trace.surrogate_objective.append(initial_value(problem, solution))
        trace.true_objective.append(j_next)
        trace.policy_delta.append(delta_pi)
        trace.value_delta.append(delta_v)
        trace.policy_iterates.append(pi_next.table)
        trace.iterations += 1
        if j_next > j_prev + DESCENT_SLACK:
            raise NonDescentError(
                f"objective increased from {j_prev!r} to {j_next!r}", trace
            )
        pi_k, j_prev, v_prev = pi_next, j_next, solution.V
        if delta_pi <= tol:
            trace.converged = True
            break
    solution = Solution(
        solution.formulation, solution.V, solution.Q, pi_k, solution.tau_star
    )
    return solution, trace


def _weighted_log(weights: np.ndarray, probs: np.ndarray) -> float:
    """sum of weights * log(probs) over the entries with positive weight."""
    sel = weights > 0
    return float(weights[sel] @ np.log(probs[sel]))


def _e_step(problem: ControlProblem, policy: Policy, lam: float):
    """The optimality posterior under ``policy`` from one linear pass.

    With ``policy`` as the baseline, z_t = exp(-lam V_t) of the linear
    recursion tilts the trajectory prior by exp(-lam cost).  The posterior is
    Markov: initial law proportional to p(x0) z_0, policy the desirability
    policy, kernel proportional to iota z_{t+1}.  Returns the posterior policy,
    with rows the posterior never reaches (exactly those ``policy`` never
    reaches) kept at ``policy``, and the expected complete-data
    log-likelihood under it, up to the optimality normalizer, summed from the
    posterior's forward marginals.
    """
    sub = problem.replace(baseline_policy=policy)
    d = linear_backward(sub, lam)
    conditional = policy_from_desirability(sub, d).table
    V = d.values()
    iota = problem.baseline_kernels.table
    table = policy.table.copy()
    m = tilted_rows(problem.initial_distribution, V[0], lam)
    loglik = _weighted_log(m, problem.initial_distribution)
    for t in range(problem.horizon):
        reach = m > 0
        table[t][reach] = conditional[t][reach]
        joint = m[:, None] * conditional[t]
        flow = joint[:, :, None] * tilted_rows(iota[t], V[t + 1][None, None, :], lam)
        loglik += _weighted_log(joint, conditional[t]) + _weighted_log(flow, iota[t])
        loglik -= lam * float((joint * problem.stage_costs[t]).sum())
        m = flow.sum(axis=(0, 1))
    loglik -= lam * float(m @ problem.terminal_cost)
    return Policy(table), loglik


def em_solve(
    problem: ControlProblem,
    lam: float,
    tol: float,
    max_iters: int,
    init_policy: Optional[Policy] = None,
):
    """Expectation-maximization for the optimality-likelihood objective.

    E-step: the trajectory posterior under the current policy, from one
    linear (desirability) pass with that policy as the baseline.  M-step:
    the posterior's conditional policy.  The recorded true
    objective is the exponential-utility value, which is non-increasing.
    Returns (Policy, trace); converged is False if max_iters ran out.
    """
    if not lam > 0:
        raise ValueError("the likelihood reading requires lambda > 0")
    pi_k = init_policy if init_policy is not None else problem.baseline_policy
    trace = IterationTrace()
    trace.policy_iterates.append(pi_k.table)
    j_prev = rsoc_value(problem, pi_k, lam)
    for _ in range(max_iters):
        pi_next, surrogate = _e_step(problem, pi_k, lam)
        j_next = rsoc_value(problem, pi_next, lam)
        delta_pi = float(np.max(np.abs(pi_next.table - pi_k.table)))
        trace.surrogate_objective.append(surrogate)
        trace.true_objective.append(j_next)
        trace.policy_delta.append(delta_pi)
        trace.value_delta.append(abs(j_next - j_prev))
        trace.policy_iterates.append(pi_next.table)
        trace.iterations += 1
        if j_next > j_prev + DESCENT_SLACK:
            raise NonDescentError(
                f"objective increased from {j_prev!r} to {j_next!r}", trace
            )
        pi_k, j_prev = pi_next, j_next
        if delta_pi <= tol:
            trace.converged = True
            break
    return pi_k, trace
