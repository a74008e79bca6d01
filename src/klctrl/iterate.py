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

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .desirability import _backward_log, _policy_log
from .model import ControlProblem, Policy, check_weight
from .risk import tilted_rows
from .solvers import (
    Formulation,
    _require_lambda_s,
    _require_valid,
    _soft_policy_form,
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

    @property
    def iterations(self) -> int:
        return len(self.true_objective)

    def record(self, surrogate, j_prev, j_next, delta_pi, delta_v, policy: Policy):
        """Log one iteration; NonDescentError if the true objective rose past
        DESCENT_SLACK from ``j_prev`` to ``j_next``."""
        self.surrogate_objective.append(surrogate)
        self.true_objective.append(j_next)
        self.policy_delta.append(delta_pi)
        self.value_delta.append(delta_v)
        self.policy_iterates.append(policy.table)
        if j_next > j_prev + DESCENT_SLACK:
            raise NonDescentError(f"objective increased from {j_prev!r} to {j_next!r}", self)


def _floor_support(table: np.ndarray) -> np.ndarray:
    """Treat denormal-scale masses as exact zeros and renormalize rows."""
    out = np.where(table < MASS_FLOOR, 0.0, table)
    sums = out.sum(axis=-1, keepdims=True)
    if (sums == 0).any():
        raise AssertionError("policy row lost all support; cannot happen for finite weights")
    return out / sums


def _require_stopping_rule(tol: float, max_iters: int):
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")


def mm_solve(
    problem: ControlProblem,
    target: str,
    lambda_p: float,
    tol: float,
    max_iters: int,
):
    """Majorize-minimize loop for target 'soc' or 'rsoc'.

    Each step solves the soft-policy problem with baseline equal to the
    current iterate and the given policy weight; for 'rsoc' the transition
    weight is the problem's lambda_s.  Returns (final Solution, trace).
    """
    form = _soft_policy_form(target)
    lambda_p = check_weight(lambda_p, "lambda_p", positive=True)
    _require_stopping_rule(tol, max_iters)
    if form is Formulation.SP_RSOC:
        _require_lambda_s(problem)

    def true_objective(policy: Policy) -> float:
        if target == "soc":
            return expected_cost_under(problem, policy)
        return rsoc_value(problem, policy, problem.lambda_s)

    pi_k = problem.baseline_policy
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
        delta_pi = float(np.max(np.abs(pi_next.table - pi_k.table), initial=0.0))
        # None on the first iteration: there is no previous V to compare with
        delta_v = (
            float(np.max(np.abs(solution.V - v_prev))) if v_prev is not None else None
        )
        trace.record(initial_value(problem, solution), j_prev, j_next, delta_pi, delta_v, pi_next)
        pi_k, j_prev, v_prev = pi_next, j_next, solution.V
        if delta_pi <= tol:
            trace.converged = True
            break
    return dataclasses.replace(solution, pi_star=pi_k), trace


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
    reaches) kept at ``policy``; the expected complete-data log-likelihood
    under it, up to the optimality normalizer, summed from the posterior's
    forward marginals; and p(x0) V_0, which is ``rsoc_value`` of ``policy``:
    the nested risk over (policy, iota) with one weight is the same linear
    recursion.
    """
    sub = problem.replace(baseline_policy=policy)
    log_z = _backward_log(sub, lam, -lam * problem.terminal_cost)
    conditional = _policy_log(sub, lam, log_z).table
    V = -log_z / lam
    iota = problem.baseline_kernels.table
    table = policy.table.copy()
    m = tilted_rows(problem.initial_distribution, V[0], lam)
    loglik = _weighted_log(m, problem.initial_distribution)
    for t in range(problem.horizon):
        reach = m > 0
        table[t][reach] = conditional[t][reach]
        joint = m[:, None] * conditional[t]
        flow = joint[:, :, None] * tilted_rows(iota[t], V[t + 1], lam)
        loglik += _weighted_log(joint, conditional[t]) + _weighted_log(flow, iota[t])
        loglik -= lam * float((joint * problem.stage_costs[t]).sum())
        m = flow.sum(axis=(0, 1))
    loglik -= lam * float(m @ problem.terminal_cost)
    return Policy(table), loglik, float(problem.initial_distribution @ V[0])


def em_solve(
    problem: ControlProblem,
    lam: float,
    tol: float,
    max_iters: int,
):
    """Expectation-maximization for the optimality-likelihood objective.

    E-step: the trajectory posterior under the current policy, from one
    linear (desirability) pass with that policy as the baseline.  M-step:
    the posterior's conditional policy.  The recorded true
    objective is the exponential-utility value, which is non-increasing.
    That pass also yields the true objective of the policy it starts from,
    so each iterate's objective comes from the next E-step and only the
    final iterate is evaluated on its own.  The problem is validated once,
    here: an E-step's sub-problem differs only in its baseline policy, which
    ``Policy`` checked when it was built.
    Returns (Policy, trace); converged is False if max_iters ran out.
    """
    lam = check_weight(lam, "lam", positive=True)
    _require_stopping_rule(tol, max_iters)
    _require_valid(problem)
    pi_k = problem.baseline_policy
    trace = IterationTrace()
    trace.policy_iterates.append(pi_k.table)
    pi_next, surrogate, j_prev = _e_step(problem, pi_k, lam)
    for k in range(max_iters):
        delta_pi = float(np.max(np.abs(pi_next.table - pi_k.table), initial=0.0))
        if delta_pi <= tol or k == max_iters - 1:
            j_next = rsoc_value(problem, pi_next, lam)
            step = None
        else:
            step = _e_step(problem, pi_next, lam)
            j_next = step[2]
        trace.record(surrogate, j_prev, j_next, delta_pi, abs(j_next - j_prev), pi_next)
        pi_k, j_prev = pi_next, j_next
        if step is None:
            trace.converged = delta_pi <= tol
            break
        pi_next, surrogate, _ = step
    return pi_k, trace
