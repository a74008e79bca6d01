"""Exact backward dynamic programming for the KL-regularized control family.

``solve_central`` implements the two-weight recursion (risk over transitions
with weight lambda_s, risk over actions with weight lambda_p); the classical
and soft formulations are dispatched from it or from their own specialized
recursions.  ``_evaluate`` is the matching backward evaluator for fixed
decision variables, behind ``expected_cost_under``, ``rsoc_value``,
``regularized_policy_value`` and ``central_policy_value``.
``evaluate_objective`` scores arbitrary decision variables by exhaustive
enumeration instead, so every solver output can be cross-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import oracle
from .model import (
    ControlProblem,
    Policy,
    ProblemValidationError,
    TransitionKernel,
    kl_rows,
    trajectory_kl,
    validate_problem,
)
from .risk import entropic_risk, entropic_risk_rows, tilted_rows


class Formulation(str, enum.Enum):
    CENTRAL = "central"
    SOC = "soc"
    SP_SOC = "sp_soc"
    RSOC = "rsoc"
    SP_RSOC = "sp_rsoc"
    DOC = "doc"
    SP_DOC = "sp_doc"


@dataclass(frozen=True)
class Solution:
    """Backward-pass output: values, action values and the optimal tables."""

    formulation: Formulation
    V: np.ndarray  # (T+1, S)
    Q: np.ndarray  # (T, S, A)
    pi_star: Policy
    tau_star: TransitionKernel


def _require_valid(problem: ControlProblem):
    violations = validate_problem(problem)
    if violations:
        raise ProblemValidationError(violations)


def _require_lambda_p(problem: ControlProblem) -> float:
    if problem.lambda_p is None or not problem.lambda_p > 0:
        raise ValueError("this formulation needs lambda_p > 0")
    return float(problem.lambda_p)


def _require_lambda_s(problem: ControlProblem) -> float:
    if problem.lambda_s is None or problem.lambda_s == 0:
        raise ValueError("this formulation needs a nonzero lambda_s")
    return float(problem.lambda_s)


def _require_dirac(problem: ControlProblem):
    if not problem.has_deterministic_kernels():
        raise ValueError(
            "doc/sp_doc require deterministic baseline kernels (Dirac rows)"
        )


def _expected_next(problem: ControlProblem, t: int, v_next: np.ndarray) -> np.ndarray:
    return np.einsum("xuy,y->xu", problem.baseline_kernels.table[t], v_next)


def _one_hot(q: np.ndarray) -> np.ndarray:
    """Greedy rows; ties go to the lowest action index."""
    best = np.argmin(q, axis=-1)
    table = np.zeros_like(q)
    table[np.arange(q.shape[0]), best] = 1.0
    return table


def _policy_weight(
    problem: ControlProblem, synchronized: bool, table_literal: bool
) -> float:
    lam_s = _require_lambda_s(problem)
    if synchronized and table_literal:
        raise ValueError("choose at most one of synchronized / table_literal")
    if synchronized:
        return abs(lam_s)
    if table_literal:
        # Literal column of the recursion table: lambda_s in the policy slot.
        # For lambda_s < 0 this flips the policy extremization direction and
        # no optimality properties are claimed.
        return lam_s
    return _require_lambda_p(problem)


def _backward(
    problem: ControlProblem,
    weight_p: Optional[float],
    weight_s: Optional[float],
    greedy_policy: bool,
    tilt_kernel: bool,
) -> Solution:
    """Shared backward pass.

    weight_s None means transitions are pinned to the baseline (plain
    expectation in the Q step); weight_p None with greedy_policy selects the
    hard minimum over actions.
    """
    T, S = problem.horizon, problem.num_states
    iota = problem.baseline_kernels.table
    rho = problem.baseline_policy.table
    V = np.empty((T + 1, S))
    V[T] = problem.terminal_cost
    Q = np.empty((T, S, problem.num_actions))
    pi = np.empty_like(Q)
    tau = np.empty_like(iota)
    for t in reversed(range(T)):
        if weight_s is None:
            Q[t] = problem.stage_costs[t] + _expected_next(problem, t, V[t + 1])
            tau[t] = iota[t]
        else:
            Q[t] = problem.stage_costs[t] + entropic_risk_rows(
                iota[t], V[t + 1][None, None, :], weight_s
            )
            # The stage cost is constant along x', so tilting by c + V equals
            # tilting by V alone.
            tau[t] = (
                tilted_rows(iota[t], V[t + 1][None, None, :], weight_s)
                if tilt_kernel
                else iota[t]
            )
        if greedy_policy:
            pi[t] = _one_hot(Q[t])
            V[t] = Q[t].min(axis=-1)
        else:
            V[t] = entropic_risk_rows(rho[t], Q[t], weight_p)
            pi[t] = tilted_rows(rho[t], Q[t], weight_p)
    return Solution(Formulation.CENTRAL, V, Q, Policy(pi), TransitionKernel(tau))


def solve_central(problem: ControlProblem) -> Solution:
    """Backward recursion of the two-weight KL-regularized problem."""
    _require_valid(problem)
    lam_p = _require_lambda_p(problem)
    lam_s = _require_lambda_s(problem)
    sol = _backward(problem, lam_p, lam_s, greedy_policy=False, tilt_kernel=True)
    return Solution(Formulation.CENTRAL, sol.V, sol.Q, sol.pi_star, sol.tau_star)


def solve_formulation(
    problem: ControlProblem,
    form: Formulation,
    *,
    synchronized: bool = False,
    table_literal: bool = False,
) -> Solution:
    """Dispatch the backward recursion of one named formulation."""
    form = Formulation(form)
    _require_valid(problem)
    if form is Formulation.CENTRAL:
        return solve_central(problem)
    if form is Formulation.SOC:
        sol = _backward(problem, None, None, greedy_policy=True, tilt_kernel=False)
    elif form is Formulation.SP_SOC:
        lam_p = _require_lambda_p(problem)
        sol = _backward(problem, lam_p, None, greedy_policy=False, tilt_kernel=False)
    elif form is Formulation.RSOC:
        lam_s = _require_lambda_s(problem)
        sol = _backward(problem, None, lam_s, greedy_policy=True, tilt_kernel=True)
    elif form is Formulation.SP_RSOC:
        weight_p = _policy_weight(problem, synchronized, table_literal)
        lam_s = _require_lambda_s(problem)
        sol = _backward(problem, weight_p, lam_s, greedy_policy=False, tilt_kernel=True)
    elif form is Formulation.DOC:
        _require_dirac(problem)
        sol = _backward(problem, None, None, greedy_policy=True, tilt_kernel=False)
    elif form is Formulation.SP_DOC:
        _require_dirac(problem)
        lam_p = _require_lambda_p(problem)
        sol = _backward(problem, lam_p, None, greedy_policy=False, tilt_kernel=False)
    else:  # pragma: no cover
        raise ValueError(f"unknown formulation {form}")
    return Solution(form, sol.V, sol.Q, sol.pi_star, sol.tau_star)


def _evaluate(
    problem: ControlProblem,
    policy: Policy,
    kernel: Optional[TransitionKernel] = None,
    *,
    weight_s: Optional[float] = None,
    risk_s: bool = False,
    weight_p: Optional[float] = None,
    risk_p: bool = False,
    reference: Optional[Policy] = None,
) -> float:
    """Backward evaluation of a fixed policy (and kernel): sum_x p(x0) W_0(x0).

    Transition step: with ``risk_s``, the entropic risk of W_{t+1} over the
    baseline kernels with weight ``weight_s``; otherwise its expectation under
    ``kernel`` (default: the baseline kernels), plus KL(kernel || baseline) /
    weight_s when both are given.  Policy step: with ``risk_p``, the entropic
    risk over ``policy`` with weight ``weight_p``; otherwise the expectation
    under ``policy``, plus KL(policy || reference) / weight_p when a weight is
    given (``reference`` defaults to the baseline policy).  O(T S^2 A), no
    trajectory enumeration.
    """
    iota = problem.baseline_kernels.table
    pi = policy.table
    kl_tau = None
    if kernel is not None and weight_s is not None:
        kl_tau = kl_rows(kernel.table, iota, "tau") / weight_s
    tau = iota if kernel is None else kernel.table
    kl_pi = None
    if weight_p is not None and not risk_p:
        ref = problem.baseline_policy if reference is None else reference
        kl_pi = kl_rows(pi, ref.table, "pi") / weight_p
    W = problem.terminal_cost
    for t in reversed(range(problem.horizon)):
        if risk_s:
            q = problem.stage_costs[t] + entropic_risk_rows(
                iota[t], W[None, None, :], weight_s
            )
        else:
            q = problem.stage_costs[t] + tau[t] @ W
            if kl_tau is not None:
                q = q + kl_tau[t]
        if risk_p:
            W = entropic_risk_rows(pi[t], q, weight_p)
        else:
            W = (pi[t] * q).sum(axis=-1)
            if kl_pi is not None:
                W = W + kl_pi[t]
    return float(problem.initial_distribution @ W)


def expected_cost_under(problem: ControlProblem, policy: Policy) -> float:
    """Exact expected cumulative cost under (policy, baseline kernels)."""
    return _evaluate(problem, policy)


def rsoc_value(problem: ControlProblem, policy: Policy, lam: float) -> float:
    """Exponential-utility value of a fixed policy, exactly.

    The risk is taken conditionally on each initial state and averaged under
    the initial distribution, matching the Σ p(x0) V_0(x0) aggregation used
    by every solver.  Conditional on x0 the risk of the whole trajectory cost
    nests stage by stage, over actions and transitions alike.
    """
    return _evaluate(problem, policy, weight_s=lam, risk_s=True, weight_p=lam, risk_p=True)


def evaluate_objective(
    problem: ControlProblem,
    form: Formulation,
    policy: Policy,
    kernel: Optional[TransitionKernel] = None,
    *,
    synchronized: bool = False,
    table_literal: bool = False,
) -> float:
    """Score the given decision variables under one formulation, exactly.

    Expectations are taken by exhaustive trajectory enumeration; the KL terms
    are stagewise expectations under the induced trajectory distribution.  A
    kernel is required whenever transitions are free (central, sp_rsoc); for
    rsoc without a kernel the exponential-utility value of the policy is
    returned, with the risk taken per initial state.
    """
    form = Formulation(form)
    _require_valid(problem)
    iota = problem.baseline_kernels
    rho = problem.baseline_policy
    if form in (Formulation.SOC, Formulation.DOC):
        if kernel is not None:
            raise ValueError(f"{form.value} has no free transition kernel")
        return oracle.expected_cost(oracle.enumerate_trajectories(problem, policy, iota))
    if form in (Formulation.SP_SOC, Formulation.SP_DOC):
        if kernel is not None:
            raise ValueError(f"{form.value} has no free transition kernel")
        lam_p = _require_lambda_p(problem)
        d_pi, _ = trajectory_kl(policy, rho, iota, iota, problem)
        table = oracle.enumerate_trajectories(problem, policy, iota)
        return oracle.expected_cost(table) + d_pi / lam_p
    if form is Formulation.RSOC:
        lam_s = _require_lambda_s(problem)
        if kernel is None:
            # risk conditional on each initial state, averaged under p(x0)
            table = oracle.enumerate_trajectories(problem, policy, iota)
            p0 = problem.initial_distribution
            x0 = table.states[:, 0]
            value = 0.0
            for x in np.nonzero(p0)[0]:
                mask = x0 == x
                value += p0[x] * entropic_risk(
                    table.probs[mask] / p0[x], table.costs[mask], lam_s
                )
            return float(value)
        table = oracle.enumerate_trajectories(problem, policy, kernel)
        _, d_tau = trajectory_kl(policy, policy, kernel, iota, problem)
        return oracle.expected_cost(table) + d_tau / lam_s
    # central / sp_rsoc: both KL terms, kernel mandatory.
    if kernel is None:
        raise ValueError(f"{form.value} needs an explicit transition kernel")
    lam_s = _require_lambda_s(problem)
    if form is Formulation.CENTRAL:
        weight_p = _require_lambda_p(problem)
    else:
        weight_p = _policy_weight(problem, synchronized, table_literal)
    table = oracle.enumerate_trajectories(problem, policy, kernel)
    d_pi, d_tau = trajectory_kl(policy, rho, kernel, iota, problem)
    return oracle.expected_cost(table) + d_pi / weight_p + d_tau / lam_s


def initial_value(problem: ControlProblem, solution: Solution) -> float:
    """Optimal objective value sum_x p(x0) V_0(x0)."""
    return float(problem.initial_distribution @ solution.V[0])


def regularized_policy_value(
    problem: ControlProblem,
    target: str,
    policy: Policy,
    baseline: Policy,
    lambda_p: float,
) -> float:
    """Soft-policy objective of a fixed policy with transitions optimized out.

    For target 'soc' this is the expected cost plus the policy KL penalty;
    for target 'rsoc' the transition extremum is folded in through the risk
    recursion, so the result is the tight surrogate value at ``policy``.
    """
    if target not in ("soc", "rsoc"):
        raise ValueError(f"unknown target {target!r}")
    lam_s = _require_lambda_s(problem) if target == "rsoc" else None
    return _evaluate(
        problem,
        policy,
        weight_s=lam_s,
        risk_s=target == "rsoc",
        weight_p=lambda_p,
        reference=baseline,
    )


def central_policy_value(
    problem: ControlProblem, policy: Policy, kernel: TransitionKernel
) -> float:
    """Exact fully-regularized objective of fixed (policy, kernel) tables.

    Backward policy evaluation in O(T S^2 A); agrees with evaluate_objective
    on the central formulation but avoids trajectory enumeration.
    """
    lam_p = _require_lambda_p(problem)
    lam_s = _require_lambda_s(problem)
    return _evaluate(problem, policy, kernel, weight_s=lam_s, weight_p=lam_p)
