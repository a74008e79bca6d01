"""Exact backward dynamic programming for the KL-regularized control family.

``_backward`` is the one backward optimizer: the two-weight recursion (risk
over transitions with weight lambda_s, risk over actions with weight
lambda_p).  Every formulation is that recursion with some sides pinned, and
a pinned side is one without a weight: its step is the plain expectation over
the baseline kernels (tau* is then the baseline kernel object itself) or the
hard minimum over actions (a greedy pi*).  The pass stores no (T, S, A, S)
table: tau*_t(. | x, u) is proportional to iota_t(. | x, u) exp(-lambda_s
V_{t+1}), so ``Solution.tau_star`` builds it on first access from (iota, V,
lambda_s).  ``solve_formulation`` validates
the problem once, picks the two weights and runs the pass; ``solve_central``
is its central case.  ``_weights`` maps a formulation to its two weights;
``oracle.evaluate_objective`` scores by enumeration through the same map.
``_evaluate`` is the matching backward evaluator for fixed decision
variables, behind ``expected_cost_under``, ``rsoc_value``,
``regularized_policy_value`` and ``central_policy_value``.  It keeps the
same convention: a side without a weight is pinned, and a pinned policy step
applies the transition step's operator (the risk when the transitions take
it, the expectation otherwise).  Every weight passes ``model.check_weight``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ControlProblem,
    Policy,
    ProblemValidationError,
    TransitionKernel,
    check_weight,
    kl_rows,
    validate_problem,
)
from .risk import entropic_risk_rows, risk_and_tilted_rows, tilted_rows


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
    """Backward-pass output: values, action values and the optimal tables.

    ``tau_star`` is built on first access, from the baseline ``kernels``, V and
    ``weight_s``, and then kept.  With the transitions pinned (``weight_s``
    None) it is the baseline kernel object itself.
    """

    formulation: Formulation
    V: np.ndarray  # (T+1, S)
    Q: np.ndarray  # (T, S, A)
    pi_star: Policy
    kernels: TransitionKernel  # the baseline iota
    weight_s: Optional[float]

    @functools.cached_property
    def tau_star(self) -> TransitionKernel:
        """tau*_t = iota_t tilted by exp(-weight_s V_{t+1}), checked by
        ``TransitionKernel``.  The stage cost is constant along x', so tilting
        by c + V equals tilting by V alone."""
        if self.weight_s is None:
            return self.kernels
        iota = self.kernels.table
        # np.empty, not empty_like: a stride-0 iota would give its layout
        tau = np.empty(iota.shape)
        for t in range(len(iota)):
            tau[t] = tilted_rows(iota[t], self.V[t + 1], self.weight_s)
        tau.flags.writeable = False  # handed over, so TransitionKernel shares it
        return TransitionKernel(tau)


def _require_valid(problem: ControlProblem):
    violations = validate_problem(problem)
    if violations:
        raise ProblemValidationError(violations)


def _require_lambda_p(problem: ControlProblem) -> float:
    if problem.lambda_p is None:
        raise ValueError("this formulation needs lambda_p > 0")
    return check_weight(problem.lambda_p, "lambda_p", positive=True)


def _require_lambda_s(problem: ControlProblem) -> float:
    if problem.lambda_s is None:
        raise ValueError("this formulation needs a nonzero lambda_s")
    return check_weight(problem.lambda_s, "lambda_s", positive=False)


def _require_dirac(problem: ControlProblem):
    if not problem.has_deterministic_kernels():
        raise ValueError(
            "doc/sp_doc require deterministic baseline kernels (Dirac rows)"
        )


def _weights(
    problem: ControlProblem, form: Formulation, synchronized: bool, table_literal: bool
) -> tuple:
    """(weight_p, weight_s) of one formulation; None marks a pinned side."""
    if (synchronized or table_literal) and form is not Formulation.SP_RSOC:
        raise ValueError(f"synchronized / table_literal apply to sp_rsoc only, not {form.value}")
    weight_p = None
    if form is Formulation.SP_RSOC:
        lam_s = _require_lambda_s(problem)
        if synchronized and table_literal:
            raise ValueError("choose at most one of synchronized / table_literal")
        if synchronized:
            weight_p = abs(lam_s)
        elif table_literal:
            # Literal column of the recursion table: lambda_s in the policy
            # slot.  For lambda_s < 0 this flips the policy extremization
            # direction and no optimality properties are claimed.
            weight_p = lam_s
        else:
            weight_p = _require_lambda_p(problem)
    elif form in (Formulation.CENTRAL, Formulation.SP_SOC, Formulation.SP_DOC):
        weight_p = _require_lambda_p(problem)
    weight_s = None
    if form in (Formulation.CENTRAL, Formulation.RSOC, Formulation.SP_RSOC):
        weight_s = _require_lambda_s(problem)
    return weight_p, weight_s


def _backward(
    problem: ControlProblem,
    form: Formulation,
    weight_p: Optional[float],
    weight_s: Optional[float],
) -> Solution:
    """Shared backward pass of every formulation.

    A side without a weight is pinned.  weight_s None takes the plain
    expectation over the baseline kernels in the Q step, and tau* is the
    baseline kernel object itself.  weight_p None takes the hard minimum over
    actions, and pi* is greedy, with ties going to the lowest action index.
    tau* is not built here; ``Solution.tau_star`` builds it when it is read.
    """
    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    iota = problem.baseline_kernels.table
    rho = problem.baseline_policy.table
    V = np.empty((T + 1, S))
    V[T] = problem.terminal_cost
    Q = np.empty((T, S, A))
    pi = None if weight_p is None else np.empty_like(Q)
    for t in reversed(range(T)):
        if weight_s is None:
            # einsum, not `@`: the matmul sums in another order, which splits
            # an exact tie between two actions of grid4x4 by one ulp and so
            # changes which action the greedy row picks.
            Q[t] = problem.stage_costs[t] + np.einsum("xuy,y->xu", iota[t], V[t + 1])
        else:
            Q[t] = problem.stage_costs[t] + entropic_risk_rows(iota[t], V[t + 1], weight_s)
        if weight_p is None:
            V[t] = Q[t].min(axis=-1)
        else:
            V[t], pi[t] = risk_and_tilted_rows(rho[t], Q[t], weight_p)
    pi_star = Policy.deterministic(Q.argmin(axis=-1), A) if pi is None else Policy(pi)
    return Solution(form, V, Q, pi_star, problem.baseline_kernels, weight_s)


def solve_central(problem: ControlProblem) -> Solution:
    """Backward recursion of the two-weight KL-regularized problem."""
    return solve_formulation(problem, Formulation.CENTRAL)


def solve_formulation(
    problem: ControlProblem,
    form: Formulation,
    *,
    synchronized: bool = False,
    table_literal: bool = False,
) -> Solution:
    """Dispatch the backward recursion of one named formulation.

    Each formulation is ``_backward`` with the weights of its free sides; doc
    and sp_doc are soc and sp_soc on deterministic baseline kernels.
    """
    form = Formulation(form)
    _require_valid(problem)
    if form in (Formulation.DOC, Formulation.SP_DOC):
        _require_dirac(problem)
    weight_p, weight_s = _weights(problem, form, synchronized, table_literal)
    return _backward(problem, form, weight_p, weight_s)


def _evaluate(
    problem: ControlProblem,
    policy: Policy,
    kernel: Optional[TransitionKernel] = None,
    *,
    weight_s: Optional[float] = None,
    weight_p: Optional[float] = None,
) -> float:
    """Backward evaluation of a fixed policy (and kernel): sum_x p(x0) W_0(x0).

    As in ``_backward``, a side without a weight is pinned.  Transition step:
    with ``weight_s`` and no ``kernel``, the free transitions take the risk of
    W_{t+1} over the baseline kernels; otherwise the expectation under
    ``kernel`` (default: the baseline kernels), plus KL(kernel || baseline) /
    weight_s when both are given.  Policy step: with ``weight_p``, the
    expectation under ``policy`` plus KL(policy || baseline) / weight_p; a
    pinned policy applies the transition step's operator (the risk with
    ``weight_s`` or the expectation).  O(T S^2 A), no trajectory enumeration.
    """
    iota = problem.baseline_kernels.table
    pi = policy.table
    risk_s = kernel is None and weight_s is not None
    kl_tau = None
    if kernel is not None and weight_s is not None:
        kl_tau = kl_rows(kernel.table, iota, "tau") / weight_s
    tau = iota if kernel is None else kernel.table
    kl_pi = None
    if weight_p is not None:
        kl_pi = kl_rows(pi, problem.baseline_policy.table, "pi") / weight_p
    W = problem.terminal_cost
    for t in reversed(range(problem.horizon)):
        if risk_s:
            q = problem.stage_costs[t] + entropic_risk_rows(iota[t], W, weight_s)
        else:
            q = problem.stage_costs[t] + tau[t] @ W
            if kl_tau is not None:
                q = q + kl_tau[t]
        if risk_s and weight_p is None:
            W = entropic_risk_rows(pi[t], q, weight_s)
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
    return _evaluate(problem, policy, weight_s=check_weight(lam, "lam", positive=False))


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
    lambda_p = check_weight(lambda_p, "lambda_p", positive=True)
    lam_s = _require_lambda_s(problem) if target == "rsoc" else None
    problem = problem.replace(baseline_policy=baseline)
    return _evaluate(problem, policy, weight_s=lam_s, weight_p=lambda_p)


def central_policy_value(
    problem: ControlProblem, policy: Policy, kernel: TransitionKernel
) -> float:
    """Exact fully-regularized objective of fixed (policy, kernel) tables.

    Backward policy evaluation in O(T S^2 A); agrees with
    ``oracle.evaluate_objective`` on the central formulation but avoids
    trajectory enumeration.
    """
    lam_p = _require_lambda_p(problem)
    lam_s = _require_lambda_s(problem)
    return _evaluate(problem, policy, kernel, weight_s=lam_s, weight_p=lam_p)
