"""Exact backward dynamic programming for the KL-regularized control family.

``_backward`` is the one backward optimizer: the two-weight recursion (risk
over transitions with weight lambda_s, risk over actions with weight
lambda_p).  Every formulation is that recursion with some sides pinned, and
a pinned side is one without a weight: its step is the plain expectation over
the baseline kernels (tau* is then the baseline kernel object itself) or the
hard minimum over actions (a greedy pi*).  The pass stores no (T, S, A, S)
table: tau*_t(. | x, u) is proportional to iota_t(. | x, u) exp(-lambda_s
V_{t+1}), so ``Solution.tau_star`` builds it on first access from (iota, V,
lambda_s).  ``solve_formulation`` validates the problem once, picks the two
weights and runs the pass; ``solve_central`` is its central case.
``_weights`` maps a formulation to its two weights, and every pass reads
it: ``_backward``, the oracle's enumerating ``evaluate_objective`` and
``_evaluate``, the backward evaluator of fixed decision variables with the
oracle's call shape.  ``expected_cost_under``, ``rsoc_value``,
``regularized_policy_value`` and ``central_policy_value`` are each one call
of it.  In ``_evaluate`` a pinned policy step applies the transition step's
operator (the risk when the transitions take it, the expectation otherwise).
Every weight passes ``model.check_weight``.
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


def _weights(
    problem: ControlProblem, form: Formulation, synchronized: bool, table_literal: bool
) -> tuple:
    """(weight_p, weight_s) of one formulation; None marks a pinned side.

    doc and sp_doc are soc and sp_soc on deterministic baseline kernels, so
    they refuse any other problem first.
    """
    if form in (Formulation.DOC, Formulation.SP_DOC) and not problem.has_deterministic_kernels():
        raise ValueError("doc/sp_doc require deterministic baseline kernels (Dirac rows)")
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
    weight_p, weight_s = _weights(problem, form, synchronized, table_literal)
    return _backward(problem, form, weight_p, weight_s)


def _soft_policy_form(target: str) -> Formulation:
    """The soft-policy formulation of a classical target: sp_soc or sp_rsoc."""
    if target not in ("soc", "rsoc"):
        raise ValueError(f"unknown target {target!r}")
    return Formulation.SP_SOC if target == "soc" else Formulation.SP_RSOC


def _evaluate(
    problem: ControlProblem,
    form: Formulation,
    policy: Policy,
    kernel: Optional[TransitionKernel] = None,
) -> float:
    """Backward evaluation of fixed decision variables: sum_x p(x0) W_0(x0).

    The weights are ``_weights`` of ``form``; as in ``_backward``, a side
    without a weight is pinned.  Free transitions without a ``kernel`` take
    the risk of W_{t+1} over the baseline kernels; otherwise the expectation
    under ``kernel`` (default: the baseline), plus KL(kernel || baseline) /
    weight_s when they are free.  A free policy takes the expectation plus
    KL(policy || baseline) / weight_p; a pinned one applies the transition
    step's operator.  O(T S^2 A), no trajectory enumeration.  The problem is
    validated only when the value is not finite, so a NaN entry is named and
    refused while a valid problem costs one test.
    """
    weight_p, weight_s = _weights(problem, form, False, False)
    iota, pi = problem.baseline_kernels.table, policy.table
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
    value = float(problem.initial_distribution @ W)
    if not np.isfinite(value):
        _require_valid(problem)
    return value


def expected_cost_under(problem: ControlProblem, policy: Policy) -> float:
    """Exact expected cumulative cost under (policy, baseline kernels)."""
    return _evaluate(problem, Formulation.SOC, policy)


def rsoc_value(problem: ControlProblem, policy: Policy, lam: float) -> float:
    """Exponential-utility value of a fixed policy, exactly.

    The risk is taken conditionally on each initial state and averaged under
    the initial distribution, matching the Σ p(x0) V_0(x0) aggregation used
    by every solver.  Conditional on x0 the risk of the whole trajectory cost
    nests stage by stage, over actions and transitions alike.
    """
    lam = check_weight(lam, "lam", positive=False)
    return _evaluate(problem.replace(lambda_s=lam), Formulation.RSOC, policy)


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
    form = _soft_policy_form(target)
    return _evaluate(problem.replace(baseline_policy=baseline, lambda_p=lambda_p), form, policy)


def central_policy_value(
    problem: ControlProblem, policy: Policy, kernel: TransitionKernel
) -> float:
    """Exact fully-regularized objective of fixed (policy, kernel) tables.

    Backward policy evaluation in O(T S^2 A); agrees with
    ``oracle.evaluate_objective`` on the central formulation but avoids
    trajectory enumeration.
    """
    return _evaluate(problem, Formulation.CENTRAL, policy, kernel)
