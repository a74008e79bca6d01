"""Tabular finite-horizon controlled Markov model.

Holds the problem data (baseline policy/kernels, costs, KL weights) and the
trajectory-level quantities every solver consumes: log-probabilities,
cumulative costs and stagewise KL decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

ROW_TOL = 1e-9


class SupportViolationError(ValueError):
    """A distribution places mass where its reference distribution has none."""


class ProblemValidationError(ValueError):
    """A ControlProblem (or derived table) violates its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _as_array(x, shape, name):
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _row_violations(name: str, table: np.ndarray, tol: float = ROW_TOL):
    out = []
    sums = table.sum(axis=-1)
    for idx in np.argwhere(np.abs(sums - 1.0) > tol):
        key = tuple(int(i) for i in idx)
        out.append(f"{name}{key}: row sum {sums[key]:.12g} != 1")
    for idx in np.argwhere(table < 0):
        key = tuple(int(i) for i in idx)
        out.append(f"{name}{key}: negative entry {table[key]:.12g}")
    return out


@dataclass(frozen=True)
class Policy:
    """Time-indexed action distributions pi_t(u | x), shape (T, S, A)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 3:
            raise ValueError("policy table must have shape (T, S, A)")
        bad = _row_violations("pi", table)
        if bad:
            raise ProblemValidationError(bad)
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def horizon(self) -> int:
        return self.table.shape[0]

    @staticmethod
    def uniform(horizon: int, num_states: int, num_actions: int) -> "Policy":
        return Policy(np.full((horizon, num_states, num_actions), 1.0 / num_actions))

    @staticmethod
    def deterministic(actions: np.ndarray, num_actions: int) -> "Policy":
        """One-hot policy from an action index table of shape (T, S)."""
        actions = np.asarray(actions, dtype=int)
        table = np.zeros(actions.shape + (num_actions,))
        t_idx, x_idx = np.indices(actions.shape)
        table[t_idx, x_idx, actions] = 1.0
        return Policy(table)


@dataclass(frozen=True)
class TransitionKernel:
    """Time-indexed transition tables tau_t(x' | x, u), shape (T, S, A, S)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 4:
            raise ValueError("kernel table must have shape (T, S, A, S)")
        bad = _row_violations("tau", table)
        if bad:
            raise ProblemValidationError(bad)
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def is_deterministic(self, tol: float = ROW_TOL) -> bool:
        return bool(np.all(np.abs(self.table.max(axis=-1) - 1.0) <= tol))


@dataclass(frozen=True)
class Trajectory:
    """A realized path (x_0, u_0, ..., x_{T-1}, u_{T-1}, x_T)."""

    states: tuple
    actions: tuple

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("need exactly one more state than actions")
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))
        object.__setattr__(self, "actions", tuple(int(u) for u in self.actions))

    @property
    def horizon(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class ControlProblem:
    """Finite-horizon tabular control problem with KL regularization weights.

    Baseline behaviour is a reference policy (``baseline_policy``) composed
    with the system kernels (``baseline_kernels``).  ``lambda_p`` weights the
    policy KL penalty (must be positive when set) and ``lambda_s`` the
    transition KL penalty (any nonzero sign; positive is risk-seeking).
    """

    horizon: int
    num_states: int
    num_actions: int
    initial_distribution: np.ndarray
    baseline_kernels: TransitionKernel
    baseline_policy: Policy
    stage_costs: np.ndarray
    terminal_cost: np.ndarray
    lambda_p: Optional[float] = None
    lambda_s: Optional[float] = None

    def __post_init__(self):
        T, S, A = self.horizon, self.num_states, self.num_actions
        if T < 0 or S <= 0 or A <= 0:
            raise ValueError("horizon must be >= 0 and state/action counts positive")
        object.__setattr__(
            self,
            "initial_distribution",
            _as_array(self.initial_distribution, (S,), "initial_distribution"),
        )
        if not isinstance(self.baseline_kernels, TransitionKernel):
            object.__setattr__(
                self, "baseline_kernels", TransitionKernel(self.baseline_kernels)
            )
        if not isinstance(self.baseline_policy, Policy):
            object.__setattr__(self, "baseline_policy", Policy(self.baseline_policy))
        if self.baseline_kernels.table.shape != (T, S, A, S):
            raise ValueError("baseline_kernels shape mismatch")
        if self.baseline_policy.table.shape != (T, S, A):
            raise ValueError("baseline_policy shape mismatch")
        object.__setattr__(
            self, "stage_costs", _as_array(self.stage_costs, (T, S, A), "stage_costs")
        )
        object.__setattr__(
            self, "terminal_cost", _as_array(self.terminal_cost, (S,), "terminal_cost")
        )

    def replace(self, **kwargs) -> "ControlProblem":
        fields = dict(
            horizon=self.horizon,
            num_states=self.num_states,
            num_actions=self.num_actions,
            initial_distribution=self.initial_distribution,
            baseline_kernels=self.baseline_kernels,
            baseline_policy=self.baseline_policy,
            stage_costs=self.stage_costs,
            terminal_cost=self.terminal_cost,
            lambda_p=self.lambda_p,
            lambda_s=self.lambda_s,
        )
        fields.update(kwargs)
        return ControlProblem(**fields)

    def has_deterministic_kernels(self) -> bool:
        return self.baseline_kernels.is_deterministic()


def validate_problem(problem: ControlProblem) -> list:
    """Collect invariant violations; an empty list means the problem is valid.

    Negative costs are reported as warnings elsewhere, not here: the solvers
    are well defined for any finite costs.  Non-finite entries are errors.
    """
    out = []
    p0 = problem.initial_distribution
    if abs(p0.sum() - 1.0) > ROW_TOL:
        out.append(f"initial_distribution: row sum {p0.sum():.12g} != 1")
    for idx in np.argwhere(p0 < 0):
        out.append(f"initial_distribution({int(idx[0])},): negative entry")
    out.extend(_row_violations("baseline_policy", problem.baseline_policy.table))
    out.extend(_row_violations("baseline_kernels", problem.baseline_kernels.table))
    for name, table in (
        ("stage_costs", problem.stage_costs),
        ("terminal_cost", problem.terminal_cost),
    ):
        for idx in np.argwhere(~np.isfinite(table)):
            key = tuple(int(i) for i in idx)
            out.append(f"{name}{key}: non-finite entry")
    if problem.lambda_p is not None and not problem.lambda_p > 0:
        out.append(f"lambda_p: must be > 0, got {problem.lambda_p:.12g}")
    if problem.lambda_s is not None and problem.lambda_s == 0:
        out.append("lambda_s: must be nonzero")
    return out


def cost_warnings(problem: ControlProblem) -> list:
    """Advisory notes for cost tables that bend the nonnegativity assumption."""
    out = []
    if (problem.stage_costs < 0).any():
        out.append("stage_costs: negative entries present")
    if (problem.terminal_cost < 0).any():
        out.append("terminal_cost: negative entries present")
    return out


def cumulative_cost(problem: ControlProblem, traj: Trajectory) -> float:
    """Sum of visited stage costs plus the terminal cost."""
    if traj.horizon != problem.horizon:
        raise ValueError("trajectory length does not match the problem horizon")
    total = float(problem.terminal_cost[traj.states[-1]])
    for t in range(problem.horizon):
        total += float(problem.stage_costs[t, traj.states[t], traj.actions[t]])
    return total


def trajectory_log_prob(
    problem: ControlProblem,
    policy: Policy,
    kernel: TransitionKernel,
    traj: Trajectory,
) -> float:
    """Log-probability of a trajectory under (policy, kernel); -inf off support."""
    if traj.horizon != problem.horizon:
        raise ValueError("trajectory length does not match the problem horizon")
    factors = [problem.initial_distribution[traj.states[0]]]
    for t in range(problem.horizon):
        x, u, y = traj.states[t], traj.actions[t], traj.states[t + 1]
        factors.append(policy.table[t, x, u])
        factors.append(kernel.table[t, x, u, y])
    factors = np.asarray(factors)
    if (factors == 0).any():
        return -np.inf
    return float(np.log(factors).sum())


def state_marginals(
    problem: ControlProblem, policy: Policy, kernel: TransitionKernel
) -> np.ndarray:
    """Forward state marginals p_t(x) under (policy, kernel), shape (T+1, S)."""
    T, S = problem.horizon, problem.num_states
    m = np.zeros((T + 1, S))
    m[0] = problem.initial_distribution
    for t in range(T):
        joint = m[t][:, None] * policy.table[t]
        m[t + 1] = np.einsum("xu,xuy->y", joint, kernel.table[t])
    return m


def kl_rows(p: np.ndarray, q: np.ndarray, name: str) -> np.ndarray:
    """Rowwise KL(p || q) over the last axis, with 0 log 0 = 0."""
    bad = (p > 0) & (q == 0)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SupportViolationError(f"{name}{idx}: mass outside reference support")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)) - np.log(np.where(q > 0, q, 1.0)), 0.0)
    return (p * ratio).sum(axis=-1)


def trajectory_kl(
    policy_a: Policy,
    policy_b: Policy,
    kernel_a: TransitionKernel,
    kernel_b: TransitionKernel,
    problem: ControlProblem,
) -> tuple:
    """Trajectory-level KL pair (policy term, kernel term).

    Both terms are expectations under the trajectory distribution generated by
    (policy_a, kernel_a): the policy term sums E[KL(pi_a,t || pi_b,t)] over
    stages and the kernel term the analogous transition expression.
    """
    marg = state_marginals(problem, policy_a, kernel_a)
    d_pi = 0.0
    d_tau = 0.0
    for t in range(problem.horizon):
        reach = marg[t] > 0
        if not reach.any():
            continue
        kl_pi = kl_rows(
            policy_a.table[t][reach], policy_b.table[t][reach], f"pi[{t}]"
        )
        d_pi += float(marg[t][reach] @ kl_pi)
        joint = marg[t][:, None] * policy_a.table[t]
        sel = joint > 0
        if sel.any():
            kl_tau = kl_rows(
                kernel_a.table[t][sel], kernel_b.table[t][sel], f"tau[{t}]"
            )
            d_tau += float(joint[sel] @ kl_tau)
    return d_pi, d_tau
