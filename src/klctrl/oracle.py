"""Brute-force exact computation on small instances.

Exhaustive trajectory enumeration, exact risk objectives, exponentially
tilted posteriors, conditional policies and deterministic-policy sweeps.
These are the ground truth the solver modules are tested against, so every
answer here is exact or absent: caps raise, they never truncate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ControlProblem,
    Policy,
    Trajectory,
    TransitionKernel,
)
from .risk import _coerce_lambda, logsumexp

DEFAULT_TRAJECTORY_CAP = 10**6
DEFAULT_POLICY_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """The instance exceeds the configured enumeration cap."""


@dataclass(frozen=True)
class TrajectoryTable:
    """All positive-probability trajectories of one (policy, kernel) pair.

    ``states`` has shape (N, T+1), ``actions`` (N, T); ``probs`` are exact
    products of the generating factors and ``costs`` the cumulative costs.
    """

    problem: ControlProblem
    policy: Policy
    kernel: TransitionKernel
    states: np.ndarray
    actions: np.ndarray
    probs: np.ndarray
    costs: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]

    def total_probability(self) -> float:
        return float(self.probs.sum())

    def trajectories(self):
        for i in range(len(self)):
            yield Trajectory(tuple(self.states[i]), tuple(self.actions[i]))


def enumerate_trajectories(
    problem: ControlProblem,
    policy: Policy,
    kernel: TransitionKernel,
    cap: int = DEFAULT_TRAJECTORY_CAP,
) -> TrajectoryTable:
    """Every trajectory with nonzero probability, exactly once."""
    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    start = np.nonzero(problem.initial_distribution)[0]
    states = start[:, None]
    actions = np.zeros((len(start), 0), dtype=int)
    probs = problem.initial_distribution[start]
    costs = np.zeros(len(start))
    for t in range(T):
        cur = states[:, -1]
        step = (policy.table[t][:, :, None] * kernel.table[t]).reshape(S, A * S)
        # Count the stage's rows from each state's support before building
        # them, so a refused stage allocates nothing of its size.
        needed = int(np.bincount(cur, minlength=S) @ np.count_nonzero(step, axis=-1))
        if needed > cap:
            raise EnumerationCapError(
                f"trajectory enumeration needs {needed} rows at stage {t}, cap is {cap}"
            )
        flat = step[cur]  # (N, A*S)
        row, col = np.nonzero(flat)
        u, y = col // S, col % S
        probs = probs[row] * flat[row, col]
        costs = costs[row] + problem.stage_costs[t][cur[row], u]
        states = np.concatenate([states[row], y[:, None]], axis=1)
        actions = np.concatenate([actions[row], u[:, None]], axis=1)
    costs = costs + problem.terminal_cost[states[:, -1]]
    return TrajectoryTable(problem, policy, kernel, states, actions, probs, costs)


def tilt_table(table: TrajectoryTable, lam) -> TrajectoryTable:
    """Reweight trajectory probabilities by exp(-lam cost) and renormalize."""
    lam = _coerce_lambda(lam)
    logw = np.log(table.probs) - lam * table.costs
    logw -= logsumexp(logw)
    return TrajectoryTable(
        table.problem,
        table.policy,
        table.kernel,
        table.states,
        table.actions,
        np.exp(logw),
        table.costs,
    )


def exact_risk_objective(table: TrajectoryTable, lam) -> float:
    """-(1/lam) log sum_traj p(traj) exp(-lam cost(traj))."""
    lam = _coerce_lambda(lam)
    if len(table) == 0:
        raise ValueError("empty trajectory table")
    return float(-logsumexp(np.log(table.probs) - lam * table.costs) / lam)


def expected_cost(table: TrajectoryTable) -> float:
    return float(table.probs @ table.costs)


def exact_posterior(problem: ControlProblem, policy: Policy, lam) -> TrajectoryTable:
    """Trajectory posterior given optimality, p proportional to exp(-lam cost).

    The prior is the trajectory distribution of ``policy`` composed with the
    baseline kernels; lam must be positive (risk-seeking likelihood).
    """
    lam = _coerce_lambda(lam)
    if lam <= 0:
        raise ValueError("the optimality likelihood requires lambda > 0")
    prior = enumerate_trajectories(problem, policy, problem.baseline_kernels)
    return tilt_table(prior, lam)


def conditional_policy(posterior: TrajectoryTable) -> Policy:
    """pi_t(u | x) = posterior mass of (x_t, u_t) / posterior mass of x_t.

    Rows with zero posterior state mass fall back to the baseline policy.
    """
    problem = posterior.problem
    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    joint = np.zeros((T, S, A))
    for t in range(T):
        np.add.at(joint[t], (posterior.states[:, t], posterior.actions[:, t]), posterior.probs)
    marginal = joint.sum(axis=-1)
    table = problem.baseline_policy.table.copy()
    reach = marginal > 0
    table[reach] = joint[reach] / marginal[reach][:, None]
    return Policy(table)


def _policy_values_soc(problem: ControlProblem, acts: np.ndarray) -> np.ndarray:
    """Expected cumulative cost of each deterministic policy, shape (P,)."""
    T, S = problem.horizon, problem.num_states
    s_idx = np.arange(S)
    W = np.broadcast_to(problem.terminal_cost, (acts.shape[0], S)).copy()
    for t in reversed(range(T)):
        a = acts[:, t, :]  # (P, S)
        step = problem.stage_costs[t][s_idx[None, :], a]
        trans = problem.baseline_kernels.table[t][s_idx[None, :], a]  # (P, S, S)
        W = step + np.einsum("psy,py->ps", trans, W)
    return W @ problem.initial_distribution


def _policy_values_rsoc(problem: ControlProblem, acts: np.ndarray, lam: float) -> np.ndarray:
    """Exact exponential-utility value of each deterministic policy.

    Risk is conditional on the initial state, then averaged under the
    initial distribution (the same Σ p(x0) V_0(x0) aggregation the solvers
    report).
    """
    T, S = problem.horizon, problem.num_states
    s_idx = np.arange(S)
    L = np.broadcast_to(-lam * problem.terminal_cost, (acts.shape[0], S)).copy()
    for t in reversed(range(T)):
        a = acts[:, t, :]
        trans = problem.baseline_kernels.table[t][s_idx[None, :], a]
        with np.errstate(divide="ignore"):
            log_trans = np.log(trans)
        L = -lam * problem.stage_costs[t][s_idx[None, :], a] + logsumexp(
            log_trans + L[:, None, :], axis=-1
        )
    support = problem.initial_distribution > 0
    V0 = -L[:, support] / lam
    return V0 @ problem.initial_distribution[support]


def brute_force_policy_search(
    problem: ControlProblem,
    objective: str,
    lam=None,
    cap: int = DEFAULT_POLICY_CAP,
):
    """Certified optimum over all deterministic Markov policies.

    Returns (one-hot Policy, optimal value).  Ties break toward the
    lexicographically smallest action assignment over (t, x) in row-major
    order, so outputs are reproducible.
    """
    if objective not in ("soc", "rsoc"):
        raise ValueError(f"unknown objective {objective!r}")
    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    count = A ** (S * T)
    if count > cap:
        raise EnumerationCapError(
            f"policy sweep needs {count} policies, cap is {cap}"
        )
    if T == 0:
        if objective == "rsoc":
            _coerce_lambda(lam)
        # conditional on x0 the cost is deterministic, so risk = expectation
        value = float(problem.initial_distribution @ problem.terminal_cost)
        return Policy(np.zeros((0, S, A))), value
    flat = np.array(
        np.unravel_index(np.arange(count), (A,) * (S * T))
    ).T  # (P, S*T), first axis varies slowest
    acts = flat.reshape(count, T, S)
    if objective == "soc":
        values = _policy_values_soc(problem, acts)
    else:
        values = _policy_values_rsoc(problem, acts, _coerce_lambda(lam))
    best = int(np.argmin(values))
    return Policy.deterministic(acts[best], A), float(values[best])
