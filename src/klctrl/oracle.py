"""Brute-force exact computation on small instances.

Exhaustive trajectory enumeration and the trajectory-level quantities on
it, exact risk objectives, exponentially tilted posteriors, conditional
policies and deterministic-policy sweeps.  ``evaluate_objective`` scores any
decision variables by enumeration, with the weights of ``solvers._weights``.
These are the ground truth the solver modules are tested against, so every
answer here is exact or absent: caps raise, they never truncate.  Risk values
and tilts come from ``risk.entropic_risk`` and ``risk.tilted_distribution``
and the rsoc sweep from their log-domain core, never from the solver's row
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ControlProblem, Policy, TransitionKernel, check_weight, kl_rows, state_marginals
from .risk import _reference_log_sum, entropic_risk, tilted_distribution
from .solvers import Formulation, _require_valid, _weights

DEFAULT_TRAJECTORY_CAP = 10**6
DEFAULT_POLICY_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """The instance exceeds the configured enumeration cap."""


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
    return replace(table, probs=tilted_distribution(table.probs, table.costs, lam))


def exact_risk_objective(table: TrajectoryTable, lam) -> float:
    """-(1/lam) log sum_traj p(traj) exp(-lam cost(traj))."""
    if len(table) == 0:
        raise ValueError("empty trajectory table")
    return entropic_risk(table.probs, table.costs, lam)


def expected_cost(table: TrajectoryTable) -> float:
    return float(table.probs @ table.costs)


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

    One enumeration under (policy, kernel or the baseline kernels) gives the
    expected cost; each free side adds its stagewise KL expectation under the
    same trajectories over its weight.  A kernel is required when both sides
    are free (central, sp_rsoc) and refused when the transitions are pinned.
    For rsoc without a kernel the exponential-utility value of the policy is
    returned, with the risk taken per initial state.
    """
    form = Formulation(form)
    _require_valid(problem)
    weight_p, weight_s = _weights(problem, form, synchronized, table_literal)
    if kernel is not None and weight_s is None:
        raise ValueError(f"{form.value} has no free transition kernel")
    if kernel is None and weight_p is not None and weight_s is not None:
        raise ValueError(f"{form.value} needs an explicit transition kernel")
    iota = problem.baseline_kernels
    table = enumerate_trajectories(problem, policy, iota if kernel is None else kernel)
    if kernel is None and weight_s is not None:
        # the unpinned transitions take their extremum: risk conditional on
        # each initial state, averaged under p(x0)
        p0, x0 = problem.initial_distribution, table.states[:, 0]
        value = 0.0
        for x in np.nonzero(p0)[0]:
            mask = x0 == x
            value += p0[x] * entropic_risk(table.probs[mask] / p0[x], table.costs[mask], weight_s)
        return float(value)
    # a pinned policy is scored against itself, so its KL term is zero
    reference = policy if weight_p is None else problem.baseline_policy
    d_pi, d_tau = trajectory_kl(policy, reference, table.kernel, iota, problem)
    value = expected_cost(table)
    if weight_p is not None:
        value += d_pi / weight_p
    if kernel is not None:
        value += d_tau / weight_s
    return value


def exact_posterior(problem: ControlProblem, policy: Policy, lam) -> TrajectoryTable:
    """Trajectory posterior given optimality, p proportional to exp(-lam cost).

    The prior is the trajectory distribution of ``policy`` composed with the
    baseline kernels; lam must be positive (risk-seeking likelihood).
    """
    lam = check_weight(lam, "lambda", positive=True)
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
        log_s = _reference_log_sum(trans, L[:, None, :])[1]
        L = -lam * problem.stage_costs[t][s_idx[None, :], a] + log_s
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
    if objective == "rsoc":
        lam = check_weight(lam, "lambda", positive=False)
    if T == 0:
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
        values = _policy_values_rsoc(problem, acts, lam)
    best = int(np.argmin(values))
    return Policy.deterministic(acts[best], A), float(values[best])
