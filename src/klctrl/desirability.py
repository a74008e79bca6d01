"""Synchronized risk-seeking machinery: the linear backward pass on the
exponentiated value, its forward-sampling path-integral estimator, the
reweighted policy, and compositional mixing of component solutions.

Everything here requires a single positive weight used for both the policy
and transition penalties; risk-averse weights are rejected.  Desirability
tables are stored as logs so long horizons never underflow.

Each stage of the recursion runs in probability space through
``risk.log_expect_exp``: the transition step E_iota[z_{t+1}] is one BLAS
matrix-vector product against z_{t+1} / max z_{t+1}, and the action step
E_rho[exp(-lam c_t) E_iota[z_{t+1}]] shifts each state's row by its maximum
over the support of rho.  Only rows whose shifted sum underflows (below
``risk.UNDERFLOW_SUM``) are redone in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .model import ControlProblem, Policy, ProblemValidationError, check_weight, validate_problem
from .risk import log_expect_exp, logsumexp

# largest deviation from 1 of a reweighted policy row before its
# desirability table is called inconsistent with the problem
POLICY_ROW_TOL = 1e-8


def _require_valid(problem: ControlProblem):
    violations = validate_problem(problem)
    if violations:
        raise ProblemValidationError(violations)


@dataclass(frozen=True)
class Desirability:
    """Exponentiated value table z_t(x) = exp(-lam V_t(x)), stored as log z."""

    log_z: np.ndarray  # (T+1, S)
    lam: float

    @property
    def z(self) -> np.ndarray:
        return np.exp(self.log_z)

    def values(self) -> np.ndarray:
        """Recover the value table V = -(1/lam) log z."""
        return -self.log_z / self.lam


def to_desirability(values: np.ndarray, lam: float) -> Desirability:
    lam = check_weight(lam, "lam", positive=True)
    return Desirability(-lam * np.asarray(values, dtype=float), lam)


def from_desirability(d: Desirability) -> np.ndarray:
    return d.values()


def _action_log_weights(problem: ControlProblem, lam: float, t: int, log_z_next: np.ndarray):
    """log(exp(-lam c_t) E_iota[z_{t+1}]), shape (S, A)."""
    inner = log_expect_exp(problem.baseline_kernels.table[t], log_z_next)
    return inner - lam * problem.stage_costs[t]


def _backward_log(problem: ControlProblem, lam: float, log_z_terminal: np.ndarray) -> np.ndarray:
    """Run the linear recursion from an arbitrary terminal log-desirability."""
    T, S = problem.horizon, problem.num_states
    rho = problem.baseline_policy.table
    log_z = np.empty((T + 1, S))
    log_z[T] = log_z_terminal
    for t in reversed(range(T)):
        log_z[t] = log_expect_exp(rho[t], _action_log_weights(problem, lam, t, log_z[t + 1]))
    return log_z


def linear_backward(problem: ControlProblem, lam: float) -> Desirability:
    """z_T = exp(-lam c_T); z_t = E_rho[exp(-lam c_t) E_iota[z_{t+1}]]."""
    lam = check_weight(lam, "lam", positive=True)
    _require_valid(problem)
    log_z = _backward_log(problem, lam, -lam * problem.terminal_cost)
    return Desirability(log_z, lam)


def _policy_log(problem: ControlProblem, lam: float, log_z: np.ndarray) -> Policy:
    """Reweighted baseline policy rho * r * E_iota[z'] / z, from log tables."""
    rho = problem.baseline_policy.table
    table = np.zeros(rho.shape)
    for t in range(problem.horizon):
        g = _action_log_weights(problem, lam, t, log_z[t + 1]) - log_z[t][:, None]
        # exp(log rho + g), not rho * exp(g): g can pass the overflow bound
        # where rho is tiny.
        with np.errstate(divide="ignore", over="ignore"):
            rows = np.exp(np.log(rho[t]) + g)
        rows[rho[t] == 0] = 0.0
        sums = rows.sum(axis=-1)
        gap = np.max(np.abs(sums - 1.0))
        if not gap <= POLICY_ROW_TOL:
            raise ValueError(
                "desirability table is inconsistent with the problem: policy row "
                f"sums deviate by {gap:.3g}"
            )
        table[t] = rows / sums[:, None]
    return Policy(table)


def policy_from_desirability(problem: ControlProblem, d: Desirability) -> Policy:
    """Optimal policy of the synchronized problem, read off the z table."""
    return _policy_log(problem, d.lam, d.log_z)


@dataclass(frozen=True)
class ComponentSet:
    """Component terminal costs (N, S) with positive mixing weights (N,)."""

    terminal_costs: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        tc = np.atleast_2d(np.asarray(self.terminal_costs, dtype=float))
        g = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        if tc.shape[0] != g.shape[0]:
            raise ValueError("one gamma per component terminal cost")
        if not (np.isfinite(g) & (g > 0)).all():
            raise ValueError("all gammas must be finite and > 0")
        if not np.isfinite(tc).all():
            raise ValueError("component terminal costs must be finite")
        object.__setattr__(self, "terminal_costs", tc)
        object.__setattr__(self, "gammas", g)


@dataclass(frozen=True)
class Composition:
    """Composite desirability plus its per-component decomposition."""

    composite: Desirability
    components: List[Desirability]
    weights: np.ndarray  # (N, T+1, S), each (t, x) column sums to 1
    component_policies: List[Policy]
    mixture_policy: Policy


def compose(problem: ControlProblem, components: ComponentSet, lam: float) -> Composition:
    """Solve each component from gamma_n exp(-lam c_T^(n)) and mix.

    The composite desirability is the sum of component tables; the mixture
    policy combines component policies with statewise weights z^(n)/z.
    """
    lam = check_weight(lam, "lam", positive=True)
    _require_valid(problem)
    if components.terminal_costs.shape[1] != problem.num_states:
        raise ValueError("component terminal costs must have one entry per state")
    log_z_parts = np.stack(
        [
            _backward_log(problem, lam, np.log(g) - lam * tc)
            for tc, g in zip(components.terminal_costs, components.gammas)
        ]
    )  # (N, T+1, S)
    log_z = logsumexp(log_z_parts, axis=0)
    weights = np.exp(log_z_parts - log_z[None])
    component_policies = [
        _policy_log(problem, lam, part) for part in log_z_parts
    ]
    mixture = np.zeros(problem.baseline_policy.table.shape)
    for n, pol in enumerate(component_policies):
        # weights at stage t (not T) scale the per-stage policy rows.
        mixture += weights[n, :-1][:, :, None] * pol.table
    return Composition(
        composite=Desirability(log_z, lam),
        components=[Desirability(part, lam) for part in log_z_parts],
        weights=weights,
        component_policies=component_policies,
        mixture_policy=Policy(mixture),
    )


def path_integral_estimate(
    problem: ControlProblem,
    lam: float,
    t: int,
    x: int,
    num_samples: int,
    seed: int,
    chunk_size: int = 65536,
) -> Tuple[float, float]:
    """Monte Carlo estimate of z_t(x) by forward baseline rollouts.

    Draws trajectories from (rho, iota) starting at x_t = x and averages
    exp(-lam * cost-to-go).  Every uniform comes from one counter-based
    Philox stream keyed by ``seed``: coin j (0 picks the action, 1 the next
    state) of step k of sample i is draw number (i * max(steps, 1) + k) * 2 + j,
    where steps = T - t.  The draws are taken chunk by chunk, each chunk
    continuing the stream where the last one stopped.  So ``chunk_size``
    bounds memory, O(num_samples + chunk_size * steps) beside one CDF copy
    of the remaining policy and kernel tables, and the result depends only
    on (seed, num_samples).  ``seed`` must be an integer in [0, 2**64).
    Returns (estimate, standard error of the mean).
    """
    lam = check_weight(lam, "lam", positive=True)
    _require_valid(problem)
    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    if not 0 <= t <= T:
        raise ValueError("stage out of range")
    if not 0 <= x < S:
        raise ValueError("state out of range")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    steps = T - t
    # Inverse-CDF tables of the remaining stages, built once and transposed
    # so that CDF column j is one contiguous vector over the rows: the policy
    # (steps, A, S) over states, the kernel (steps, S, S*A) over the flat row
    # index state*A + action.
    policy_cdf = (
        np.cumsum(problem.baseline_policy.table[t:], axis=-1).transpose(0, 2, 1).copy()
    )
    kernel_cdf = (
        np.cumsum(problem.baseline_kernels.table[t:], axis=-1)
        .reshape(steps, S * A, S)
        .transpose(0, 2, 1)
        .copy()
    )
    stage_costs = problem.stage_costs[t:].reshape(steps, S * A)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    values = np.empty(num_samples)
    # one buffer refilled per chunk, so a chunk's draws never coexist with
    # the previous chunk's
    buffer = np.empty((min(chunk_size, num_samples), max(steps, 1), 2))
    for lo in range(0, num_samples, chunk_size):
        hi = min(lo + chunk_size, num_samples)
        draws = rng.random(out=buffer[: hi - lo])
        state = np.full(hi - lo, x)
        cost = np.zeros(hi - lo)
        for k in range(steps):
            # both coins of step k, each contiguous over the chunk
            u_action, u_next = draws[:, k].T.copy()
            action = _count_at_most(policy_cdf[k], state, u_action)
            row = state * A + action
            cost += stage_costs[k].take(row)
            state = _count_at_most(kernel_cdf[k], row, u_next)
        cost += problem.terminal_cost[state]
        values[lo:hi] = np.exp(-lam * cost)
    estimate = float(values.mean())
    if num_samples == 1:
        return estimate, 0.0
    # values.std(ddof=1) step by step, in place: the same operations in the
    # same order, without the N-sized temporary of values - mean
    values -= estimate
    np.square(values, out=values)
    stderr = float(np.sqrt(values.sum() / (num_samples - 1)) / np.sqrt(num_samples))
    return estimate, stderr


def _count_at_most(cdf_columns: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample: for each row, the number of its CDF entries <= u,
    capped at the last index.

    ``cdf_columns[j, r]`` is entry j of the CDF of row r.  A CDF of
    nonnegative entries never decreases, so the cap is the same as counting
    all columns but the last.
    """
    index = np.zeros(rows.shape[0], dtype=np.intp)
    for column in cdf_columns[:-1]:
        index += column.take(rows) <= u
    return index
