"""Synchronized risk-seeking machinery: the linear backward pass on the
exponentiated value, its forward-sampling path-integral estimator, the
reweighted policy, and compositional mixing of component solutions.

Everything here requires a single positive weight used for both the policy
and transition penalties; risk-averse weights are rejected.  Desirability
tables are stored as logs so long horizons never underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import logsumexp

from .model import ControlProblem, Policy, ProblemValidationError, validate_problem


def _require_positive_lambda(lam: float) -> float:
    lam = float(lam)
    if not lam > 0:
        raise ValueError(
            "the linear/path-integral machinery requires a single weight lambda > 0"
        )
    return lam


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
    lam = _require_positive_lambda(lam)
    return Desirability(-lam * np.asarray(values, dtype=float), lam)


def from_desirability(d: Desirability) -> np.ndarray:
    return d.values()


def _log_tables(problem: ControlProblem):
    with np.errstate(divide="ignore"):
        log_rho = np.log(problem.baseline_policy.table)
        log_iota = np.log(problem.baseline_kernels.table)
    return log_rho, log_iota


def _backward_log(problem: ControlProblem, lam: float, log_z_terminal: np.ndarray) -> np.ndarray:
    """Run the linear recursion from an arbitrary terminal log-desirability."""
    T, S = problem.horizon, problem.num_states
    log_rho, log_iota = _log_tables(problem)
    log_z = np.empty((T + 1, S))
    log_z[T] = log_z_terminal
    for t in reversed(range(T)):
        inner = logsumexp(log_iota[t] + log_z[t + 1][None, None, :], axis=-1)  # (S, A)
        log_z[t] = logsumexp(log_rho[t] - lam * problem.stage_costs[t] + inner, axis=-1)
    return log_z


def linear_backward(problem: ControlProblem, lam: float) -> Desirability:
    """z_T = exp(-lam c_T); z_t = E_rho[exp(-lam c_t) E_iota[z_{t+1}]]."""
    lam = _require_positive_lambda(lam)
    violations = validate_problem(problem)
    if violations:
        raise ProblemValidationError(violations)
    log_z = _backward_log(problem, lam, -lam * problem.terminal_cost)
    return Desirability(log_z, lam)


def _policy_log(problem: ControlProblem, lam: float, log_z: np.ndarray, tol: float = 1e-8) -> Policy:
    """Reweighted baseline policy rho * r * E_iota[z'] / z, from log tables."""
    T = problem.horizon
    log_rho, log_iota = _log_tables(problem)
    table = np.zeros_like(problem.baseline_policy.table)
    for t in range(T):
        inner = logsumexp(log_iota[t] + log_z[t + 1][None, None, :], axis=-1)
        log_pi = log_rho[t] - lam * problem.stage_costs[t] + inner - log_z[t][:, None]
        rows = np.exp(log_pi)
        rows[problem.baseline_policy.table[t] == 0] = 0.0
        sums = rows.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > tol:
            raise ValueError(
                "desirability table is inconsistent with the problem: policy row "
                f"sums deviate by {np.max(np.abs(sums - 1.0)):.3g}"
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
        if (g <= 0).any():
            raise ValueError("all gammas must be > 0")
        object.__setattr__(self, "terminal_costs", tc)
        object.__setattr__(self, "gammas", g)

    @property
    def num_components(self) -> int:
        return self.gammas.shape[0]


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
    lam = _require_positive_lambda(lam)
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
    mixture = np.zeros_like(problem.baseline_policy.table)
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
    exp(-lam * cost-to-go).  All uniform draws come from a counter-based
    Philox stream indexed by sample position, so the result depends only on
    (seed, num_samples): chunked or parallel evaluation cannot change it.
    Returns (estimate, standard error of the mean).
    """
    lam = _require_positive_lambda(lam)
    T = problem.horizon
    if not 0 <= t <= T:
        raise ValueError("stage out of range")
    if not 0 <= x < problem.num_states:
        raise ValueError("state out of range")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    steps = T - t
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    draws = rng.random((num_samples, max(steps, 1), 2))
    values = np.empty(num_samples)
    for lo in range(0, num_samples, chunk_size):
        hi = min(lo + chunk_size, num_samples)
        values[lo:hi] = _rollout_chunk(problem, lam, t, x, draws[lo:hi], steps)
    estimate = float(values.mean())
    if num_samples == 1:
        return estimate, 0.0
    stderr = float(values.std(ddof=1) / np.sqrt(num_samples))
    return estimate, stderr


def _sample_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample one index per row from uniforms in [0, 1)."""
    cum = np.cumsum(rows, axis=-1)
    idx = (cum <= u[:, None]).sum(axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1)


def _rollout_chunk(problem, lam, t, x, draws, steps):
    n = draws.shape[0]
    state = np.full(n, x, dtype=int)
    cost = np.zeros(n)
    for k in range(steps):
        stage = t + k
        action = _sample_rows(problem.baseline_policy.table[stage][state], draws[:, k, 0])
        cost += problem.stage_costs[stage][state, action]
        state = _sample_rows(
            problem.baseline_kernels.table[stage][state, action], draws[:, k, 1]
        )
    cost += problem.terminal_cost[state]
    return np.exp(-lam * cost)
