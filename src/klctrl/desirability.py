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

The pass keeps its action log-weights W_t = log(exp(-lam c_t) E_iota[z_{t+1}]),
a (T, S, A) table, and the policy rho exp(W_t) / z_t reads them instead of
passing over the kernels again: each kernel stage is read once.  The policy
is reweighted, summed and checked for the whole table at once.  A
``Desirability`` from ``linear_backward`` (or a ``compose`` component) records
its problem and W; ``policy_from_desirability`` reuses W only when it is
given that same problem object, and otherwise rebuilds W from the problem it
is given, so a table is always checked against that problem's kernels and
costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .model import ControlProblem, Policy, ProblemValidationError, check_weight, validate_problem
from .risk import log_expect_exp, logsumexp

# largest deviation from 1 of a reweighted policy row before its
# desirability table is called inconsistent with the problem
POLICY_ROW_TOL = 1e-8

# most samples the path-integral sampler rolls out at once: one block's draws,
# (SAMPLE_BLOCK, steps, 2) floats, stay cache-sized at moderate horizons
SAMPLE_BLOCK = 8192


def _require_valid(problem: ControlProblem):
    violations = validate_problem(problem)
    if violations:
        raise ProblemValidationError(violations)


@dataclass(frozen=True)
class Desirability:
    """Exponentiated value table z_t(x) = exp(-lam V_t(x)), stored as log z.

    A table from ``linear_backward`` or a ``compose`` component also records
    (problem, W): the problem it was solved for and the pass's (T, S, A)
    action log-weights, both read-only.  ``policy_from_desirability`` reads W
    when it is given that same problem object (``is``).  The record is set
    once and is not an init field, so ``dataclasses.replace``,
    ``to_desirability`` and a hand-built table carry none.
    """

    log_z: np.ndarray  # (T+1, S)
    lam: float
    _source: tuple = field(default=None, init=False, repr=False, compare=False)

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


def _backward_log(problem: ControlProblem, lam: float, log_z_terminal: np.ndarray):
    """Run the linear recursion from an arbitrary terminal log-desirability.

    Returns (log z, W): the (T+1, S) table and the (T, S, A) action
    log-weights ``_action_log_weights`` of every stage, which the policy
    reweights.
    """
    T, S = problem.horizon, problem.num_states
    rho = problem.baseline_policy.table
    log_z = np.empty((T + 1, S))
    W = np.empty(rho.shape)
    log_z[T] = log_z_terminal
    for t in reversed(range(T)):
        W[t] = _action_log_weights(problem, lam, t, log_z[t + 1])
        log_z[t] = log_expect_exp(rho[t], W[t])
    return log_z, W


def _recorded(d: Desirability, problem: ControlProblem, W: np.ndarray) -> Desirability:
    """``d`` with its pass's (problem, W) recorded; log z and W become
    read-only, so the recorded W cannot go stale."""
    d.log_z.flags.writeable = False
    W.flags.writeable = False
    object.__setattr__(d, "_source", (problem, W))
    return d


def linear_backward(problem: ControlProblem, lam: float) -> Desirability:
    """z_T = exp(-lam c_T); z_t = E_rho[exp(-lam c_t) E_iota[z_{t+1}]]."""
    lam = check_weight(lam, "lam", positive=True)
    _require_valid(problem)
    log_z, W = _backward_log(problem, lam, -lam * problem.terminal_cost)
    return _recorded(Desirability(log_z, lam), problem, W)


def _policy_log(problem: ControlProblem, lam: float, log_z: np.ndarray, W: np.ndarray) -> Policy:
    """Reweighted baseline policy rho * exp(W) / z for every stage at once,
    from the log tables and the (T, S, A) action log-weights W."""
    rho = problem.baseline_policy.table
    # in C order, as W is: a stride-0 rho must not choose the layout
    table = W - log_z[:-1, :, None]
    # exp(log rho + g), not rho * exp(g): g can pass the overflow bound
    # where rho is tiny.
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(np.add(np.log(rho), table, out=table), out=table)
    table[rho == 0] = 0.0
    sums = table.sum(axis=-1)
    gap = np.max(np.abs(sums - 1.0), initial=0.0)
    if not gap <= POLICY_ROW_TOL:
        _require_finite(problem, lam, log_z)
        raise ValueError(
            "desirability table is inconsistent with the problem: policy row "
            f"sums deviate by {gap:.3g}"
        )
    table /= sums[..., None]
    return Policy(table)


def _require_finite(problem: ControlProblem, lam: float, log_z: np.ndarray):
    """Refuse a log z table that left the float range, naming the costs.

    Such a table fails the row-sum test of ``_policy_log``, which would blame
    the table; the cause is exp(-lam * cost) at this weight.  The entry named
    is the last one, where the backward pass first left the range.
    """
    bad = np.argwhere(~np.isfinite(log_z[:-1]))
    if bad.size:
        t, x = bad[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            weights = _action_log_weights(problem, lam, t, log_z[t + 1])[x]
        # log z_{t+1} is finite below T, where -lam * c_T itself can overflow
        over = (weights == np.inf).any() or (log_z[t + 1] == np.inf).any()
        way = "overflows" if over else "underflows"
        raise ValueError(
            f"log z_{t}({x}) is {log_z[t, x]}: exp(-lam * cost) {way} at lam = {lam:g}"
        )


def policy_from_desirability(problem: ControlProblem, d: Desirability) -> Policy:
    """Optimal policy of the synchronized problem, read off the z table.

    The policy reweights rho by the action log-weights W of the pass that
    built ``d``, for the whole table at once.  W is read from ``d``'s record
    when ``problem`` is the recorded problem object; otherwise it is rebuilt
    stage by stage from ``problem``'s kernels and costs, so a table passed
    with another problem is checked against that problem.
    """
    source = d._source
    if source is not None and source[0] is problem:
        W = source[1]
    else:
        W = np.empty(problem.baseline_policy.table.shape)
        for t in range(problem.horizon):
            W[t] = _action_log_weights(problem, d.lam, t, d.log_z[t + 1])
    return _policy_log(problem, d.lam, d.log_z, W)


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
    passes = [
        _backward_log(problem, lam, np.log(g) - lam * tc)
        for tc, g in zip(components.terminal_costs, components.gammas)
    ]
    log_z_parts = np.stack([part for part, _ in passes])  # (N, T+1, S)
    log_z = logsumexp(log_z_parts, axis=0)
    weights = np.exp(log_z_parts - log_z[None])
    component_policies = [
        _policy_log(problem, lam, part, W) for part, (_, W) in zip(log_z_parts, passes)
    ]
    mixture = np.zeros(problem.baseline_policy.table.shape)
    for n, pol in enumerate(component_policies):
        # weights at stage t (not T) scale the per-stage policy rows.
        mixture += weights[n, :-1][:, :, None] * pol.table
    return Composition(
        composite=Desirability(log_z, lam),
        components=[
            _recorded(Desirability(part, lam), problem, W)
            for part, (_, W) in zip(log_z_parts, passes)
        ],
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
    where steps = T - t.  Samples are drawn and rolled out in blocks of
    min(chunk_size, SAMPLE_BLOCK, num_samples), each block continuing the
    stream where the last one stopped, so the result depends only on
    (seed, num_samples).  Memory is O(num_samples + min(chunk_size, 8192) *
    steps) beside one padded CDF copy of the remaining policy and kernel
    stages; a stride-0 (time-homogeneous) table gets a copy of one stage.
    Each coin is inverted by bisection over its row's CDF, exactly: a
    cumulative sum of non-negative masses never decreases.  ``seed`` must be
    an integer in [0, 2**64).  Returns (estimate, standard error of the mean).
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
    policy_cdf, policy_width = _search_table(problem.baseline_policy.table[t:])
    kernel_cdf, kernel_width = _search_table(problem.baseline_kernels.table[t:])
    stage_costs = problem.stage_costs[t:].reshape(steps, S * A)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    values = np.empty(num_samples)
    block = min(chunk_size, SAMPLE_BLOCK, num_samples)
    # one buffer refilled per block, so a block's draws never coexist with
    # the previous block's
    buffer = np.empty((block, max(steps, 1), 2))
    for lo in range(0, num_samples, block):
        hi = min(lo + block, num_samples)
        draws = rng.random(out=buffer[: hi - lo])
        state = np.full(hi - lo, x)
        cost = np.zeros(hi - lo)
        for k in range(steps):
            # both coins of step k, each contiguous over the block
            u_action, u_next = draws[:, k].T.copy()
            row = _bisect(policy_cdf[k], state * policy_width, policy_width, u_action)
            row -= state * (policy_width - A)  # state * A + action
            cost += stage_costs[k].take(row)
            state = _bisect(kernel_cdf[k], row * kernel_width, kernel_width, u_next)
            state &= kernel_width - 1  # the offset within the row
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


def _search_table(stages: np.ndarray) -> Tuple[np.ndarray, int]:
    """Bisection table of the CDF rows of ``stages`` (steps, ..., K).

    Each row keeps its CDF entries but the last, padded with +inf to the
    smallest power of two P >= K, and each stage becomes one flat vector of
    rows * P entries.  A stride-0 (time-homogeneous) table builds one stage
    and broadcasts it over the steps.  Returns (table, P).
    """
    K = stages.shape[-1]
    width = 1 << (K - 1).bit_length()
    distinct = stages[:1] if stages.strides[0] == 0 else stages
    padded = np.full(distinct.shape[:-1] + (width,), np.inf)
    np.cumsum(distinct[..., :-1], axis=-1, out=padded[..., : K - 1])
    stage = math.prod(padded.shape[1:])
    return np.broadcast_to(padded.reshape(len(distinct), stage), (len(stages), stage)), width


def _bisect(cdf: np.ndarray, index: np.ndarray, width: int, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample by bisection, in place.

    ``cdf`` is one stage of ``_search_table`` and ``index`` holds each row's
    start in it, row * width.  A row's entries never decrease and its last
    is +inf, which u < 1 never reaches, so the entries <= u form a prefix;
    log2(width) halvings add its length to ``index``, which is returned.
    """
    half = width // 2
    while half:
        index += (cdf[half - 1 :].take(index) <= u) * half
        half //= 2
    return index
