"""The path-integral sampler against the column-count reference sampler it
replaced: the same (estimate, standard error), bit for bit."""

import numpy as np
import pytest

from klctrl import ControlProblem, Policy, TransitionKernel, path_integral_estimate


def _count_at_most(cdf_columns, rows, u):
    """Per row, the number of its CDF entries <= u, one pass per column."""
    index = np.zeros(rows.shape[0], dtype=np.intp)
    for column in cdf_columns[:-1]:
        index += column.take(rows) <= u
    return index


def reference_estimate(problem, lam, t, x, num_samples, seed):
    """The sampler drawn in one chunk, each coin counted column by column."""
    T, S, A = problem.horizon, problem.num_states, problem.num_actions
    steps = T - t
    policy_cdf = np.cumsum(problem.baseline_policy.table[t:], axis=-1).transpose(0, 2, 1)
    kernel_cdf = np.cumsum(problem.baseline_kernels.table[t:], axis=-1)
    kernel_cdf = kernel_cdf.reshape(steps, S * A, S).transpose(0, 2, 1)
    stage_costs = problem.stage_costs[t:].reshape(steps, S * A)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    draws = rng.random((num_samples, max(steps, 1), 2))
    state = np.full(num_samples, x)
    cost = np.zeros(num_samples)
    for k in range(steps):
        row = state * A + _count_at_most(policy_cdf[k], state, draws[:, k, 0])
        cost += stage_costs[k][row]
        state = _count_at_most(kernel_cdf[k], row, draws[:, k, 1])
    cost += problem.terminal_cost[state]
    values = np.exp(-lam * cost)
    estimate = float(values.mean())
    if num_samples == 1:
        return estimate, 0.0
    values -= estimate
    np.square(values, out=values)
    return estimate, float(np.sqrt(values.sum() / (num_samples - 1)) / np.sqrt(num_samples))


def _rows(rng, shape):
    """Distribution rows with exact zeros (tied CDF entries), 1e-13 masses
    (near-ties), Dirac rows and rows of two halves (a CDF entry of exactly
    0.5)."""
    K = shape[-1]
    w = rng.random(shape) * (rng.random(shape) >= 0.3)
    w[rng.random(shape) < 0.15] = 1e-13
    np.put_along_axis(w, rng.integers(0, K, shape[:-1] + (1,)), 1.0, axis=-1)
    rows = (w / w.sum(axis=-1, keepdims=True)).reshape(-1, K)
    kind = rng.integers(0, 4, len(rows))
    for r in np.flatnonzero(kind == 0):
        rows[r] = 0.0
        rows[r, rng.integers(0, K)] = 1.0
    if K >= 2:
        for r in np.flatnonzero(kind == 1):
            j = rng.integers(0, K - 1)
            rows[r] = 0.0
            rows[r, j : j + 2] = 0.5
    return rows.reshape(shape)


def _problem(rng, S, A, T, policy=None, kernels=None):
    return ControlProblem(
        horizon=T,
        num_states=S,
        num_actions=A,
        initial_distribution=np.full(S, 1.0 / S),
        baseline_kernels=TransitionKernel(_rows(rng, (T, S, A, S)) if kernels is None else kernels),
        baseline_policy=Policy(_rows(rng, (T, S, A)) if policy is None else policy),
        stage_costs=rng.uniform(-1.0, 2.0, size=(T, S, A)),
        terminal_cost=rng.uniform(-1.0, 2.0, size=S),
        lambda_p=1.0,
        lambda_s=1.0,
    )


# (S, A): S or A = 1 searches a one-entry row (P = 1, no halving); the rest
# cover K = 2^m and K = 2^m + 1 for both coins
SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (3, 4), (4, 2), (5, 5), (8, 3), (9, 4), (12, 1), (16, 2), (17, 3)]
CHUNKS = [1, 333, 8192, 8193, 65536]
SEEDS = [0, 7, 2**64 - 1]


@pytest.mark.parametrize("case", range(48))
def test_sampler_is_bitwise_the_column_count_reference(case):
    rng = np.random.default_rng(case)
    S, A = SHAPES[case % len(SHAPES)]
    T = int(rng.integers(0, 7))
    t = (0, T, T // 2)[case % 3]
    x = int(rng.integers(0, S))
    chunk = CHUNKS[case % len(CHUNKS)]
    n = 300 if chunk == 1 else 20_000
    seed = SEEDS[case % len(SEEDS)]
    lam = float(rng.uniform(0.2, 3.0))
    problem = _problem(rng, S, A, T)
    out = path_integral_estimate(problem, lam, t, x, n, seed, chunk_size=chunk)
    assert out == reference_estimate(problem, lam, t, x, n, seed), (S, A, T, t, chunk)


@pytest.mark.parametrize("case", range(8))
def test_a_coin_equal_to_a_cdf_entry_counts_that_entry(case):
    # the first sample's two coins are placed exactly on a CDF entry of the
    # rows they invert, so a search that counted entries < u would pick the
    # entry before and change that sample's cost
    rng = np.random.default_rng(100 + case)
    S, A, T = int(rng.integers(2, 18)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
    x, seed = int(rng.integers(0, S)), SEEDS[case % len(SEEDS)]
    u_action, u_next = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(2)
    policy, kernels = _rows(rng, (T, S, A)), _rows(rng, (T, S, A, S))
    # masses u and 1 - u (exact: u is a multiple of 2**-53) put a CDF entry
    # at exactly u; the entry <= u makes the pick the one after it
    a = int(rng.integers(0, A - 1))
    policy[0, x] = 0.0
    policy[0, x, a : a + 2] = u_action, 1.0 - u_action
    y = int(rng.integers(0, S - 1))
    kernels[0, x, a + 1] = 0.0
    kernels[0, x, a + 1, y : y + 2] = u_next, 1.0 - u_next
    problem = _problem(rng, S, A, T, policy=policy, kernels=kernels)
    for n in (1, 500):
        out = path_integral_estimate(problem, 1.0, 0, x, n, seed)
        assert out == reference_estimate(problem, 1.0, 0, x, n, seed)
