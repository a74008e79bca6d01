import numpy as np
import pytest

from klctrl import ControlProblem, Policy, TransitionKernel


def make_m1(lambda_p=1.0, lambda_s=1.0):
    """Two states, two actions, one step; action k jumps to state k."""
    kernels = np.zeros((1, 2, 2, 2))
    kernels[0, :, 0, 0] = 1.0
    kernels[0, :, 1, 1] = 1.0
    return ControlProblem(
        horizon=1,
        num_states=2,
        num_actions=2,
        initial_distribution=[1.0, 0.0],
        baseline_kernels=TransitionKernel(kernels),
        baseline_policy=Policy(np.full((1, 2, 2), 0.5)),
        stage_costs=np.zeros((1, 2, 2)),
        terminal_cost=[1.0, 0.0],
        lambda_p=lambda_p,
        lambda_s=lambda_s,
    )


def random_problem(
    rng,
    num_states=None,
    num_actions=None,
    horizon=None,
    max_states=4,
    max_actions=4,
    max_horizon=4,
    dirac=False,
    lambda_p=None,
    lambda_s=None,
):
    """Random full-support instance (or Dirac-kernel instance) at desk scale."""
    S = num_states or int(rng.integers(2, max_states + 1))
    A = num_actions or int(rng.integers(2, max_actions + 1))
    T = horizon or int(rng.integers(1, max_horizon + 1))
    p0 = rng.dirichlet(np.ones(S) * 5.0)
    if dirac:
        kernels = np.zeros((T, S, A, S))
        target = rng.integers(0, S, size=(T, S, A))
        t_idx, x_idx, a_idx = np.indices((T, S, A))
        kernels[t_idx, x_idx, a_idx, target] = 1.0
    else:
        kernels = rng.dirichlet(np.ones(S) * 2.0, size=(T, S, A))
    rho = rng.dirichlet(np.ones(A) * 2.0, size=(T, S))
    return ControlProblem(
        horizon=T,
        num_states=S,
        num_actions=A,
        initial_distribution=p0,
        baseline_kernels=TransitionKernel(kernels),
        baseline_policy=Policy(rho),
        stage_costs=rng.uniform(0.0, 2.0, size=(T, S, A)),
        terminal_cost=rng.uniform(0.0, 2.0, size=S),
        lambda_p=lambda_p if lambda_p is not None else float(rng.uniform(0.3, 2.0)),
        lambda_s=lambda_s
        if lambda_s is not None
        else float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)),
    )


@pytest.fixture
def m1():
    return make_m1()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def sparse_problem(rng, num_states, num_actions, horizon, lambda_s, cost_scale=2.0):
    """Random instance whose kernel and policy rows have exact zeros.

    Each kernel row keeps about a third of the states and each policy row
    about half of the actions, always at least one.
    """
    S, A, T = num_states, num_actions, horizon
    kernels = rng.random((T, S, A, S)) * (rng.random((T, S, A, S)) < 0.3)
    t_idx, x_idx, a_idx = np.indices((T, S, A))
    kernels[t_idx, x_idx, a_idx, rng.integers(0, S, size=(T, S, A))] += 0.1
    rho = rng.random((T, S, A)) * (rng.random((T, S, A)) < 0.5)
    rho[t_idx[..., 0], x_idx[..., 0], rng.integers(0, A, size=(T, S))] += 0.1
    return ControlProblem(
        horizon=T,
        num_states=S,
        num_actions=A,
        initial_distribution=rng.dirichlet(np.ones(S)),
        baseline_kernels=TransitionKernel(kernels / kernels.sum(-1, keepdims=True)),
        baseline_policy=Policy(rho / rho.sum(-1, keepdims=True)),
        stage_costs=rng.uniform(0.0, cost_scale, size=(T, S, A)),
        terminal_cost=rng.uniform(0.0, cost_scale, size=S),
        lambda_p=1.0,
        lambda_s=lambda_s,
    )
