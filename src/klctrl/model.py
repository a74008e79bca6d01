"""Tabular finite-horizon controlled Markov model.

Holds the problem data (baseline policy/kernels, costs, KL weights), its
validation, ``check_weight`` (the one test of every KL weight), and the two
table helpers shared downstream: forward state marginals and the rowwise KL
divergence.  Trajectory-level quantities live in ``oracle``, which owns
trajectory enumeration.

Every table is frozen by ``_frozen`` under one rule: data is copied unless
neither the array nor any array it views is writeable, so frozen data is
shared, never copied again.  ``ControlProblem.replace`` shares every table,
and a stage-free table of a time-homogeneous file stays one stride-0 view.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

ROW_TOL = 1e-9
MIN_ABS_LAMBDA = 1e-12


class SupportViolationError(ValueError):
    """A distribution places mass where its reference distribution has none."""


class ProblemValidationError(ValueError):
    """A ControlProblem (or derived table) violates its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _row_violations(name: str, table: np.ndarray):
    """Rows that are not distributions: a sum off 1, a negative or a non-finite
    entry.  A NaN or infinite entry makes its row sum fail the test too.  A
    single row (a 1-D table) is named by ``name`` alone.  A table whose leading
    axis has stride 0 (a stage-free table) stores one stage, so only that
    stage is checked and named, as stage 0."""
    if table.ndim > 1 and table.strides[0] == 0:
        table = table[:1]
    with np.errstate(invalid="ignore"):  # inf - inf in a row sums to NaN
        sums = table.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= ROW_TOL)
    if not table.min(initial=0.0) >= 0:  # NaN-safe: a NaN min searches the rows too
        bad = bad | (table.min(axis=-1, initial=0.0) < 0)
    if not bad.any():
        return []
    out, negative = [], []
    for idx in np.argwhere(bad):
        key = tuple(int(i) for i in idx)
        row = table[key]
        label = f"{name}{key}" if key else name
        if not np.isfinite(row).all():
            out.append(f"{label}: non-finite entry")
        elif not abs(sums[key] - 1.0) <= ROW_TOL:
            out.append(f"{label}: row sum {sums[key]:.12g} != 1")
        for u in np.flatnonzero(row < 0):
            negative.append(f"{name}{key + (int(u),)}: negative entry {row[u]:.12g}")
    return out + negative


def _frozen(table, shape, name: str, *, rows: bool = False) -> np.ndarray:
    """``table`` as a read-only float array of ``shape`` (a tuple, or a number
    of axes) under the freeze rule; with ``rows``, refused with its violations
    under ``name`` unless each row (last axis) is a distribution."""
    table = np.asarray(table, dtype=float)
    if (table.shape if isinstance(shape, tuple) else table.ndim) != shape:
        want = shape if isinstance(shape, tuple) else f"{shape} axes"
        raise ValueError(f"{name} has shape {table.shape}, expected {want}")
    bad = _row_violations(name, table) if rows else []
    if bad:
        raise ProblemValidationError(bad)
    base = table
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:
        table = table.copy()
        table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Policy:
    """Time-indexed action distributions pi_t(u | x), shape (T, S, A)."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen(self.table, 3, "pi", rows=True))

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
        object.__setattr__(self, "table", _frozen(self.table, 4, "tau", rows=True))


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
            self, "initial_distribution", _frozen(self.initial_distribution, (S,), "initial_distribution")
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
        object.__setattr__(self, "stage_costs", _frozen(self.stage_costs, (T, S, A), "stage_costs"))
        object.__setattr__(self, "terminal_cost", _frozen(self.terminal_cost, (S,), "terminal_cost"))

    def replace(self, **kwargs) -> "ControlProblem":
        return dataclasses.replace(self, **kwargs)

    def has_deterministic_kernels(self) -> bool:
        """Whether every baseline kernel row is a Dirac (max entry 1 within ROW_TOL)."""
        return bool(np.all(np.abs(self.baseline_kernels.table.max(axis=-1) - 1.0) <= ROW_TOL))


def check_weight(value, name: str, *, positive: bool) -> float:
    """``value`` as a float if it is a usable KL weight, else ValueError: finite,
    |value| >= MIN_ABS_LAMBDA and, where ``positive``, > 0.  Every weight, from
    a problem file or a function argument, passes this one test."""
    if not (np.isfinite(value) and abs(value) >= MIN_ABS_LAMBDA and (value > 0 or not positive)):
        rule = "> 0" if positive else "nonzero"
        raise ValueError(
            f"{name}: must be finite and {rule} with |{name}| >= {MIN_ABS_LAMBDA}, "
            f"got {float(value)!r}"
        )
    return float(value)


def validate_problem(problem: ControlProblem) -> list:
    """Collect invariant violations; an empty list means the problem is valid.

    Negative costs are reported as warnings elsewhere, not here: the solvers
    are well defined for any finite costs.  Non-finite entries are errors.
    The baseline policy and kernels are not checked again here: a
    ControlProblem holds them as Policy/TransitionKernel, which refuse bad
    rows when built and hold their tables read-only under the freeze rule.
    """
    out = _row_violations("initial_distribution", problem.initial_distribution)
    for name, table in (
        ("stage_costs", problem.stage_costs),
        ("terminal_cost", problem.terminal_cost),
    ):
        finite = np.isfinite(table)
        if finite.all():
            continue
        for idx in np.argwhere(~finite):
            key = tuple(int(i) for i in idx)
            out.append(f"{name}{key}: non-finite entry")
    for name, positive in (("lambda_p", True), ("lambda_s", False)):
        value = getattr(problem, name)
        if value is not None:
            try:
                check_weight(value, name, positive=positive)
            except ValueError as exc:
                out.append(str(exc))
    return out


def cost_warnings(problem: ControlProblem) -> list:
    """Advisory notes for cost tables that bend the nonnegativity assumption."""
    out = []
    if (problem.stage_costs < 0).any():
        out.append("stage_costs: negative entries present")
    if (problem.terminal_cost < 0).any():
        out.append("terminal_cost: negative entries present")
    return out


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
