"""Reference computations for checking klctrl outputs, written apart from klctrl.

Plain numpy, with its own log-sum-exp: the two-weight Bellman recursion and
its special cases (soc and the linear recursion on z = exp(-lam V)), backward
evaluation of a fixed policy, and strict JSON reading. Nothing here imports
klctrl, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import json

import numpy as np

REL_TOL = 1e-9
DESCENT_TOL = 1e-10


def _log(p):
    with np.errstate(divide="ignore"):
        return np.log(p)


def logsumexp(a, axis=-1):
    """log(sum(exp(a))) along ``axis``, shifted by the maximum; -inf rows stay -inf."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)


def risk(mu, f, lam):
    """Entropic risk -(1/lam) log E_mu[exp(-lam f)] along the last axis."""
    return -logsumexp(_log(mu) - lam * f) / lam


def tilt(mu, f, lam):
    """mu exp(-lam f), normalized along the last axis, exact zeros kept."""
    w = _log(mu) - lam * f
    w = np.exp(w - logsumexp(w)[..., None])
    return np.where(mu > 0, w, 0.0)


def two_weight(tables, lam_p, lam_s):
    """The paper's central recursion: risk over transitions (lam_s), then over
    actions (lam_p). Returns (V of shape (T+1, S), pi of shape (T, S, A))."""
    T = tables.horizon
    V = np.empty((T + 1, tables.num_states))
    pi = np.empty_like(tables.rho)
    V[T] = tables.terminal
    for t in reversed(range(T)):
        q = tables.costs[t] + risk(tables.iota[t], V[t + 1][None, None, :], lam_s)
        V[t] = risk(tables.rho[t], q, lam_p)
        pi[t] = tilt(tables.rho[t], q, lam_p)
    return V, pi


def soc_values(tables):
    """Expected-cost optimum: hard minimum over actions, plain expectation over
    transitions."""
    T = tables.horizon
    V = np.empty((T + 1, tables.num_states))
    V[T] = tables.terminal
    for t in reversed(range(T)):
        V[t] = (tables.costs[t] + tables.iota[t] @ V[t + 1]).min(axis=-1)
    return V


def rsoc_values(tables, lam):
    """Exponential-utility optimum: hard minimum over actions, risk over
    transitions. Exact per initial state, and a lower bound for every Markov
    policy's exponential-utility value."""
    T = tables.horizon
    V = np.empty((T + 1, tables.num_states))
    V[T] = tables.terminal
    for t in reversed(range(T)):
        q = tables.costs[t] + risk(tables.iota[t], V[t + 1][None, None, :], lam)
        V[t] = q.min(axis=-1)
    return V


def desirability(tables, lam, z_terminal):
    """The linear recursion z_t = E_rho[exp(-lam c_t) E_iota[z_{t+1}]] in
    probability space, by matrix products."""
    T = tables.horizon
    z = np.empty((T + 1, tables.num_states))
    z[T] = z_terminal
    for t in reversed(range(T)):
        z[t] = (tables.rho[t] * np.exp(-lam * tables.costs[t]) * (tables.iota[t] @ z[t + 1])).sum(axis=-1)
    return z


def expected_cost(tables, pi):
    """Backward evaluation of E[cost] for a fixed policy under the baseline kernels."""
    W = tables.terminal.copy()
    for t in reversed(range(tables.horizon)):
        W = (pi[t] * (tables.costs[t] + tables.iota[t] @ W)).sum(axis=-1)
    return float(tables.p0 @ W)


def exp_utility(tables, pi, lam):
    """Backward evaluation of sum_x0 p(x0) -(1/lam) log E[exp(-lam cost) | x0]
    for a fixed policy under the baseline kernels."""
    L = -lam * tables.terminal
    for t in reversed(range(tables.horizon)):
        inner = logsumexp(_log(tables.iota[t]) + L[None, None, :])
        L = logsumexp(_log(pi[t]) - lam * tables.costs[t] + inner)
    start = tables.p0 > 0
    return float(tables.p0[start] @ (-L[start] / lam))


def objective(tables, pi, lam=None):
    """A policy's true MM/EM objective: the expected cost when ``lam`` is
    None (soc), else the exponential-utility value."""
    return expected_cost(tables, pi) if lam is None else exp_utility(tables, pi, lam)


def optimum(tables, lam=None):
    """The smallest ``objective`` over Markov policies."""
    if lam is None:
        return float(tables.p0 @ soc_values(tables)[0])
    start = tables.p0 > 0
    return float(tables.p0[start] @ rsoc_values(tables, lam)[0][start])


def descent_faults(chain, best, tol=DESCENT_TOL):
    """Objective values along an MM/EM run must never rise and never go
    below the optimum ``best``."""
    out = []
    rise = float(np.max(np.diff(chain), initial=0.0))
    if rise > tol:
        out.append(f"true objective rose by {rise:.3g}")
    if min(chain) < best - tol * max(1.0, abs(best)):
        out.append(f"objective {min(chain)!r} below the optimum {best!r}")
    return out


def reachable(tables):
    """(T, S) mask of states with positive probability under the baseline."""
    T = tables.horizon
    mask = np.zeros((T, tables.num_states), dtype=bool)
    cur = tables.p0 > 0
    for t in range(T):
        mask[t] = cur
        step = (tables.rho[t] > 0)[:, :, None] & (tables.iota[t] > 0)
        cur = (cur[:, None, None] & step).any(axis=(0, 1))
    return mask


def close(a, b, tol=REL_TOL):
    """Largest violation of |a - b| <= tol * max(1, |b|), or None when within."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return f"shape {a.shape} != {b.shape}"
    if not np.isfinite(a).all():
        return "non-finite entries"
    gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    worst = float(gap.max(initial=0.0))
    return None if worst <= tol else f"relative gap {worst:.3g} > {tol:g}"


def row_faults(table, base=None, tol=REL_TOL):
    """Rows must sum to 1 and, when ``base`` is given, vanish where it does."""
    table = np.asarray(table, dtype=float)
    out = []
    worst = float(np.max(np.abs(table.sum(axis=-1) - 1.0), initial=0.0))
    if not worst <= tol:
        out.append(f"row sums off by {worst:.3g}")
    if base is not None and (table[base == 0] != 0).any():
        out.append("mass where the baseline has none")
    return out


def _refuse_constant(name):
    raise ValueError(f"non-finite literal {name} in JSON output")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)
