"""Entropic risk operator, its tilted-distribution dual and certificates.

The row operators behind every backward pass, ``entropic_risk_rows``,
``tilted_rows`` and ``risk_and_tilted_rows`` (both from one exponentiation,
for the soft action step), run in probability space:

- When the rows share one value vector (a kernel table against V_{t+1}), the
  vector is shifted by its maximum and the sum is one BLAS matrix-vector
  product, ``mu @ exp(g - max g)``.
- When each row has its own values (the (S, A) action step), each row is
  shifted by its maximum over the support of ``mu``.

Either shift keeps every exponential at most 1, so nothing overflows.  A row
whose shifted sum falls below ``UNDERFLOW_SUM`` may have lost terms to
underflow, and only those rows are redone in the log domain with
``logsumexp``.  Entries with zero base probability are ignored regardless of
the function value there, and stay exact zeros in tilted rows.

No backward pass stores the tilted kernel tau* as a table: ``solvers.Solution``
builds it on first access from (iota, V, lambda_s) with ``tilted_rows``, and
with the transitions pinned it is the baseline kernel object itself.
"""

from __future__ import annotations

import numpy as np

from .model import check_weight, kl_rows

# A shifted sum at or above this bound loses nothing that matters to flushed
# or subnormal terms, each below ~1e-308: their share is under 1e-58.
UNDERFLOW_SUM = 1e-250


def logsumexp(a, axis=-1, keepdims: bool = False):
    """log(sum(exp(a))) along ``axis``, shifted by the maximum.

    Rows that are all -inf give -inf.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis=axis)


def _shifted(mu: np.ndarray, g: np.ndarray):
    """(e, s, shift) with e = exp(g - shift) <= 1 on the support of ``mu`` and
    s = sum_y mu e along the last axis.

    A 1-D ``g`` under a table ``mu`` is shared by every row: one global shift
    and one matrix-vector product.  Otherwise ``g`` has the shape of ``mu``
    and each row is shifted by its maximum over the support of ``mu``.
    """
    if g.ndim == 1 and mu.ndim > 1:
        shift = g.max()
        e = np.exp(g - shift)
        s = mu.reshape(-1, mu.shape[-1]) @ e
        return e, s.reshape(mu.shape[:-1]), shift
    g = np.where(mu > 0, g, -np.inf)
    shift = g.max(axis=-1, keepdims=True)
    e = np.exp(g - shift)
    return e, (mu * e).sum(axis=-1), shift[..., 0]


def _log_terms(mu: np.ndarray, g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """log mu + g on the selected rows of ``mu``, for the log-domain redo."""
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu[rows])
    return log_mu + (g if g.ndim == 1 and mu.ndim > 1 else g[rows])


def log_expect_exp(mu, g) -> np.ndarray:
    """log sum_y mu(y | row) exp(g(y)) for every row of ``mu``, in probability space.

    ``g`` is one vector shared by all rows, or one row of values per row of
    ``mu``.  Rows whose shifted sum is below ``UNDERFLOW_SUM`` are redone in
    the log domain.
    """
    mu = np.asarray(mu, dtype=float)
    g = np.asarray(g, dtype=float)
    _, s, shift = _shifted(mu, g)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(s) + shift)
    low = s < UNDERFLOW_SUM
    if low.any():
        out[low] = logsumexp(_log_terms(mu, g, low))
    return out


def _check_inputs(mu: np.ndarray, f: np.ndarray):
    if mu.shape != f.shape:
        raise ValueError("mu and f must have the same shape")
    if (mu < 0).any():
        raise ValueError("mu has negative entries")
    support = mu > 0
    if not support.any():
        raise ValueError("mu has empty support")
    if not np.isfinite(f[support]).all():
        raise ValueError("f must be finite on the support of mu")
    return support


def entropic_risk(mu, f, lam) -> float:
    """-(1/lam) log E_mu[exp(-lam f)], log-sum-exp stabilized."""
    lam = check_weight(lam, "lambda", positive=False)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    support = _check_inputs(mu, f)
    lse = logsumexp(np.log(mu[support]) - lam * f[support])
    return float(-lse / lam)


def tilted_distribution(mu, f, lam) -> np.ndarray:
    """mu exp(-lam f) normalized; the extremizer of the risk dual."""
    lam = check_weight(lam, "lambda", positive=False)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    support = _check_inputs(mu, f)
    w = np.full(mu.shape, -np.inf)
    w[support] = np.log(mu[support]) - lam * f[support]
    w -= logsumexp(w)
    out = np.zeros(mu.shape)
    out[support] = np.exp(w[support])
    return out


def dual_certificate(mu, f, lam, candidate) -> float:
    """E_candidate[f] + (1/lam) KL(candidate || mu).

    Upper-bounds the risk value for lam > 0 and lower-bounds it for lam < 0;
    equality holds at the tilted distribution.
    """
    lam = check_weight(lam, "lambda", positive=False)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    _check_inputs(mu, f)
    return float(candidate @ f + kl_rows(candidate, mu, "candidate").sum() / lam)


def entropic_risk_rows(mu: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    """Entropic risk of ``f`` under each row of ``mu`` (last axis).

    ``f`` is one vector shared by every row or one row per row of ``mu``;
    zero-mass entries are ignored.
    """
    return -log_expect_exp(mu, -lam * np.asarray(f, dtype=float)) / lam


def risk_and_tilted_rows(mu: np.ndarray, f: np.ndarray, lam: float):
    """(``entropic_risk_rows(mu, f, lam)``, ``tilted_rows(mu, f, lam)``) from one
    shift: the exponentials of the table are taken once and serve both."""
    mu = np.asarray(mu, dtype=float)
    g = -lam * np.asarray(f, dtype=float)
    e, s, shift = _shifted(mu, g)
    with np.errstate(divide="ignore"):
        log_s = np.asarray(np.log(s) + shift)
    out = mu * e
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= s[..., None]
    low = s < UNDERFLOW_SUM
    if low.any():
        w = _log_terms(mu, g, low)
        lse = logsumexp(w, keepdims=True)
        log_s[low] = lse[..., 0]
        out[low] = np.exp(w - lse)
    return -log_s / lam, out


def tilted_rows(mu: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    """Each row of ``mu`` tilted by exp(-lam f) and normalized; exact zeros stay."""
    return risk_and_tilted_rows(mu, f, lam)[1]
