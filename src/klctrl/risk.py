"""Entropic risk operator, its tilted-distribution dual and certificates.

Two cores compute log sum_y mu(y) exp(g(y)) along the last axis, one for
each side of the oracle cross-checks, and share nothing but ``logsumexp``.

``_log_sum`` serves the solver.  Every row operator behind a backward pass,
``log_expect_exp``, ``entropic_risk_rows``, ``tilted_rows`` and
``risk_and_tilted_rows`` (risk and tilt from one exponentiation, for the soft
action step), takes log s from it.  It forms the sum in probability space,
in one of two ways:

- Rows that share one value vector (a kernel table against V_{t+1}) shift
  it by its maximum, and the sum is one BLAS matrix-vector product,
  ``mu @ exp(g - max g)``.
- Rows with their own values (the (S, A) action step) are each shifted by
  their maximum over the support of ``mu``.

Either shift keeps every exponential at most 1, so nothing overflows.  A row
whose shifted sum falls below ``UNDERFLOW_SUM`` may have lost terms to
underflow: its sum is raised to the bound before the log and the tilt's
division, so neither meets a zero, and the row is then redone in the log
domain with ``logsumexp``.  Rows at or above the bound are untouched.

``_reference_log_sum`` serves the reference values: ``entropic_risk`` and
``tilted_distribution``, and through it the oracle's exact risk objectives,
tilted trajectory tables and rsoc policy sweep, and ``verify``'s central
Bellman residual.  It sums the log terms log mu + g with ``logsumexp``.

Both cores ignore entries with zero base probability, whatever the function
value there, and tilted rows keep them as exact zeros.
"""

from __future__ import annotations

import numpy as np

from .model import check_weight, kl_rows

# A shifted sum at or above this bound loses nothing that matters to flushed
# or subnormal terms, each below ~1e-308: their share is under 1e-58.
UNDERFLOW_SUM = 1e-250


def logsumexp(a, axis=-1):
    """log(sum(exp(a))) along ``axis``, shifted by the maximum.

    Rows that are all -inf give -inf.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)


def _log_sum(mu: np.ndarray, g: np.ndarray):
    """(e, s, log_s, low, w) for s = sum_y mu exp(g - shift) along the last axis.

    e = exp(g - shift) <= 1 on the support of ``mu``; s is raised to
    ``UNDERFLOW_SUM``; log_s = log sum_y mu exp(g).  The rows ``low`` whose
    sum fell below the bound have log_s redone from their log terms
    w = log mu + g, which are None when no row is low.
    """
    shared = g.ndim == 1 and mu.ndim > 1
    if shared:
        shift = g.max()
        e = np.exp(g - shift)
        s = (mu.reshape(-1, mu.shape[-1]) @ e).reshape(mu.shape[:-1])
    else:
        masked = np.where(mu > 0, g, -np.inf)
        top = masked.max(axis=-1, keepdims=True)
        e = np.exp(masked - top)
        s, shift = (mu * e).sum(axis=-1), top[..., 0]
    low = s < UNDERFLOW_SUM
    s = np.maximum(s, UNDERFLOW_SUM)
    log_s = np.asarray(np.log(s) + shift)
    w = None
    if low.any():
        with np.errstate(divide="ignore"):
            w = np.log(mu[low]) + (g if shared else g[low])
        log_s[low] = logsumexp(w)
    return e, s, log_s, low, w


def log_expect_exp(mu, g) -> np.ndarray:
    """log sum_y mu(y | row) exp(g(y)) for every row of ``mu``.

    ``g`` is one vector shared by all rows, or one row of values per row of
    ``mu``.
    """
    return _log_sum(np.asarray(mu, dtype=float), np.asarray(g, dtype=float))[2]


def _reference_log_sum(mu: np.ndarray, g: np.ndarray):
    """(w, log s): the log terms w = log mu + g, -inf where mu = 0 whatever g
    holds there, and log s = ``logsumexp(w)`` along the last axis.  ``g``
    broadcasts to the shape of ``mu``."""
    support = mu > 0
    w = np.log(mu, out=np.full(mu.shape, -np.inf), where=support)
    np.add(w, g, out=w, where=support)
    return w, logsumexp(w)


def _risk_args(mu, f, lam):
    """(mu, f, lam, support of mu) as arrays and a checked weight, or ValueError."""
    lam = check_weight(lam, "lambda", positive=False)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if mu.shape != f.shape:
        raise ValueError("mu and f must have the same shape")
    if (mu < 0).any():
        raise ValueError("mu has negative entries")
    support = mu > 0
    if not support.any():
        raise ValueError("mu has empty support")
    if not np.isfinite(f[support]).all():
        raise ValueError("f must be finite on the support of mu")
    return mu, f, lam, support


def entropic_risk(mu, f, lam) -> float:
    """-(1/lam) log E_mu[exp(-lam f)], log-sum-exp stabilized."""
    mu, f, lam, support = _risk_args(mu, f, lam)
    return float(-_reference_log_sum(mu[support], -lam * f[support])[1] / lam)


def tilted_distribution(mu, f, lam) -> np.ndarray:
    """mu exp(-lam f) normalized; the extremizer of the risk dual."""
    mu, f, lam, support = _risk_args(mu, f, lam)
    # f is not checked off the support, so it is not scaled there either
    w, log_s = _reference_log_sum(mu, -lam * np.where(support, f, 0.0))
    return np.exp(w - log_s, out=np.zeros(mu.shape), where=support)


def dual_certificate(mu, f, lam, candidate) -> float:
    """E_candidate[f] + (1/lam) KL(candidate || mu).

    Upper-bounds the risk value for lam > 0 and lower-bounds it for lam < 0;
    equality holds at the tilted distribution.
    """
    mu, f, lam, _ = _risk_args(mu, f, lam)
    candidate = np.asarray(candidate, dtype=float)
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
    e, s, log_s, low, w = _log_sum(mu, -lam * np.asarray(f, dtype=float))
    out = mu * e
    out /= s[..., None]
    if w is not None:
        out[low] = np.exp(w - log_s[low][..., None])
    return -log_s / lam, out


def tilted_rows(mu: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    """Each row of ``mu`` tilted by exp(-lam f) and normalized; exact zeros stay."""
    return risk_and_tilted_rows(mu, f, lam)[1]
