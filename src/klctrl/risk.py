"""Entropic risk operator, its tilted-distribution dual and certificates.

Everything is computed in the log domain with a max-shift so that the
exponentials never overflow, and entries with zero base probability are
ignored regardless of the function value there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .model import kl_rows

MIN_ABS_LAMBDA = 1e-12


@dataclass(frozen=True)
class RiskParam:
    """Nonzero risk weight; positive is risk-seeking, negative risk-averse."""

    lam: float

    def __post_init__(self):
        if abs(self.lam) < MIN_ABS_LAMBDA:
            raise ValueError(
                f"|lambda| must be >= {MIN_ABS_LAMBDA}; use a plain expectation "
                "for the lambda -> 0 limit"
            )

    @property
    def seeking(self) -> bool:
        return self.lam > 0


def _coerce_lambda(lam) -> float:
    if isinstance(lam, RiskParam):
        return lam.lam
    return RiskParam(float(lam)).lam


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
    lam = _coerce_lambda(lam)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    support = _check_inputs(mu, f)
    lse = logsumexp(-lam * f[support], b=mu[support])
    return float(-lse / lam)


def tilted_distribution(mu, f, lam) -> np.ndarray:
    """mu exp(-lam f) normalized; the extremizer of the risk dual."""
    lam = _coerce_lambda(lam)
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
    lam = _coerce_lambda(lam)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    _check_inputs(mu, f)
    return float(candidate @ f + kl_rows(candidate, mu, "candidate").sum() / lam)


def entropic_risk_rows(mu: np.ndarray, f: np.ndarray, lam: float, axis: int = -1):
    """Vectorized entropic risk along one axis; zero-mass entries are ignored."""
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    return -logsumexp(log_mu - lam * f, axis=axis) / lam


def tilted_rows(mu: np.ndarray, f: np.ndarray, lam: float, axis: int = -1):
    """Vectorized exponential tilting along one axis, preserving exact zeros."""
    with np.errstate(divide="ignore"):
        w = np.log(mu) - lam * f
    w = w - logsumexp(w, axis=axis, keepdims=True)
    out = np.exp(w)
    out[np.broadcast_to(mu, out.shape) == 0] = 0.0
    return out
