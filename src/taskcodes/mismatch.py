"""Mismatched code design and the divergence that prices it.

Designing the encoder for Q while tasks are drawn from P costs extra rate;
the penalty is Sundaresan's divergence

    Delta_alpha(P||Q) = log2 [ (sum Q^alpha)
                               * (sum P/Q^(1-alpha))^(alpha/(1-alpha))
                               / (sum P^alpha)^(1/(1-alpha)) ]

evaluated at alpha = 1/(1+rho).  Conventions 0/0 = 0 and a/0 = +inf apply
symbol by symbol.  The three factors are computed separately in the log
domain and only then combined.  Mismatched block experiments are
taskcodes.coding.block_experiment(p, n, rate, rho, design=q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportViolationError
from .coding import TaskEncoder, _report
from .probability import (
    DEFAULT_TUPLE_CAP,
    Pmf,
    _check_alpha,
    _check_alphabets,
    _delta_bits,
    _rho_order,
    iid_joint,
    kl_divergence,
    log2sumexp,
)


@dataclass(frozen=True)
class DivergenceValue:
    alpha: float
    bits: float


def sundaresan_divergence(p, q, alpha: float) -> DivergenceValue:
    """Delta_alpha(p||q) in bits.

    Accepts any two Pmfs over one alphabet, n-tuple laws included.  +inf
    exactly when (0 < alpha < 1 and supp(p) is not contained in supp(q)) or
    (alpha > 1 and the supports are disjoint).
    """
    _check_alpha(alpha)
    _check_alphabets(p, q)
    return DivergenceValue(alpha, _delta_bits(p.log_masses, q.log_masses, alpha))


def renyi_divergence(p, q, alpha: float) -> float:
    """Renyi divergence (1/(alpha-1)) * log2 sum P^alpha Q^(1-alpha) in bits.

    Kept around for comparison: it shares only the nonnegativity and the
    alpha -> 1 limit with the Sundaresan divergence.
    """
    _check_alpha(alpha)
    _check_alphabets(p, q)
    lp, lq = p.log_masses, q.log_masses
    supp_p = np.isfinite(lp)
    supp_q = np.isfinite(lq)
    if alpha > 1.0 and np.any(supp_p & ~supp_q):
        return math.inf
    both = supp_p & supp_q
    s = log2sumexp(alpha * lp[both] + (1.0 - alpha) * lq[both])
    return s / (alpha - 1.0)


@dataclass(frozen=True)
class DivergenceLimits:
    """Closed-form limits of Delta_alpha plus numeric probes near them."""

    kl: float                # alpha -> 1
    order0: float            # alpha -> 0: log2(|supp q| / |supp p|)
    order_inf: float         # alpha -> inf: log2(max p / avg of p over argmax q)
    probes: dict[float, float]


_PROBE_ALPHAS = (1e-3, 1.0 - 1e-4, 1.0 + 1e-4, 1e3)


def divergence_limits(p: Pmf, q: Pmf) -> DivergenceLimits:
    """The three closed-form limits of Delta_alpha(p||q) together with
    numeric probes at alpha in {1e-3, 1 -/+ 1e-4, 1e3}.

    Requires supp(p) <= supp(q) (the alpha -> 0 limit needs it).
    """
    _check_alphabets(p, q)
    supp_p = p.masses > 0.0
    supp_q = q.masses > 0.0
    if np.any(supp_p & ~supp_q):
        raise SupportViolationError("supp(p) must be contained in supp(q)")
    order0 = math.log2(int(supp_q.sum()) / int(supp_p.sum()))
    qmax = float(q.masses.max())
    argmax = q.masses >= qmax - 1e-12
    avg = float(p.masses[argmax].mean())
    pmax = float(p.masses.max())
    order_inf = math.inf if avg == 0.0 else math.log2(pmax / avg)
    probes = {a: _delta_bits(p.log_masses, q.log_masses, a) for a in _PROBE_ALPHAS}
    return DivergenceLimits(
        kl=kl_divergence(p, q), order0=order0, order_inf=order_inf, probes=probes
    )


def product_additivity_check(p: Pmf, q: Pmf, alpha: float, n: int,
                             cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """True iff Delta_alpha(p^n || q^n) = n * Delta_alpha(p || q) within
    1e-9 * n (infinities on both sides also count as equal)."""
    _check_alpha(alpha)
    _check_alphabets(p, q)
    single = _delta_bits(p.log_masses, q.log_masses, alpha)
    jp = iid_joint(p, n, cap)
    jq = iid_joint(q, n, cap)
    joint = _delta_bits(jp.log_masses, jq.log_masses, alpha)
    if math.isinf(single) or math.isinf(joint):
        return math.isinf(single) and math.isinf(joint)
    return abs(joint - n * single) <= 1e-9 * n


def mismatched_bound(p: Pmf, q: Pmf, m: int, rho: float) -> tuple[float, TaskEncoder]:
    """Build the encoder from q, and return the moment bound it obeys under
    p: 1 + 2^(rho*(H(p) + Delta(p||q) - log2 Mtilde)), entropy and
    divergence both of order 1/(1+rho).

    The bound is +inf (valid but vacuous) when supp(p) is not contained in
    supp(q).
    """
    _rho_order(rho)
    _check_alphabets(p, q)
    report, enc = _report(p, rho, m, design=q)
    return report.upper, enc
