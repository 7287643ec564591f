"""The divergences that price a mismatched code design.

Designing the encoder for Q while tasks are drawn from P costs extra rate;
the penalty is Sundaresan's divergence

    Delta_alpha(P||Q) = log2 (sum Q^alpha) - H_alpha(P)
                        + (alpha/(1-alpha)) * log2 (sum P/Q^(1-alpha))

evaluated at alpha = 1/(1+rho), where H_alpha is the Renyi entropy.
Conventions 0/0 = 0 and a/0 = +inf apply symbol by symbol.  The three
terms are computed separately in the log domain and only then combined.
This module holds the divergences only: the mismatched bound is
taskcodes.coding.upper_bound(p, m, rho, design=q), and mismatched block
experiments are taskcodes.coding.block_experiment(p, n, rate, rho,
design=q).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SupportViolationError
from .probability import (
    DEFAULT_TUPLE_CAP,
    IidTypes,
    Pmf,
    TypeLaw,
    _check_alpha,
    _check_alphabets,
    _check_cap,
    _escapes,
    kl_divergence,
    log2sumexp,
    renyi_entropy,
)


def _log2_common_sum(p, q, a: float, b: float) -> float:
    """log2 sum P^a Q^b over the symbols where both p and q are positive,
    each weighted by its multiplicity."""
    both = (p.masses > 0.0) & (q.masses > 0.0)
    counts = p.multiplicity
    with np.errstate(over="ignore", invalid="ignore"):
        return log2sumexp(a * p.log_masses[both] + b * q.log_masses[both],
                          None if counts is None else counts[both])


def _nonnegative(value: float, alpha: float) -> float:
    """A divergence, read as 0 when rounding left it in (-1e-12, 0).  No
    divergence is nan or negative, so a value below that means the sums of
    order alpha left the float range: OverflowError."""
    if not value >= -1e-12:
        raise OverflowError(f"the divergence of order {alpha!r} leaves the float range")
    return 0.0 if -1e-12 < value < 0.0 else value


def sundaresan_divergence(p, q, alpha: float) -> float:
    """Delta_alpha(p||q) in bits.

    Accepts any two Pmfs over one alphabet, n-tuple laws included, or two
    TypeLaws on the same types, whose sums weight each type by its
    multiplicity.  +inf exactly when (0 < alpha < 1 and supp(p) is not
    contained in supp(q)) or (alpha > 1 and the supports are disjoint).
    """
    _check_alpha(alpha)
    return _sundaresan(p, q, alpha, renyi_entropy(p, alpha))


def _sundaresan(p, q, alpha: float, h: float) -> float:
    """sundaresan_divergence(p, q, alpha) for a checked order and h = H_alpha(p)."""
    _check_alphabets(p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        log_a = log2sumexp(alpha * q.log_masses, p.multiplicity)
    if alpha < 1.0 and _escapes(p, q):
        return math.inf  # some P(x)/Q(x)^(1-alpha) hits a/0
    # with alpha > 1 and disjoint supports log_c is -inf and the value inf
    log_c = _log2_common_sum(p, q, 1.0, alpha - 1.0)
    return _nonnegative(log_a - h + alpha / (1.0 - alpha) * log_c, alpha)


def renyi_divergence(p, q, alpha: float) -> float:
    """Renyi divergence (1/(alpha-1)) * log2 sum P^alpha Q^(1-alpha) in bits.

    Kept around for comparison: it shares only the nonnegativity and the
    alpha -> 1 limit with the Sundaresan divergence.  Sums over TypeLaws
    weight each type by its multiplicity.
    """
    _check_alpha(alpha)
    _check_alphabets(p, q)
    if alpha > 1.0 and _escapes(p, q):
        return math.inf
    return _nonnegative(_log2_common_sum(p, q, alpha, 1.0 - alpha) / (alpha - 1.0), alpha)


class DivergenceLimits(NamedTuple):
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
    if _escapes(p, q):
        raise SupportViolationError("supp(p) must be contained in supp(q)")
    order0 = math.log2(q.support.size / p.support.size)
    qmax = float(q.masses.max())
    argmax = q.masses >= qmax - 1e-12
    avg = float(p.masses[argmax].mean())
    pmax = float(p.masses.max())
    order_inf = math.inf if avg == 0.0 else math.log2(pmax / avg)
    probes = {a: sundaresan_divergence(p, q, a) for a in _PROBE_ALPHAS}
    return DivergenceLimits(
        kl=kl_divergence(p, q), order0=order0, order_inf=order_inf, probes=probes
    )


def product_additivity_check(p: Pmf, q: Pmf, alpha: float, n: int,
                             cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """True iff Delta_alpha(p^n || q^n) = n * Delta_alpha(p || q) within
    1e-9 * n (infinities on both sides also count as equal).  The n-fold
    laws are held on their type classes; n is still refused past the tuple
    cap on |X|^n, as for an enumerated law."""
    single = sundaresan_divergence(p, q, alpha)
    _check_cap(p.size, n, cap)
    types = IidTypes(p.size, n)
    joint = sundaresan_divergence(TypeLaw(p, types), TypeLaw(q, types), alpha)
    if math.isinf(single) or math.isinf(joint):
        return math.isinf(single) and math.isinf(joint)
    return abs(joint - n * single) <= 1e-9 * n
