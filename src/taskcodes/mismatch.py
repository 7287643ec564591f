"""The divergences that price a mismatched code design.

Designing the encoder for Q while tasks are drawn from P costs extra rate;
the penalty is Sundaresan's divergence

    Delta_alpha(P||Q) = log2 (sum Q^alpha) - H_alpha(P)
                        + (alpha/(1-alpha)) * log2 (sum P/Q^(1-alpha))

evaluated at alpha = 1/(1+rho), where H_alpha is the Renyi entropy.
Conventions 0/0 = 0 and a/0 = +inf apply symbol by symbol.  The three
terms are log2 power sums of taskcodes.probability, combined only here.
This module holds the divergences only: the mismatched bound is
taskcodes.coding.upper_bound(p, m, rho, design=q), and mismatched block
experiments are taskcodes.coding.block_experiment(p, n, rate, rho,
design=q).
"""

import math
from typing import NamedTuple

from .errors import InvalidOrderError, SupportViolationError
from .probability import (
    IidTypes,
    Pmf,
    TypeLaw,
    _check_alpha,
    _check_alphabets,
    _escapes,
    _log2_power_sum,
    _nonnegative,
    kl_divergence,
    renyi_entropy,
)


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
    """sundaresan_divergence(p, q, alpha) for a checked order and h = H_alpha(p),
    refused where its rounding, to first order 2^-52 (3 (|log_a| + |h| + |r log_c|)
    + |value| + e (1 + |r| + 1/|1 - alpha|)) with r = alpha/(1 - alpha), passes
    2^-20 max(1, |value|): a log sum L of N terms rounds by 2^-52 (|L| + e), e = 17 + 3 log2 N."""
    _check_alphabets(p, q)
    log_a = _log2_power_sum(q, alpha, q, 0.0)
    if alpha < 1.0 and _escapes(p, q):
        return math.inf  # some P(x)/Q(x)^(1-alpha) hits a/0
    # with alpha > 1 and disjoint supports log_c is -inf and the value inf
    log_c = _log2_power_sum(p, 1.0, q, alpha - 1.0)
    r, e = alpha / (1.0 - alpha), 17.0 + 3.0 * math.log2(q.masses.size)
    value = log_a - h + r * log_c
    if (3.0 * (abs(log_a) + abs(h) + abs(r * log_c)) + abs(value)
            + e * (1.0 + abs(r) + 1.0 / abs(1.0 - alpha))) > 2.0 ** 32 * max(1.0, abs(value)):
        raise InvalidOrderError(f"the divergence of order {alpha!r} has no certified digits")
    return _nonnegative(value, alpha)


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
    return _nonnegative(_log2_power_sum(p, alpha, q, 1.0 - alpha) / (alpha - 1.0), alpha)


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
    avg = float(p.masses[q.masses == q.masses.max()].mean())
    pmax = float(p.masses.max())
    if avg == 0.0:
        order_inf = math.inf
    else:  # log2(pmax / avg), from the two logs where the quotient alone overflows
        ratio = pmax / avg
        order_inf = math.log2(ratio) if ratio < math.inf else math.log2(pmax) - math.log2(avg)
    probes = {a: sundaresan_divergence(p, q, a) for a in _PROBE_ALPHAS}
    return DivergenceLimits(
        kl=kl_divergence(p, q), order0=order0, order_inf=order_inf, probes=probes
    )


def product_additivity_check(p: Pmf, q: Pmf, alpha: float, n: int) -> bool:
    """True iff Delta_alpha(p^n || q^n) = n * Delta_alpha(p || q) within
    1e-9 * n (infinities on both sides also count as equal).  The n-fold
    laws are held on their type classes."""
    single = sundaresan_divergence(p, q, alpha)
    types = IidTypes(p.size, n)
    joint = sundaresan_divergence(TypeLaw(p, types), TypeLaw(q, types), alpha)
    if math.isinf(single) or math.isinf(joint):
        return math.isinf(single) and math.isinf(joint)
    return abs(joint - n * single) <= 1e-9 * n
