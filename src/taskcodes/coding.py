"""Fixed-description-count task encoders and their moment bounds.

An encoder f: X -> {1, ..., M} forces every task sharing a description to
be performed; the figure of merit is the rho-th moment
sum_x P(x) |f^-1(f(x))|^rho.  The constructed encoder derives per-element
cardinality budgets from the law (size roughly proportional to
P(x)^(-1/(1+rho))) and feeds them to the greedy partition builder.  The
moment of any encoder is sandwiched between two exponentials in the Renyi
entropy of order 1/(1+rho).
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    DescriptionCountTooSmallError,
    RateTooSmallError,
)
from .partitions import LambdaBudget, Partition, build_partition
from .probability import (
    DEFAULT_TUPLE_CAP,
    MarkovSource,
    Pmf,
    _check_alphabets,
    _check_rho,
    _delta_bits,
    _rho_order,
    iid_joint,
    markov_joint,
    renyi_rho,
)


@dataclass(frozen=True)
class TaskEncoder:
    """An encoder f: X -> {1, ..., M} given by its induced partition; block
    m (0-based) carries description id m + 1.  Description ids above the
    number of nonempty preimages stay unused."""

    description_count: int
    partition: Partition

    def __post_init__(self) -> None:
        if self.partition.num_blocks > self.description_count:
            raise ValueError(
                f"{self.partition.num_blocks} preimages exceed M = "
                f"{self.description_count}"
            )

    @property
    def used_count(self) -> int:
        """N: the number of nonempty preimages."""
        return self.partition.num_blocks

    @property
    def assignment(self) -> tuple[int, ...]:
        """Description id per element, 1-based."""
        return tuple((self.partition.labels + 1).tolist())


def fmt(v: float) -> str:
    """A float as the CSV outputs print it: 12 significant digits, or inf."""
    return "inf" if math.isinf(v) else f"{v:.12g}"


@dataclass
class MomentReport:
    """One row of a block-length experiment."""

    n: int
    rate: float
    rho: float
    description_count: int
    used_count: int
    moment: float
    lower: float
    upper: float
    m_tilde: float
    delta: float

    CSV_HEADER = "n,R,rho,M,N,moment,lower,upper,m_tilde,delta"

    def csv_row(self) -> str:
        return ",".join([
            str(self.n), fmt(self.rate), fmt(self.rho),
            str(self.description_count), str(self.used_count),
            fmt(self.moment), fmt(self.lower), fmt(self.upper),
            fmt(self.m_tilde), fmt(self.delta),
        ])


def _check_m(m: int, alphabet_size: int) -> float:
    threshold = math.log2(alphabet_size) + 2.0
    if not m > threshold:
        raise DescriptionCountTooSmallError(
            f"need M > log2|X| + 2 = {threshold:.6g}, got M = {m}"
        )
    return threshold


def lambda_from_law(p: Pmf, rho: float, m: int) -> LambdaBudget:
    """Budgets ceil(beta * P(x)^(-1/(1+rho))) (inf on zero mass), with beta
    chosen just large enough that the greedy builder fits in M blocks:
    beta = 2 * sum_x P(x)^(1/(1+rho)) / (M - log2|X| - 2)."""
    rt = _rho_order(rho)
    threshold = _check_m(m, p.size)
    supp = p.masses > 0.0
    beta = 2.0 * math.fsum(p.masses[supp] ** rt) / (m - threshold)
    # One scalar power per distinct mass, never np.power on the array: the
    # vectorized power can differ from the scalar one in the last bit, and
    # the ceil can turn that bit into a different budget.  (Sorted distinct
    # masses by hand: np.unique imports numpy.ma, 1.2 MB, on first use.)
    masses = np.sort(p.masses)
    masses = masses[np.concatenate(([True], masses[1:] != masses[:-1]))]
    budgets = [math.inf if mass <= 0.0 else max(1, math.ceil(beta * mass ** (-rt)))
               for mass in masses]
    return LambdaBudget.from_index(budgets, np.searchsorted(masses, p.masses))


def build_encoder(p: Pmf, rho: float, m: int) -> TaskEncoder:
    """Construct the encoder induced by the greedy partition of the
    law-derived budgets.  Requires M > log2|X| + 2."""
    part = build_partition(lambda_from_law(p, rho, m))
    return TaskEncoder(description_count=m, partition=part)


def moment(p: Pmf, enc: TaskEncoder, rho: float) -> float:
    """The rho-th moment sum_x P(x) L(x)^rho of the encoder under p."""
    _check_rho(rho)
    if p.size != enc.partition.ground_size:
        raise AlphabetMismatchError(
            f"pmf over {p.size} symbols vs encoder over "
            f"{enc.partition.ground_size}"
        )
    part = enc.partition
    # one power per block; past the float range it is inf, and a zero
    # mass's term 0 * inf (nan) is then set to 0 * L^rho = 0
    with np.errstate(over="ignore", invalid="ignore"):
        powers = part.sizes.astype(float) ** rho
        terms = powers[part.labels]
        terms *= p.masses
    if math.isinf(powers.max()):
        terms[p.masses == 0.0] = 0.0
    return math.fsum(terms)


def _exp2(exponent: float) -> float:
    if exponent > 1023.0:
        return math.inf
    return 2.0 ** exponent


def _lower(h: float, m: int, rho: float) -> float:
    return _exp2(rho * (h - math.log2(m)))


def _upper(h: float, mt: float, rho: float) -> float:
    if mt <= 0.0:
        return math.inf
    return 1.0 + _exp2(rho * (h - math.log2(mt)))


def lower_bound(p, m: int, rho: float) -> float:
    """Converse bound 2^(rho*(H_{1/(1+rho)}(p) - log2 M)), valid for every
    encoder with M descriptions."""
    _check_rho(rho)
    if m < 1:
        raise ValueError("M must be a positive integer")
    return _lower(renyi_rho(p, rho), m, rho)


def m_tilde(m: int, alphabet_size: int) -> float:
    """The effective description count (M - log2|X| - 2) / 4."""
    return (m - math.log2(alphabet_size) - 2.0) / 4.0


def upper_bound(p, m: int, rho: float) -> float:
    """Achievability bound 1 + 2^(rho*(H_{1/(1+rho)}(p) - log2 Mtilde));
    +inf when M <= log2|X| + 2."""
    _check_rho(rho)
    return _upper(renyi_rho(p, rho), m_tilde(m, p.size), rho)


def _grow(masks: np.ndarray, used: np.ndarray, first: int, last: int,
          limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Extend restricted growth strings by symbols first..last-1, keeping
    lexicographic order.  A string is a row of block bitmasks (bit i set in
    column b when symbol i sits in block b) and uses used[row] blocks; a
    symbol opens at most one new block and never block number limit."""
    for i in range(first, last):
        fan = np.minimum(used + 1, limit)
        parent = np.repeat(np.arange(used.size), fan)
        block = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        masks = masks[parent]
        masks[np.arange(parent.size), block] |= 1 << i
        used = np.maximum(used[parent], block + 1)
    return masks, used


def _block_power(size: int, rho: float) -> float:
    """size^rho, inf past the float range as in moment."""
    try:
        return float(size) ** rho
    except OverflowError:
        return math.inf


def brute_force_optimum(p: Pmf, m: int, rho: float) -> tuple[float, Partition]:
    """Exact minimum of the rho-th moment over all partitions into at most m
    nonempty blocks, by enumerating restricted growth strings over supp(p).

    Zero-mass elements are parked in one extra overflow block when m leaves
    room for it (they only hurt the moment when mixed with positive mass).
    Ties go to the lexicographically smallest growth string.  Guarded to
    |X| <= 10.

    A block's term w[mask] = fsum(masses in mask) * |mask|^rho comes from a
    table over the subsets of supp(p), and a string's value is the fsum of
    its terms.  The strings are built as arrays in chunks that share all but
    their last five symbols.  The scan keeps the running rule "value <
    best - 1e-15" string by string: a float sum of the terms, shrunk by far
    more than its rounding error, skips the strings that cannot pass, and
    the rest get their exact value.  fsum is correctly rounded and ignores
    term order, so value and partition are those of a loop over all strings.
    """
    _check_rho(rho)
    if m < 1:
        raise ValueError("M must be a positive integer")
    if p.size > 10:
        raise AlphabetTooLargeError(f"|X| = {p.size} > 10")
    supp = [int(x) for x in p.support]
    zeros = [x for x in range(p.size) if x not in set(supp)]
    if zeros and m == 1:
        part = Partition([list(range(p.size))])
        return math.fsum(p.masses[supp] * _block_power(p.size, rho)), part

    s = len(supp)
    limit = min(m - 1 if zeros else m, s)
    masses = p.masses[supp].tolist()
    powers = [_block_power(c, rho) for c in range(s + 1)]
    terms = [math.fsum(masses[i] for i in range(s) if mask >> i & 1)
             * powers[mask.bit_count()] for mask in range(1 << s)]
    table = np.array(terms)
    # the first string puts every symbol in block 0
    best_masks = [(1 << s) - 1] + [0] * (limit - 1)
    best = terms[best_masks[0]]
    start = np.zeros((1, limit), np.uint16)
    start[0, 0] = 1
    head = max(1, s - 5)
    prefixes, used = _grow(start, np.ones(1, np.intp), 1, head, limit)
    for k in range(used.size):
        chunk, _ = _grow(prefixes[k:k + 1], used[k:k + 1], head, s, limit)
        floor = table[chunk].sum(axis=1) * (1.0 - 1e-13)
        for j in np.flatnonzero(floor < best - 1e-15).tolist():
            if floor[j] < best - 1e-15:
                row = chunk[j].tolist()
                val = math.fsum([terms[mask] for mask in row])
                if val < best - 1e-15:
                    best, best_masks = val, row
    blocks = [[supp[i] for i in range(s) if mask >> i & 1]
              for mask in best_masks if mask]
    if zeros:
        blocks.append(zeros)
    return best, Partition(blocks)


def as_rate(rate) -> Fraction:
    """Normalize a rate to an exact Fraction.  Strings and Fractions are
    taken verbatim; floats are rounded to 6 decimal places first so that
    floor(2^(nR)) is well defined."""
    if isinstance(rate, Fraction):
        return rate
    if isinstance(rate, str):
        return Fraction(rate)
    if isinstance(rate, int):
        return Fraction(rate)
    return Fraction(f"{float(rate):.6f}")


def floor_pow2(exponent: Fraction) -> int:
    """floor(2**exponent) exactly for rational exponents.

    Uses decimal arithmetic with enough working precision (whole + 80 bits)
    that the only way the floor could be wrong is if 2**exponent were within
    2^-60 of an integer, which for non-integer rational exponents does not
    happen at desk scale.
    """
    if exponent < 0:
        return 0
    if exponent.denominator == 1:
        return 1 << int(exponent)
    whole = exponent.numerator // exponent.denominator
    with decimal.localcontext() as ctx:
        # whole + 80 bits in decimal digits (log10(2) < 0.30103), plus two
        ctx.prec = (whole + 80) * 30103 // 100000 + 2
        ctx.Emax = decimal.MAX_EMAX
        val = decimal.Decimal(exponent.numerator) / exponent.denominator
        return int(decimal.Decimal(2) ** val)


def _description_count(rate: Fraction, n: int, base: int) -> int:
    """M = floor(2^(nR)) for n-tuples over a base-letter alphabet; raises
    RateTooSmallError unless M > n*log2|X| + 2, and OverflowError when
    nR >= 1024, where M is beyond the float range the encoder works in."""
    if rate * n >= 1024:
        raise OverflowError(f"nR = {rate * n} at n = {n}: M = floor(2^(nR)) "
                            "exceeds the float range")
    m = floor_pow2(rate * n)
    threshold = n * math.log2(base) + 2.0
    if not m > threshold:
        raise RateTooSmallError(
            f"floor(2^(nR)) = {m} at n = {n} does not exceed "
            f"n*log2|X| + 2 = {threshold:.6g}"
        )
    return m


def _report(p: Pmf, rho: float, m: int, design: Pmf | None = None,
            n: int = 1, rate: float = math.nan) -> tuple[MomentReport, TaskEncoder]:
    """Build the encoder with m descriptions for `design` (default p) and
    report its moment under p next to both bounds, from one Renyi entropy.

    A mismatched design adds Sundaresan's penalty Delta_{1/(1+rho)}(p||design)
    to the upper bound's exponent, which is +inf when the divergence is.
    delta = rate - log2(Mtilde)/n is nan without a rate.
    """
    enc = build_encoder(p if design is None else design, rho, m)
    penalty = 0.0 if design is None else _delta_bits(p.log_masses, design.log_masses,
                                                     _rho_order(rho))
    mt = m_tilde(m, p.size)
    h = renyi_rho(p, rho)
    report = MomentReport(
        n=n,
        rate=rate,
        rho=rho,
        description_count=m,
        used_count=enc.used_count,
        moment=moment(p, enc, rho),
        lower=_lower(h, m, rho),
        upper=_upper(h + penalty, mt, rho),
        m_tilde=mt,
        delta=rate - math.log2(mt) / n,
    )
    return report, enc


def block_experiment(source: Pmf | MarkovSource, n: int, rate, rho: float,
                     design: Pmf | None = None,
                     cap: int = DEFAULT_TUPLE_CAP) -> MomentReport:
    """Build the encoder for the law of n letters of `source` (i.i.d. letters
    of a Pmf, or the first n states of a MarkovSource) with M = floor(2^(nR))
    descriptions, and report its moment next to both bounds.

    With `design`, a Pmf over the same letters, the encoder is built for n
    i.i.d. letters of `design` and its moment taken under the source's law
    (mismatched design); the upper bound then carries Sundaresan's penalty
    Delta_{1/(1+rho)} between the two n-tuple laws in its exponent.

    The inputs are checked in one order: rho, the alphabets, the tuple cap
    on base^n, then M.  delta = R - log2(Mtilde)/n is the finite-n slack
    between the upper bound's exponent and the rate; it vanishes as n grows.
    """
    _rho_order(rho)
    if isinstance(source, MarkovSource):
        letters, joint = source.initial, markov_joint
    else:
        letters, joint = source, iid_joint
    if design is not None:
        _check_alphabets(letters, design)
    law = joint(source, n, cap)
    design_law = None if design is None else iid_joint(design, n, cap)
    rate_fr = as_rate(rate)
    m = _description_count(rate_fr, n, letters.size)
    return _report(law, rho, m, design_law, n, float(rate_fr))[0]
