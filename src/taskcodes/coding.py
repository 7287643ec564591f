"""Fixed-description-count task encoders and their moment bounds.

An encoder f: X -> {1, ..., M} forces every task sharing a description to
be performed; the figure of merit is the rho-th moment
sum_x P(x) |f^-1(f(x))|^rho.  An encoder is held as the Partition of X into
its nonempty preimages: block b carries description b + 1, and the ids
above the number of blocks stay unused.  The constructed encoder derives
per-element cardinality budgets from the law (size roughly proportional to
P(x)^(-1/(1+rho))) and feeds them to the greedy partition builder, whose
walk belongs to partitions; i.i.d. rows on type classes read their block
sizes from that walk's run-length-coded blocks (greedy_blocks).  The
moment of any encoder is sandwiched between two exponentials in the Renyi
entropy of order 1/(1+rho); an encoder designed for a mismatched law pays
Sundaresan's divergence in the upper bound's exponent.
"""

import decimal
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    DescriptionCountTooSmallError,
    RateTooSmallError,
)
from .mismatch import _sundaresan
from .partitions import (LambdaBudget, Partition, _ziv_floor, build_partition,
                         greedy_blocks)
from .probability import (
    DEFAULT_TUPLE_CAP,
    IidTypes,
    MarkovSource,
    Pmf,
    TypeLaw,
    _check_alphabets,
    _check_cap,
    _check_rho,
    _exact,
    _markov_log_masses,
    _per_tuple,
    _rho_order,
    grouped_fsum,
    iid_joint,
    log2sumexp,
    markov_joint,
    renyi_rho,
)


def fmt(v: float) -> str:
    """A float as the CSV prints it: 12 significant digits, 0 for -0.0."""
    return f"{v + 0.0:.12g}"


class MomentReport(NamedTuple):
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
        """The fields in order: n, M and N (0, 3, 4) exactly, the rest through fmt."""
        return ",".join(str(v) if i in (0, 3, 4) else fmt(v) for i, v in enumerate(self))


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of an array, and the index of each entry
    among them.  (By hand: np.unique gives the same values and ranks, but
    flattens a copy of its input, 32 MB more peak memory at 2^22 entries.)"""
    order = np.argsort(values)
    ordered = values[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    ranks = np.cumsum(new)
    ranks -= 1
    ranks[order] = ranks.copy()  # rank of each entry, in entry order
    return ordered[new], ranks


def lambda_from_law(p: Pmf, rho: float, m: int) -> LambdaBudget:
    """Budgets ceil(beta * P(x)^(-1/(1+rho))) (inf on zero mass), with beta
    chosen just large enough that the greedy builder fits in M blocks:
    beta = 2 * sum_x P(x)^(1/(1+rho)) / (M - log2|X| - 2).  Each distinct
    mass takes one scalar power (a budget past the float range: OverflowError).

    `p` is a Pmf, or a TypeLaw whose symbols are types: beta then weights
    each type by its multiplicity, to the bits of the enumerated law."""
    rt = _rho_order(rho)
    threshold = math.log2(p.size) + 2.0
    if not m > threshold:
        raise DescriptionCountTooSmallError(
            f"need M > log2|X| + 2 = {threshold:.6g}, got M = {m}"
        )
    beta = 2.0 * grouped_fsum(p.masses ** rt, p.multiplicity) / (m - threshold)
    masses, index = _distinct(p.masses)  # a budget depends on x only through P(x)
    return LambdaBudget([math.inf if mass == 0.0 else max(math.ceil(mass ** -rt * beta), 1)
                         for mass in masses.tolist()], index)


def build_encoder(p: Pmf, rho: float, m: int) -> Partition:
    """The encoder with m descriptions for p: the greedy partition of the
    law-derived budgets, whose N blocks never exceed M.  Requires
    M > log2|X| + 2."""
    _per_tuple(p, "encoder")  # its blocks would hold types, while its size counts tuples
    part = build_partition(lambda_from_law(p, rho, m))
    if part.num_blocks > m:
        raise ValueError(f"{part.num_blocks} preimages exceed M = {m}")
    return part


def moment(p: Pmf, part: Partition, rho: float) -> float:
    """The rho-th moment sum_x P(x) L(x)^rho of the encoder `part` under p."""
    _check_rho(rho)
    _per_tuple(p, "moment")  # its masses are per type, the partition's labels per tuple
    if p.size != part.ground_size:
        raise AlphabetMismatchError(
            f"pmf over {p.size} symbols vs encoder over {part.ground_size}"
        )
    return _moment_sum(p.masses, part.sizes[part.labels], rho)


def _moment_sum(masses: np.ndarray, sizes: np.ndarray, rho: float, counts=None) -> float:
    """grouped_fsum of counts * L^rho * P over entries of block size L and
    mass P (one each without counts); a zero mass adds 0, even at L^rho = inf."""
    positive = masses > 0.0
    with np.errstate(over="ignore"):
        terms = np.power(sizes[positive], rho, dtype=float)
    terms *= masses[positive]
    return grouped_fsum(terms, None if counts is None else counts[positive])


def lower_bound(p, m: int, rho: float) -> float:
    """Converse bound 2^(rho*(H_{1/(1+rho)}(p) - log2 M)), valid for every
    encoder with M descriptions."""
    h = renyi_rho(p, rho)
    if m < 1:
        raise ValueError("M must be a positive integer")
    return _power(2, rho * (h - math.log2(m)))


def m_tilde(m: int, alphabet_size: int) -> float:
    """The effective description count (M - log2|X| - 2) / 4."""
    return (m - math.log2(alphabet_size) - 2.0) / 4.0


def upper_bound(p, m: int, rho: float, design: Pmf | None = None) -> float:
    """Achievability bound 1 + 2^(rho*(H_{1/(1+rho)}(p) - log2 Mtilde));
    +inf when M <= log2|X| + 2.  With `design`, it bounds the moment under p
    of build_encoder(design, rho, m): Sundaresan's Delta_{1/(1+rho)}(p||design)
    joins the exponent, and the bound is +inf when the divergence is."""
    h = renyi_rho(p, rho)
    if design is not None:
        h += _sundaresan(p, design, _rho_order(rho), h)
    mt = m_tilde(m, p.size)
    if mt <= 0.0:
        return math.inf
    return 1.0 + _power(2, rho * (h - math.log2(mt)))


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


def _power(base: int, exponent: float) -> float:
    """base^exponent as a float, inf past the float range as in moment."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def brute_force_optimum(p: Pmf, m: int, rho: float) -> tuple[float, Partition]:
    """The oracle: the exact minimum of the rho-th moment over all partitions
    of X into at most m nonempty blocks, zero-mass symbols included, by
    enumerating restricted growth strings over X (guarded to |X| <= 10).  A
    block of zero masses only adds 0.  Ties go to the lexicographically
    smallest growth string: a string replaces the best so far only when its
    value is below best - 1e-15.

    A block's term w[mask] = fsum(masses in mask) * |mask|^rho comes from a
    table over the subsets of X, and a string's value is the fsum of its
    terms.  The strings are built as arrays in chunks that share all but
    their last five symbols.  The scan keeps the running rule "value <
    best - 1e-15" string by string: a float sum of the terms, shrunk by far
    more than its rounding error, skips the strings that cannot pass, and
    the rest get their exact value.  fsum is correctly rounded and ignores
    term order, so value and partition are those of a loop over all strings.
    """
    _check_rho(rho)
    if m < 1:
        raise ValueError("M must be a positive integer")
    _per_tuple(p, "optimum")
    if p.size > 10:
        raise AlphabetTooLargeError(f"|X| = {p.size} > 10")
    s = p.size
    limit = min(m, s)
    powers = [_power(c, rho) for c in range(s + 1)]
    # fsum of the masses in each subset, from its exact sum in units of 1/d
    masses, d = _exact(p.masses.tolist())
    units = [0]
    for u in masses:
        units += [w + u for w in units]
    weights = [w / d for w in units]
    # a block of zero masses adds 0, not 0 * inf = nan
    terms = [w * powers[mask.bit_count()] if w else 0.0 for mask, w in enumerate(weights)]
    table = np.array(terms)
    # the first string puts every symbol in block 0
    best_masks = [(1 << s) - 1] + [0] * (limit - 1)
    best = terms[best_masks[0]]
    start = np.zeros((1, limit), np.uint16)
    start[0, 0] = 1
    head = max(1, s - 5)
    prefixes, used = _grow(start, np.ones(1, np.intp), 1, head, limit)
    # the last symbols' blocks after a prefix depend only on its block count
    suffixes = {u: _grow(np.zeros_like(start), np.array([u]), head, s, limit)[0]
                for u in set(used.tolist())}
    for prefix, u in zip(prefixes, used.tolist()):
        chunk = suffixes[u] | prefix
        floor = table[chunk].sum(axis=1) * (1.0 - 1e-13)
        for j in np.flatnonzero(floor < best - 1e-15).tolist():
            if floor[j] < best - 1e-15:
                row = chunk[j].tolist()
                val = math.fsum([terms[mask] for mask in row])
                if val < best - 1e-15:
                    best, best_masks = val, row
    blocks = [[i for i in range(s) if mask >> i & 1] for mask in best_masks if mask]
    return best, Partition(blocks)


def as_rate(rate) -> Fraction:
    """Normalize a rate to an exact Fraction.  Strings and Fractions are
    taken verbatim; floats are rounded to 6 decimal places first so that
    floor(2^(nR)) is well defined."""
    if isinstance(rate, (Fraction, str, int)):
        return Fraction(rate)
    return Fraction(f"{float(rate):.6f}")


def floor_pow2(exponent: Fraction) -> int:
    """floor(2**exponent) exactly for rational exponents.

    partitions._ziv_floor evaluates 2**exponent in decimal with whole + 80,
    160, 320, ... guard bits (whole = floor(exponent)).  The error bound,
    whole + 4 units of 10^(1-prec) relative to the power, covers the
    rounding of the exponent (at most whole + 1 units once raised to the
    power) and two units for the power itself, which the decimal module
    rounds almost always correctly.  A non-integer rational exponent gives
    an irrational power, so some precision always decides.
    """
    if exponent < 0:
        return 0
    if exponent.denominator == 1:
        return 1 << int(exponent)
    whole = exponent.numerator // exponent.denominator

    def evaluate():
        power = decimal.Decimal(2) ** (decimal.Decimal(exponent.numerator)
                                       / exponent.denominator)
        return power, power * (whole + 4)
    # whole + guard bits in decimal digits (log10(2) < 0.30103), plus two
    return _ziv_floor(evaluate, lambda i: (whole + (80 << i)) * 30103 // 100000 + 2)


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


def _row(p, rho: float, m: int, design, n: int, rate: float, used: int,
         value: float) -> MomentReport:
    """The report of an encoder with `used` blocks and moment `value` under
    p (a Pmf or a TypeLaw), built with m descriptions for `design` (default
    p; a TypeLaw on the same types if p is one); delta = rate -
    log2(Mtilde)/n is nan without a rate."""
    mt = m_tilde(m, p.size)
    return MomentReport(
        n=n,
        rate=rate,
        rho=rho,
        description_count=m,
        used_count=used,
        moment=value,
        lower=lower_bound(p, m, rho),
        upper=upper_bound(p, m, rho, design),
        m_tilde=mt,
        delta=rate - math.log2(mt) / n,
    )


def _type_encoder(law: TypeLaw, design: TypeLaw, rho: float, m: int) -> tuple[int, float]:
    """N and the rho-th moment under `law` of build_encoder(design, rho, m)
    on the n-tuples, found on the type classes without enumerating them.

    Each budget run of the greedy sweep is a union of type classes, in
    tuple index order; partitions.greedy_blocks gives the stretches, spans
    of blocks of one size.  One merge of the run ends with the stretch ends
    gives the pieces where a run meets a stretch.  A run whose types share
    one mass under `law` adds each piece whole.  A walked run, of two or
    more masses, is one table: IidTypes.first_counts at its inner cuts,
    then the rest of each type's tuples.  grouped_fsum sums
    count * (L^rho * P) over the pieces: fsum over the tuples.
    """
    types = law.types
    budget = lambda_from_law(design, rho, m)  # per type
    order = np.argsort(budget.codes, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(budget.codes))))
    run_counts = np.add.reduceat(types.multiplicity[order], bounds[:-1])
    blocks = greedy_blocks(budget.values, run_counts.tolist(), law.size)
    used = sum(r for r, _ in blocks)
    if used > m:
        raise ValueError(f"{used} preimages exceed M = {m}")
    masses = law.masses[order]
    low, high = (f.reduceat(masses, bounds[:-1]) for f in (np.minimum, np.maximum))
    # one merge of the run ends with the inner stretch ends, in the multiplicities' dtype
    # (object where k^n can pass 2^63): a piece ends at each, with the tuples since the
    # end before; its run and stretch are the numbers of run and stretch ends before it
    inner = itertools.accumulate(r * s for r, s in blocks[:-1])
    count = np.concatenate((np.cumsum(run_counts), np.array([*inner], run_counts.dtype)))
    merged = np.argsort(count, kind="stable")
    count = np.diff(count[merged], prepend=0)
    run = np.searchsorted(np.flatnonzero(merged < run_counts.size), np.arange(merged.size))
    size = np.array([s for _, s in blocks], float)[np.arange(merged.size) - run]
    whole = (count > 0) & (low == high)[run]  # a stretch end on a run end adds an empty piece
    piece_masses, sizes, counts = [low[run[whole]]], [size[whole]], [count[whole]]
    cut = np.flatnonzero((count > 0) & ~whole)
    for r, pieces in itertools.groupby(cut.tolist(), key=run.__getitem__):
        pieces = [*pieces]
        group = order[bounds[r]:bounds[r + 1]]
        cuts = itertools.accumulate(count[pieces[:-1]].tolist())  # the run's inner cuts
        upto = [types.first_counts(group, s) for s in cuts]
        # row j: piece j's tuples per type; dropping its 0s spares grouped_fsum memory
        table = np.diff([np.zeros_like(group), *upto, types.multiplicity[group]], axis=0)
        piece, col = np.nonzero(table)
        piece_masses.append(masses[bounds[r] + col])
        sizes.append(size[pieces][piece])
        counts.append(table[piece, col])
    piece_masses, sizes, counts = map(np.concatenate, (piece_masses, sizes, counts))
    return used, _moment_sum(piece_masses, sizes, rho, counts)


def _check_underflow(law: Pmf, log_masses, base: int, n: int, rho: float) -> None:
    """Refuse the law of n letters when the tuples whose mass underflows to
    0 in it could change the moment; log_masses() gives each symbol's true
    log-mass.  Each lost tuple sits in a block of at most base^n tuples, so
    together they add at most sum mult * 2^(log-mass) * (base^n)^rho to a
    moment of at least 1; the law is refused when that is 2^-53 or more.
    """
    lost = law.masses == 0.0
    if lost.any():  # log2sumexp skips the true zeros, of log-mass -inf
        counts = None if law.multiplicity is None else law.multiplicity[lost]
        bound = log2sumexp(log_masses()[lost], counts)
        bound += rho * n * math.log2(base)
        if bound >= -53.0:
            raise OverflowError(f"tuple masses below the float range at n = "
                                f"{n} could add 2^{bound:.6g} to the moment")


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

    An i.i.d. row is computed on the C(n+k-1, k-1) type classes of the
    n-tuples (TypeLaw, _type_encoder), never on the k^n-entry law; it is
    the row the enumerated law gives, bit for bit, when the Renyi entropy
    and the penalty sum the tuples with fsum.  A Markov row enumerates the
    law (markov_joint), and the design's law with it (iid_joint).  Either
    row raises OverflowError when tuple masses that underflow to 0 could
    change its moment.

    The inputs are checked in one order: rho, the alphabets, the tuple cap
    on base^n, then M, and only then are the n-tuple laws built.  The cap
    still bounds i.i.d. rows, whose memory grows with the number of types,
    not with k^n.
    delta = R - log2(Mtilde)/n is the finite-n slack between the upper
    bound's exponent and the rate; it vanishes as n grows.
    """
    _rho_order(rho)
    letters = source.initial if isinstance(source, MarkovSource) else source
    if design is not None:
        _check_alphabets(letters, design)
    _check_cap(letters.size, n, cap)
    rate_fr = as_rate(rate)
    m = _description_count(rate_fr, n, letters.size)
    if isinstance(source, MarkovSource):
        design_law = None if design is None else iid_joint(design, n, cap)
        law = markov_joint(source, n, cap)
        _check_underflow(law, lambda: _markov_log_masses(source, n), letters.size, n, rho)
        part = build_encoder(design_law or law, rho, m)
        used, value = part.num_blocks, moment(law, part, rho)
    else:
        law = TypeLaw(source, IidTypes(letters.size, n))
        _check_underflow(law, lambda: law.types.log_masses(source), letters.size, n, rho)
        design_law = None if design is None else TypeLaw(design, law.types)
        used, value = _type_encoder(law, design_law or law, rho, m)
    return _row(law, rho, m, design_law, n, float(rate_fr), used, value)
