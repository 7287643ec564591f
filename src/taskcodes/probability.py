"""Finite probability models and the entropy functionals built on them.

All logarithms are base 2 and all entropies are in bits.  Zero masses are
represented as -inf in the log domain.  The law of an n-tuple is a Pmf over
base^n symbols: its log-masses are summed letter by letter and only then
exponentiated, so a tuple's mass underflows to 0 only when it is below the
float range.

The law of n i.i.d. letters is also held on its type classes (IidTypes,
TypeLaw): every tuple of one type has the same mass, so C(n+k-1, k-1)
types stand for the k^n tuples.  Both forms use one canonical log-mass per
type, the sum over the letters a present in x, in increasing a, of
n_a(x) * log2 p_a, and both normalize by the correctly rounded total mass,
so a type-class quantity equals its enumerated counterpart bit for bit when
both sum with grouped_fsum.  Divergences between two laws other than KL
live in taskcodes.mismatch.
"""

import itertools
import math

import numpy as np

from .errors import AlphabetMismatchError, CapExceededError, InvalidOrderError

#: Default ceiling on the number of tuples any enumeration may produce.
DEFAULT_TUPLE_CAP = 1 << 22

# iid_joint sorts tuple letters in blocks of at most about this many
_CHUNK = 1 << 20

# grouped_fsum converts this many array entries to Python floats at a time
_SLICE = 1 << 16

# Inputs whose total mass is further than this from 1 are rejected instead
# of silently rescaled.
_SUM_WINDOW = 1e-9


# Veltkamp's splitting constant: v = hi + lo exactly, with hi on 27
# significant bits and lo on 26, so c * hi and c * lo are exact for c < 2^26
_SPLIT = float((1 << 26) + 1)


def _exact(values: list[float]) -> tuple[list[int], int]:
    """Ints u and a power of two d with values[i] == u[i] / d exactly, for
    finite floats; d is the largest denominator among them, so an int sum
    of the u divided by d (true division) is the correctly rounded sum."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max((den for _, den in ratios), default=1)
    return [num * (d // den) for num, den in ratios], d


def grouped_fsum(values: np.ndarray, counts=None) -> float:
    """The correctly rounded sum of counts[i] copies of values[i], equal to
    math.fsum over the expanded terms (counts=None: one copy each).

    Counts are nonnegative ints (an int array, or an object array of Python
    ints).  With every count below 2^26 and every nonzero |value| in
    [2^-969, 2^995], each count * value splits into two exact float
    products that fsum adds; any other input is added as exact integers.
    Floats are made a slice at a time, so no list of them all is held.
    """
    values = np.asarray(values, dtype=float)
    if counts is not None and not np.isfinite(values).all():
        kept = counts != 0  # a value of count 0 adds nothing, inf or nan too
        values, counts = values[kept], counts[kept]
    if counts is None or not np.isfinite(values).all():  # an inf or nan decides the sum
        return math.fsum(itertools.chain.from_iterable(
            values[i:i + _SLICE].tolist() for i in range(0, values.size, _SLICE)))
    least = min(np.min(values, where=values > 0.0, initial=math.inf),
                -np.max(values, where=values < 0.0, initial=-math.inf))
    most = max(np.max(values, initial=0.0), -np.min(values, initial=0.0))
    if counts.max(initial=0) < 1 << 26 and least >= 2.0 ** -969 and most <= 2.0 ** 995:
        split = (counts & (counts - 1)).any()  # else powers of two: c * v is exact

        def products():
            for i in range(0, values.size, _SLICE):
                v = values[i:i + _SLICE]
                c = counts[i:i + _SLICE].astype(float)
                if split:
                    high = v * _SPLIT
                    high -= high - v
                    yield (c * high).tolist()
                    v = v - high  # not in place: v is a view of the caller's values
                yield (c * v).tolist()

        return math.fsum(itertools.chain.from_iterable(products()))
    units, d = _exact(values.tolist())
    return sum(c * u for u, c in zip(units, counts.tolist())) / d


def log2sumexp(log_values: np.ndarray, counts=None) -> float:
    """Return log2(sum(2**v for v in log_values)), stable for large spreads.

    Without counts, _log2sumexp_rows of the one row: entries that are not
    finite are dropped, and an input with none left returns -inf.  With
    counts, entry i stands for counts[i] equal entries and every entry is
    kept: the sum is grouped_fsum's correctly rounded one, to which a -inf
    entry adds an exact 0 (an inf or nan one gives nan).
    """
    arr = np.asarray(log_values, dtype=float)
    if counts is None:
        return float(_log2sumexp_rows(arr.reshape(1, -1))[0])
    top = float(arr.max(initial=-math.inf))
    if top == -math.inf:
        return -math.inf
    # one temporary the size of the input: a joint law's can be 32 MB
    terms = arr - top
    np.exp2(terms, out=terms)
    return top + math.log2(grouped_fsum(terms, counts))


def _log2sumexp_rows(a: np.ndarray) -> np.ndarray:
    """log2(sum(2**v)) over the finite entries v of each row of a 2-D array;
    a row with none gives -inf.

    The rows whose entries are all finite go through one array step: numpy
    sums each contiguous row of terms pairwise, and the logarithm is
    math.log2 per row, because np.log2 can differ from it in the last bit.
    The other rows are compacted, by how many finite entries they keep, into
    arrays of finite rows that take the same step; so a row sums as its
    finite entries alone would, and no row is ever formed as -inf - -inf.
    """
    kept = np.isfinite(a)
    if not (a.size and np.count_nonzero(kept) == a.size):
        widths = kept.sum(axis=1)
        out = np.full(len(a), -math.inf)
        for w in set(widths.tolist()) - {0}:
            rows = widths == w
            out[rows] = _log2sumexp_rows(a[kept & rows[:, None]].reshape(-1, w))
        return out
    top = np.fmax.reduce(a, axis=1)
    terms = a - top[:, None]
    np.exp2(terms, out=terms)
    return top + np.fromiter(map(math.log2, terms.sum(axis=1).tolist()), float, len(a))


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < math.inf) or alpha == 1.0:
        raise InvalidOrderError(f"order alpha must be positive, finite and != 1, got {alpha}")


def _check_rho(rho: float) -> None:
    if not (rho > 0.0):
        raise InvalidOrderError(f"rho must be positive, got {rho}")


def _rho_order(rho: float) -> float:
    """The Renyi order alpha = 1/(1+rho) that governs the rho-th moment.

    rho = inf (alpha 0) and a rho so small that alpha rounds to 1 have no
    Renyi order; the error names rho, not the alpha it would give."""
    _check_rho(rho)
    alpha = 1.0 / (1.0 + rho)
    if math.isinf(rho) or alpha == 1.0:
        raise InvalidOrderError(f"rho must be finite and give an order 1/(1+rho) != 1, got {rho}")
    return alpha


def _check_alphabets(p, q) -> None:
    if p.log_masses.size != q.log_masses.size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {p.log_masses.size} vs {q.log_masses.size}"
        )


def _escapes(p, q) -> bool:
    """True when supp(p) is not contained in supp(q)."""
    return bool(np.any((p.masses > 0.0) & (q.masses == 0.0)))


def _per_tuple(p, what: str) -> None:
    """Refuse a TypeLaw where `what` needs one symbol per tuple."""
    if p.multiplicity is not None:
        raise TypeError(f"a TypeLaw has no {what} over its tuples; use iid_joint")


def _with_logs(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """masses and their log2, both read-only."""
    with np.errstate(divide="ignore"):
        logs = np.log2(masses)
    masses.flags.writeable = False
    logs.flags.writeable = False
    return masses, logs


class Pmf:
    """A probability mass function over the dense alphabet 0..k-1.

    Input masses must sum to one within 1e-9 and are rescaled to sum to one
    at construction; grossly unnormalized input is rejected rather than
    silently fixed.
    """

    __slots__ = ("masses", "log_masses")

    def __init__(self, masses) -> None:
        arr = np.array(masses, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a nonempty 1-D sequence of masses")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("masses must be finite and nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_WINDOW:
            raise ValueError(
                f"masses sum to {total!r}; expected 1 within {_SUM_WINDOW}"
            )
        arr /= total
        self.masses, self.log_masses = _with_logs(arr)

    #: each symbol is one outcome (a TypeLaw's symbols stand for several)
    multiplicity = None

    def _normalize(self, raw: np.ndarray) -> "Pmf":
        """Take raw / (the correctly rounded sum of raw, each symbol counted
        multiplicity times) as the masses, with no checks; return self."""
        raw /= grouped_fsum(raw, self.multiplicity)
        self.masses, self.log_masses = _with_logs(raw)
        return self

    @property
    def size(self) -> int:
        return int(self.masses.size)

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.masses > 0.0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.masses.tolist()!r})"


class MarkovSource:
    """A time-invariant Markov chain: initial distribution + row-stochastic
    transition matrix over one shared state alphabet.  `log_transitions`
    holds log2 of the transitions, -inf at a zero one; both are read-only."""

    __slots__ = ("initial", "transitions", "log_transitions")

    def __init__(self, initial: Pmf, transitions) -> None:
        mat = np.array(transitions, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("transition matrix must be square")
        if mat.shape[0] != initial.size:
            raise ValueError("initial distribution and transition matrix "
                             "must share one state alphabet")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0.0):
            raise ValueError("transition probabilities must be finite and nonnegative")
        sums = mat.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > _SUM_WINDOW)
        if bad.size:
            raise ValueError(f"transition row {bad[0]} sums to {float(sums[bad[0]])!r}")
        mat /= sums[:, None]
        self.initial = initial
        self.transitions, self.log_transitions = _with_logs(mat)


def _check_cap(base: int, n: int, cap: int) -> None:
    """Refuse a block length below 1, or base^n tuples over the cap."""
    if n < 1:
        raise ValueError("block length must be positive")
    # base^n is only built below 2^(bits of cap): past that it is over the
    # cap anyway, and at n = 10^9 its bits alone take 125 MB
    if base > 1 and n >= cap.bit_length() or base ** n > cap:
        raise CapExceededError(f"enumeration of {base}^{n} tuples exceeds cap {cap}")


def _log2_power_sum(p, a: float, q, b: float) -> float:
    """log2 sum P^a Q^b over the symbols where both p and q are positive,
    each weighted by p's multiplicity: the one power sum behind the Renyi
    entropy (q = p, b = 0) and both divergences of taskcodes.mismatch."""
    both = (p.masses > 0.0) & (q.masses > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return log2sumexp(a * p.log_masses[both] + b * q.log_masses[both],
                          None if p.multiplicity is None else p.multiplicity[both])


def renyi_entropy(dist, alpha: float) -> float:
    """Renyi entropy of order alpha in bits: (1/(1-alpha)) * log2 sum p^alpha.

    Accepts a Pmf, or a TypeLaw, whose sum weights each type by its
    multiplicity.  An order so large that the sum leaves the float range
    raises OverflowError; a term that alone overflows to -inf is left out.
    """
    _check_alpha(alpha)
    return _renyi(_log2_power_sum(dist, alpha, dist, 0.0), alpha)


def _renyi(log_sum: float, alpha: float, at: str = "") -> float:
    """log_sum / (1 - alpha), the Renyi value of log2 of a power sum."""
    h = log_sum / (1.0 - alpha)
    if not math.isfinite(h):
        raise OverflowError(f"the Renyi sum of order {alpha!r}{at} leaves the float range")
    return h


def renyi_rho(dist, rho: float) -> float:
    """Renyi entropy of order 1/(1+rho), the order governing the rho-th
    moment of the number of performed tasks."""
    return renyi_entropy(dist, _rho_order(rho))


def iid_joint(p: Pmf, n: int, cap: int = DEFAULT_TUPLE_CAP) -> Pmf:
    """The n-fold product law of p, a Pmf over k^n symbols (k = p.size):
    tuple (x1, ..., xn) is symbol x1*k^(n-1) + ... + xn.

    Each tuple gets the canonical log-mass of its type (see the module
    docstring), taken from its sorted letters, and the masses are divided by
    their correctly rounded total: the enumerated form of TypeLaw.  Tuples
    are handled in blocks, so no k^n x n array is held."""
    _check_cap(p.size, n, cap)
    k = p.size
    if k == 1:
        return p  # the point mass, at any n
    # tuples go in blocks of k^r: inside one the first n - r letters are
    # fixed and the last r run through the same pattern
    r = 1
    while r < n and k ** (r + 1) * n <= _CHUNK:
        r += 1
    letters = np.empty((k ** r, n), dtype=np.min_scalar_type(k - 1))
    letters[:, n - r:] = _digits(np.arange(k ** r), k, r)
    acc = np.empty(k ** n)
    for block in range(k ** (n - r)):
        letters[:, :n - r] = _digits(np.array([block]), k, n - r)
        run_sorted = np.sort(letters, axis=1)
        # count * log2 p_a at the end of each run of equal letters
        sums = np.zeros(len(letters))
        run = np.zeros(len(letters))
        for i in range(n):
            run += 1.0
            terms = run * p.log_masses[run_sorted[:, i]]
            if i + 1 < n:
                ends = run_sorted[:, i] != run_sorted[:, i + 1]
                sums += np.where(ends, terms, 0.0)
                run[ends] = 0.0
            else:
                sums += terms
        acc[block * len(letters):(block + 1) * len(letters)] = sums
    return Pmf.__new__(Pmf)._normalize(np.exp2(acc, out=acc))


def _digits(values: np.ndarray, k: int, width: int) -> np.ndarray:
    """The base-k digits of each value, most significant first, as rows."""
    return values[:, None] // k ** np.arange(width - 1, -1, -1) % k


class IidTypes:
    """The types of n letters over the alphabet 0..k-1: the count vectors
    that n-tuples can have, C(n+k-1, k-1) of them.

    Row t of the T x D arrays `letters` and `counts`, D = min(k, n), holds
    type t's (letter, count) pairs of positive count in increasing letter
    order, then pads of count 0 and letter 0; rows come in order of their
    number of pairs, and no T x k array is ever built.  `multiplicity[t]`
    is the exact number of tuples of type t, n!/prod(counts!), computed once
    per composition of n (it does not depend on which letters carry the
    counts): int64 while k^n, their sum and the largest int any caller
    forms, stays below 2^63, Python ints (an object array) past it.
    """

    __slots__ = ("k", "n", "letters", "counts", "multiplicity")

    def __init__(self, k: int, n: int) -> None:
        if k < 1 or n < 1:
            raise ValueError("need a nonempty alphabet and a positive block length")
        self.k, self.n = k, n
        small = n * (k - 1).bit_length() < 63  # k^n < 2^63
        width = min(k, n)
        try:  # numpy refuses a table past memory or past its largest dimension
            self.letters = np.zeros((math.comb(n + k - 1, k - 1), width),
                                    np.min_scalar_type(k - 1))
            self.counts = np.zeros(self.letters.shape, np.min_scalar_type(n))
        except (MemoryError, ValueError) as exc:
            raise CapExceededError(f"the types of {k}^{n} tuples cannot be held: {exc}") from None
        mults = []
        for d in range(1, width + 1):
            chosen = _combinations(k, d)
            # n split into d positive parts at d-1 cuts among 1..n-1
            cuts = _combinations(n - 1, d - 1) + 1
            parts = np.diff(cuts, axis=1, prepend=0, append=n).astype(self.counts.dtype)
            start = sum(map(len, mults))  # each letter set with each split, from here on
            for table, fill in ((self.letters, chosen[:, None]), (self.counts, parts)):
                table[start:start + len(chosen) * len(parts)].reshape(
                    len(chosen), len(parts), width)[..., :d] = fill
            # n!/prod(c!) = prod_j C(c_1+...+c_j, c_j), the same for every letter set
            mult = [math.prod(map(math.comb, itertools.accumulate(c), c)) for c in parts.tolist()]
            mults.append(np.tile(np.array(mult, dtype=np.int64 if small else object), len(chosen)))
        self.multiplicity = np.concatenate(mults)
        for arr in (self.letters, self.counts, self.multiplicity):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        """The number of tuples, k^n."""
        return self.k ** self.n

    def __len__(self) -> int:
        return int(self.multiplicity.size)

    def log_masses(self, p: Pmf) -> np.ndarray:
        """The canonical log-mass of each type under the letter law p,
        before normalization."""
        if p.size != self.k:
            raise AlphabetMismatchError(f"alphabet sizes differ: {p.size} vs {self.k}")
        acc = np.zeros(len(self))
        # a pad's 0 * log2 p_0 is nan where p_0 = 0; `where` leaves it out
        with np.errstate(invalid="ignore"):
            for a, c in zip(self.letters.T, self.counts.T):
                np.add(acc, c * p.log_masses[a], out=acc, where=c > 0)
        return acc

    def first_counts(self, members: np.ndarray, s: int) -> np.ndarray:
        """How many of the first s tuples, in index order, of the union of
        the classes of the types `members` (0 <= s <= its size) fall in each.

        The walk, in Python ints, fixes the tuple's letters one position at
        a time.  With a prefix fixed and `left` letters to go, a live type
        whose remaining counts are r has ways = multinomial(r) completions,
        of which ways * r_a / left start with letter a.  Each letter keeps
        its holders as [type, remaining count] entries.  At each position
        the walk goes over the letters in increasing order and drops the
        holders that are dead or have used the letter up; while the rest's
        completions through the letter fit in s, each takes its share and s
        shrinks by their sum.  The first letter that does not fit joins the
        prefix, and its holders are the live types.  Once one type is live
        the rest of s is its; s equal to the union's size takes every tuple
        at once."""
        members = np.asarray(members, dtype=np.intp)
        completions = self.multiplicity[members]
        if s == completions.sum():
            return completions
        holders = {}
        rows = zip(self.letters[members].tolist(), self.counts[members].tolist())
        for i, (letters, counts) in enumerate(rows):
            for a, c in itertools.compress(zip(letters, counts), counts):
                holders.setdefault(a, []).append([i, c])
        holders = dict(sorted(holders.items()))
        ways, taken = dict(enumerate(completions.tolist())), [0] * members.size
        for left in range(self.n, 0, -1):
            if len(ways) == 1 or s == 0:
                break
            for a, held in holders.items():
                holders[a] = held = [e for e in held if e[1] and e[0] in ways]
                lots = [ways[i] * c for i, c in held]  # left * completions via a
                if s * left < sum(lots):
                    break
                for (i, _), lot in zip(held, lots):
                    taken[i] += lot // left
                s -= sum(lots) // left
            ways = {i: lot // left for (i, _), lot in zip(held, lots)}
            for e in held:
                e[1] -= 1
        taken[next(iter(ways))] += s
        return np.array(taken, dtype=completions.dtype)


def _combinations(m: int, d: int) -> np.ndarray:
    """All increasing d-tuples from range(m), as rows in lexicographic
    order."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(d):
        low = rows[:, -1] + 1 if rows.shape[1] else np.zeros(len(rows), np.intp)
        fan = np.maximum(m - low, 0)
        parent = np.repeat(np.arange(len(rows)), fan)
        nxt = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan) + low[parent]
        rows = np.column_stack((rows[parent], nxt))
    return rows


class TypeLaw(Pmf):
    """The law of n i.i.d. letters of a Pmf held on the classes of an
    IidTypes: a Pmf whose symbols are types.  `masses[t]` and
    `log_masses[t]` are the mass of each tuple of type t, as iid_joint gives
    it, and `multiplicity` counts those tuples.  `size` is k^n, the number
    of tuples; sums over the law weight each type by its multiplicity
    (grouped_fsum)."""

    __slots__ = ("types",)

    def __init__(self, p: Pmf, types: IidTypes) -> None:
        self.types = types
        self._normalize(np.exp2(types.log_masses(p)))

    @property
    def multiplicity(self) -> np.ndarray:
        return self.types.multiplicity

    @property
    def size(self) -> int:
        return self.types.size

    @property
    def support(self):  # its indices would be types, while `size` counts tuples
        _per_tuple(self, "support")


def markov_joint(src: MarkovSource, n: int, cap: int = DEFAULT_TUPLE_CAP) -> Pmf:
    """The joint law of the first n states of a Markov chain, a Pmf in the
    tuple order of iid_joint."""
    base = src.initial.size
    _check_cap(base, n, cap)
    if base == 1:
        return src.initial  # the point mass, at any n
    acc = _markov_log_masses(src, n)
    return Pmf(np.exp2(acc, out=acc))


def _markov_log_masses(src: MarkovSource, n: int) -> np.ndarray:
    """log2 of the mass of each n-tuple of states, before normalization."""
    acc = src.initial.log_masses.copy()
    for _ in range(n - 1):
        last = np.arange(acc.size) % src.initial.size
        acc = (acc[:, None] + src.log_transitions[last, :]).ravel()
    return acc


def markov_renyi_sums(src: MarkovSource, alpha: float, ns) -> list[float]:
    """H_alpha(X^n) for a Markov chain at each n of ns, a positive and
    nondecreasing sequence, from one pass of the O(n * states^2) vector
    recursion v1(x) = initial(x)^alpha, v_{k+1}(x') = sum_x v_k(x) T(x,x')^alpha
    up to the last n: log2 sum v_n from _linear_sums where it is certified,
    else _log_domain_sums' (restarted at n = 1), lazily, as a sum past the
    float range stops it; each depends on (src, alpha, n)."""
    _check_alpha(alpha)
    if any(n < m for m, n in zip(itertools.chain([1], ns), ns)):
        raise ValueError("block lengths must be positive and nondecreasing")
    with np.errstate(over="ignore"):  # a huge order overflows terms to -inf
        first, step = alpha * src.initial.log_masses, alpha * src.log_transitions
    out = list(itertools.zip_longest(ns, _linear_sums(first, step, ns)))
    logs = _log_domain_sums(first, step, [n for n, s in out if s is None])
    return [_renyi(next(logs) if s is None else s, alpha, f" at n = {n}") for n, s in out]


def _scaled(logs: np.ndarray) -> tuple[float, float, np.ndarray] | None:
    """(top, spread, exp2(logs - top)), top and top - spread the largest and
    least finite entries, or None where spread > 300: an entry below the
    float range would be 0 and could overtake the others at large n."""
    finite = logs[np.isfinite(logs)]
    if not finite.size or finite.min() < finite.max() - 300:
        return None
    top = float(finite.max())
    return top, top - float(finite.min()), np.exp2(logs - top)


def _linear_sums(first: np.ndarray, step: np.ndarray, ns):
    """Yield log2 sum v_n at each n of ns (v1 = 2^first, v_{k+1} = v_k 2^step),
    None where it is not certified, until a step is not or a sum is not finite.

    The weights w, sum v_n = 2^(start + (n-1) top + exponent) sum w, start
    at exp2(first - start) and step to w A, A = exp2(step - top), summed in
    increasing x (einsum: BLAS picks its order by CPU); an exact power of
    two rescales w when its top leaves [2^-301, 2^300).  With every
    positive weight within 2^-300 of the largest, a product w(x) A(x,x') is
    0 or a float of at least 2^-901, which rounds relatively and keeps
    every term the log domain keeps.  A value is certified when a
    first-order bound on its rounding is below 2^-40 of it, which fails
    where rounding decides the sum (a nearly deterministic chain, an order
    next to 1)."""
    first, step = _scaled(first), _scaled(step)
    if first is None or step is None:
        return
    (start, spread0, w), (top, spread, a) = first, step
    exponent, k = 0, 1
    for n in ns:
        for _ in range(n - k):
            w = np.einsum("i,ij->j", w, a)
            most = np.maximum.reduce(w)
            if np.count_nonzero(w >= math.ldexp(most, -300)) != np.count_nonzero(w):
                return
            shift = math.frexp(most)[1]
            if abs(shift) > 300:
                w *= 2.0 ** -shift
                exponent += shift
        k = n
        if not math.isfinite(start + (n - 1) * top):  # else fsum could overflow
            return
        log_sum = math.log2(math.fsum(w.tolist()))
        total = math.fsum((start, (n - 1) * top, exponent, log_sum))
        # in units of 2^-53: 2 ulp of exp2 and spread units of its argument
        # per entry of w1 and A, w.size per step's sums, 1 for fsum(w),
        # 1/ln 2 < 1.5 into log2, and one rounding of each other term
        err = (1.5 * (5 + spread0 + (n - 1) * (4 + spread + w.size)) + 2 * abs(log_sum)
               + abs((n - 1) * top) + abs(total))
        yield total if err * 2.0 ** -53 <= abs(total) * 2.0 ** -40 else None


def _log_domain_sums(first: np.ndarray, step: np.ndarray, ns):
    """_linear_sums' log2 sum v_n in the log domain, one _log2sumexp_rows call
    a step (row x' of step_t + lv holds log2 of the terms v_k(x) 2^step(x,x'));
    -inf where every term left the float range."""
    lv, step_t, k = first, np.ascontiguousarray(step.T), 1
    for n in ns:
        with np.errstate(over="ignore"):  # lv + step_t can pass -1.8e308
            for _ in range(n - k):
                lv = _log2sumexp_rows(step_t + lv)
        k = n
        yield log2sumexp(lv)


def _nonnegative(value: float, alpha: float) -> float:
    """A divergence, read as 0 when rounding left it in (-1e-12, 0).  No
    divergence is nan or negative, so a value below that means the sums of
    order alpha left the float range: OverflowError."""
    if not value >= -1e-12:
        raise OverflowError(f"the divergence of order {alpha!r} leaves the float range")
    return 0.0 if -1e-12 < value < 0.0 else value


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence D(p||q) in bits; +inf when supp(p) is not
    contained in supp(q).  Accepts two Pmfs, or two TypeLaws on the same
    types, whose sum weights each type by its multiplicity."""
    _check_alphabets(p, q)
    if _escapes(p, q):
        return math.inf
    supp = p.masses > 0.0
    pm = p.masses[supp]
    with np.errstate(over="ignore"):
        logs = np.log2(pm / q.masses[supp])
    far = logs == math.inf  # P/Q past the float range: log2 P - log2 Q instead
    logs[far] = p.log_masses[supp][far] - q.log_masses[supp][far]
    counts = None if p.multiplicity is None else p.multiplicity[supp]
    return _nonnegative(grouped_fsum(pm * logs, counts), 1.0)


def _data_lines(text: str):
    """Yield (line number, stripped line) for each line of text that is
    neither blank nor a '#' comment; line numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse(rows, parse, problem: str | None = None) -> list:
    """parse(line) for each (line number, line) of rows.  Its ValueError is
    raised again as 'line N: ' and problem, with the line's repr at {!r}, or
    parse's own message when problem is None."""
    out = []
    for lineno, line in rows:
        try:
            out.append(parse(line))
        except ValueError as exc:
            why = exc if problem is None else problem.format(line)
            raise ValueError(f"line {lineno}: {why}") from None
    return out


def read_pmf_text(text: str) -> Pmf:
    """Parse a PMF from plain text: one probability per line, blank lines
    and '#' comments skipped; a malformed line raises ValueError naming it."""
    masses = _parse(_data_lines(text), float, "not a probability: {!r}")
    if not masses:
        raise ValueError("no probabilities found")
    return Pmf(masses)


def read_markov_text(text: str) -> MarkovSource:
    """Parse a Markov source: first line = state count, then the initial
    row, then one transition row per state, whitespace-separated."""
    rows = list(_data_lines(text))
    if not rows:
        raise ValueError("empty Markov source file")
    [k] = _parse(rows[:1], int, "state count must be an integer")
    if k < 1:
        raise ValueError(f"line {rows[0][0]}: state count must be positive")
    if len(rows) != k + 2:
        raise ValueError(f"expected {k + 2} data lines for {k} states, got {len(rows)}")

    def parse_row(line: str) -> list[float]:
        parts = line.split()
        if len(parts) != k:
            raise ValueError(f"expected {k} entries, got {len(parts)}")
        try:
            return [float(v) for v in parts]
        except ValueError:
            raise ValueError("malformed number") from None

    # Pmf checks the initial row before the transition rows are read
    return MarkovSource(Pmf(*_parse(rows[1:2], parse_row)), _parse(rows[2:], parse_row))
