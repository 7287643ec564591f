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
from __future__ import annotations

import bisect
import itertools
import math
import operator

import numpy as np

from .errors import AlphabetMismatchError, CapExceededError, InvalidOrderError

#: Default ceiling on the number of tuples any enumeration may produce.
DEFAULT_TUPLE_CAP = 1 << 22

# iid_joint sorts tuple letters in blocks of at most about this many
_CHUNK = 1 << 20

# as_floats converts this many array entries to Python floats at a time
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


def as_floats(values: np.ndarray):
    """The entries of a 1-D float array as Python floats, converted a slice
    at a time, so no list of them all is ever held."""
    return itertools.chain.from_iterable(
        values[i:i + _SLICE].tolist() for i in range(0, values.size, _SLICE))


def grouped_fsum(values: np.ndarray, counts=None) -> float:
    """The correctly rounded sum of counts[i] copies of values[i], equal to
    math.fsum over the expanded terms (counts=None: one copy each).

    Counts are nonnegative ints (an int array, or an object array of Python
    ints).  With counts below 2^26 the values are scaled by a power of two
    into [2^-969, 2^995], where each count * value splits into two exact
    float products that fsum adds, and the sum is scaled back; a sum that
    lands below the normal range then, or larger counts, are added as
    exact integers instead.
    """
    values = np.asarray(values, dtype=float)
    if counts is None:
        return math.fsum(as_floats(values))
    if not np.isfinite(values).all():
        return math.fsum(as_floats(values))  # an inf or nan decides the sum
    # the least and the largest magnitude of a nonzero value
    least = min(np.min(values, where=values > 0.0, initial=math.inf),
                -np.max(values, where=values < 0.0, initial=-math.inf))
    most = max(np.max(values, initial=0.0), -np.min(values, initial=0.0))
    shift = max(0, -968 - math.frexp(least)[1]) if least < math.inf else 0
    if (counts.dtype != object and counts.max(initial=0) < 1 << 26
            and most <= 2.0 ** (995 - shift)):
        split = (counts & (counts - 1)).any()  # else powers of two: c * v is exact

        def products():
            for i in range(0, values.size, _SLICE):
                scaled = np.ldexp(values[i:i + _SLICE], shift)
                c = counts[i:i + _SLICE].astype(float)
                if split:
                    high = scaled * _SPLIT
                    high -= high - scaled
                    yield (c * high).tolist()
                    scaled -= high
                yield (c * scaled).tolist()

        total = math.ldexp(math.fsum(itertools.chain.from_iterable(products())), -shift)
        if shift == 0 or abs(total) >= 2.0 ** -1022:
            return total
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


def renyi_entropy(dist, alpha: float) -> float:
    """Renyi entropy of order alpha in bits: (1/(1-alpha)) * log2 sum p^alpha.

    Accepts a Pmf, or a TypeLaw, whose sum weights each type by its
    multiplicity.  An order so large that the sum leaves the float range
    raises OverflowError; a term that alone overflows to -inf is left out.
    """
    _check_alpha(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        h = log2sumexp(alpha * dist.log_masses, dist.multiplicity) / (1.0 - alpha)
    if not math.isfinite(h):
        raise OverflowError(f"the Renyi sum of order {alpha!r} leaves the float range")
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

    A type is held sparsely, as its (letter, count) pairs with positive
    count in increasing letter order: `letters` and `counts` hold the pairs
    of every type back to back.  Types come grouped by their number d of
    distinct letters, `groups[d-1]` of them, so the types with d letters
    form one T_d x d block of the entry arrays (`entries` finds a type's
    pairs); no T x k array is ever built.  `multiplicity[t]` is the exact
    number of tuples of type t, n!/prod(counts!), computed once per
    composition of n (it does not depend on which letters carry the counts):
    int64 while k^n, their sum and the largest int any caller forms, stays
    below 2^63, Python ints (an object array) past it.
    """

    __slots__ = ("k", "n", "letters", "counts", "groups", "multiplicity")

    def __init__(self, k: int, n: int) -> None:
        if k < 1 or n < 1:
            raise ValueError("need a nonempty alphabet and a positive block length")
        self.k, self.n = k, n
        small = n * (k - 1).bit_length() < 63  # k^n < 2^63
        letters, counts, mults = [], [], []
        for d in range(1, min(k, n) + 1):
            chosen = _combinations(k, d).astype(np.min_scalar_type(k - 1))
            # n split into d positive parts at d-1 cuts among 1..n-1
            cuts = _combinations(n - 1, d - 1) + 1
            parts = np.diff(cuts, axis=1, prepend=0, append=n).astype(np.min_scalar_type(n))
            letters.append(np.repeat(chosen, len(parts), axis=0).ravel())
            counts.append(np.tile(parts, (len(chosen), 1)).ravel())
            # n!/prod(c!) = prod_j C(c_1+...+c_j, c_j), the same for every letter set
            mult = [math.prod(map(math.comb, itertools.accumulate(c), c)) for c in parts.tolist()]
            mults.append(np.tile(np.array(mult, dtype=np.int64 if small else object), len(chosen)))
        self.letters, self.counts, self.multiplicity = map(np.concatenate, (letters, counts, mults))
        self.groups = tuple(m.size for m in mults)
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
        terms = self.counts * p.log_masses[self.letters]
        out = []
        start = 0
        for d, group in enumerate(self.groups, start=1):
            block = terms[start:start + d * group].reshape(group, d)
            start += d * group
            acc = block[:, 0].copy()
            for j in range(1, d):
                acc += block[:, j]
            out.append(acc)
        return np.concatenate(out)

    def entries(self, types: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first entry and the number d of entries of each of `types`."""
        first_type = np.cumsum((0,) + self.groups)
        first_entry = np.cumsum((0,) + tuple(d * g for d, g in enumerate(self.groups, 1)))
        group = np.searchsorted(first_type[1:], types, side="right")
        return first_entry[group] + (types - first_type[group]) * (group + 1), group + 1

    def first_counts(self, members: np.ndarray, s: int) -> np.ndarray:
        """How many of the first s tuples, in index order, of the union of
        the classes of the types `members` fall in each of those classes.

        The walk, in Python ints, fixes the tuple's letters one position at
        a time.  With a prefix fixed and `left` letters to go, a type whose
        remaining counts are r has ways = multinomial(r) completions, of
        which ways * r_a / left start with letter a.  At each position it
        goes over the (type, letter) pairs of the live types in letter order
        while their completions fit in s; the letter of the first that does
        not fit joins the prefix, and the types holding it stay live (the
        others get ways 0, and their pairs go once half the live types have
        left).  Past half the run it walks the last total - s tuples: the
        first ones with the letters read backwards."""
        members = np.asarray(members, dtype=np.intp)
        completions = self.multiplicity[members].copy()
        total = completions.sum()
        if s >= total:
            return completions
        if members.size == 1:  # the first s tuples of one class
            completions[0] = s
            return completions
        flip = 2 * s > total
        starts, widths = self.entries(members)
        owner = np.repeat(np.arange(members.size), widths)
        entry = np.arange(owner.size) + np.repeat(starts - np.cumsum(widths) + widths, widths)
        letter = self.k - 1 - self.letters[entry] if flip else self.letters[entry]
        by_letter = np.argsort(letter, kind="stable")
        owner, letter, count = (a[by_letter].tolist() for a in (owner, letter, self.counts[entry]))
        s, ways, taken = int(total - s) if flip else s, completions.tolist(), [0] * members.size
        live, packed = range(members.size), members.size
        for left in range(self.n, 0, -1):
            if s == 0:
                break
            # left * (the completions before each pair), up to the first pair past s
            below = list(itertools.takewhile((s * left).__ge__, itertools.accumulate(
                map(operator.mul, map(ways.__getitem__, owner), count), initial=0)))
            pick = letter[len(below) - 1]
            first = bisect.bisect_left(letter, pick, 0, len(below))
            stop = bisect.bisect_right(letter, pick, len(below) - 1)
            for i, c in zip(owner[:first], count[:first]):
                taken[i] += ways[i] * c // left
            s -= below[first] // left
            share = [ways[i] * c // left for i, c in zip(owner[first:stop], count[first:stop])]
            for i in live:
                ways[i] = 0
            for i, w in zip(owner[first:stop], share):
                ways[i] = w
            live = list(itertools.compress(owner[first:stop], share))
            count[first:stop] = [c - 1 for c in count[first:stop]]
            if 2 * len(live) <= packed:  # drop the pairs of the types that left
                keep = [ways[i] * c for i, c in zip(owner, count)]
                owner, letter, count = (list(itertools.compress(a, keep))
                                        for a in (owner, letter, count))
                packed = len(live)
        taken = np.array(taken, dtype=completions.dtype)
        return completions - taken if flip else taken


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
    acc = src.initial.log_masses.copy()
    for _ in range(n - 1):
        last = np.arange(acc.size) % base
        acc = (acc[:, None] + src.log_transitions[last, :]).ravel()
    return Pmf(np.exp2(acc, out=acc))


def markov_renyi_sums(src: MarkovSource, alpha: float, ns) -> list[float]:
    """H_alpha(X^n) for a Markov chain at each n of ns, a positive and
    nondecreasing sequence, from one pass of the O(n * states^2) vector
    recursion v1(x) = initial(x)^alpha, v_{k+1}(x') = sum_x v_k(x) T(x,x')^alpha
    up to the last n.

    Runs entirely in the log domain, so large n cannot underflow; a row that
    a huge order takes past the float range raises OverflowError.  Each time
    step is one _log2sumexp_rows call: row x' of step_t + lv holds log2 of
    the terms v_k(x) T(x,x')^alpha, a zero transition's as -inf, and only
    the finite terms are summed, as log2sumexp does for one state.
    """
    _check_alpha(alpha)
    out = []
    k = 1
    with np.errstate(over="ignore"):  # a huge order overflows terms to -inf
        lv = alpha * src.initial.log_masses
        step_t = np.ascontiguousarray((alpha * src.log_transitions).T)
        for n in ns:
            if n < k:
                raise ValueError("block lengths must be positive and nondecreasing")
            for _ in range(n - k):
                lv = _log2sumexp_rows(step_t + lv)
            k = n
            out.append(log2sumexp(lv) / (1.0 - alpha))
            if not math.isfinite(out[-1]):
                raise OverflowError(f"the Renyi sum of order {alpha!r} at n = {n} "
                                    "leaves the float range")
    return out


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence D(p||q) in bits; +inf when supp(p) is not
    contained in supp(q).  Accepts two Pmfs, or two TypeLaws on the same
    types, whose sum weights each type by its multiplicity."""
    _check_alphabets(p, q)
    if _escapes(p, q):
        return math.inf
    supp = p.masses > 0.0
    pm = p.masses[supp]
    qm = q.masses[supp]
    counts = None if p.multiplicity is None else p.multiplicity[supp]
    return grouped_fsum(pm * np.log2(pm / qm), counts)


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
