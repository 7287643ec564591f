"""Partitions of finite sets under per-element cardinality budgets.

A partition of {0, ..., k-1} into M nonempty blocks satisfies the exact
counting identity sum_x 1/L(x) = M, where L(x) is the size of the block
containing x.  The converse fails: a budget map lambda with
sum_x 1/lambda(x) = mu does not guarantee a partition into ceil(mu) blocks,
but a greedy sweep always fits within
min_{a>1} floor(a*mu + log_a(k) + 2) blocks while keeping every block that
contains x no larger than min(lambda(x), k).

This module owns that sweep: greedy_blocks walks it and returns its
blocks run-length coded, as (count, size) pairs in sweep order;
build_partition labels the elements from those pairs, and the type
classes of coding read their block sizes from them.
"""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import GroundSetMismatchError
from .probability import _data_lines, _parse

Budget = int | float  # positive int, or math.inf


class Partition:
    """An exact partition of {0, ..., k-1} into nonempty blocks.

    Stored as two read-only int arrays: `labels[x]` is the index of the
    block holding x, with blocks numbered in the order they were given (the
    greedy constructor relies on it), and `sizes[b]` is the cardinality of
    block b, so `sizes[labels[x]]` is L(x), the cardinality of the block
    holding x.  `blocks` and `to_text()` are views built on demand from
    these arrays.  Equality ignores block order.
    """

    __slots__ = ("labels", "sizes")

    def __init__(self, blocks) -> None:
        cleaned = [sorted(block) for block in blocks]
        if not all(cleaned):
            raise ValueError("empty block")
        flat = [x for items in cleaned for x in items]
        if len(set(flat)) < len(flat):
            seen = set()
            for x in flat:
                if x in seen:
                    raise ValueError(f"element {x} appears in more than one block")
                seen.add(x)
        # distinct ids with min 0 and max k-1 are exactly 0..k-1; the ids come
        # from files, so no array as long as their range is ever allocated
        elems = np.array(flat)
        if (elems.dtype.kind not in "iu"  # no blocks, or not all ints
                or elems.min() != 0 or elems.max() != elems.size - 1):
            raise ValueError("blocks must cover a dense range 0..k-1")
        labels = np.empty(elems.size, dtype=np.intp)
        labels[elems] = np.repeat(np.arange(len(cleaned)), [len(b) for b in cleaned])
        self._set_labels(labels)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """The partition whose block labels[x] holds x; the block indices in
        use must be exactly 0..N-1.  An intp array is kept without a copy
        and becomes read-only."""
        part = cls.__new__(cls)
        part._set_labels(np.asarray(labels, dtype=np.intp))
        return part

    def _set_labels(self, labels: np.ndarray) -> None:
        if labels.ndim != 1 or labels.size == 0 or labels.min() < 0:
            raise ValueError("blocks must cover a dense range 0..k-1")
        if labels.max() >= labels.size:  # more block indices than elements
            raise ValueError("empty block")
        sizes = np.bincount(labels)
        if sizes.min() == 0:
            raise ValueError("empty block")
        labels.flags.writeable = False
        sizes.flags.writeable = False
        self.labels = labels
        self.sizes = sizes

    @property
    def ground_size(self) -> int:
        return int(self.labels.size)

    @property
    def num_blocks(self) -> int:
        return int(self.sizes.size)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks in their given order, each as a sorted tuple."""
        # labels in the smallest dtype make the stable sort a radix sort
        small = self.labels.astype(np.min_scalar_type(self.num_blocks - 1))
        members = np.argsort(small, kind="stable").tolist()
        bounds = [0, *itertools.accumulate(self.sizes.tolist())]
        return tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return set(map(frozenset, self.blocks)) == set(map(frozenset, other.blocks))

    def __hash__(self) -> int:
        return hash(frozenset(map(frozenset, self.blocks)))

    def __repr__(self) -> str:
        return f"Partition({[list(b) for b in self.blocks]!r})"

    def to_text(self) -> str:
        """One line per block, space-separated ids, blocks ordered by their
        smallest element."""
        ordered = sorted(self.blocks, key=lambda b: b[0])
        return "\n".join(" ".join(str(x) for x in block) for block in ordered) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        return cls(_parse(_data_lines(text), lambda line: [int(v) for v in line.split()],
                          "malformed block"))


def _clean_budget(b) -> Budget:
    if b == math.inf:
        return math.inf
    ib = int(b)
    if ib != b or ib < 1:
        raise ValueError(f"budget must be a positive integer or inf, got {b!r}")
    return ib


class LambdaBudget:
    """Cardinality budgets lambda: X -> {1, 2, ...} union {inf}.

    Stored as `values`, the distinct budgets in increasing order (ints, then
    inf), and `codes`, a read-only unsigned int array with
    lambda(x) = values[codes[x]].  Codes order elements as their budgets do,
    and they fit the smallest unsigned dtype, so a stable sort by code is a
    cheap stable sort by budget.  `budgets` is a tuple view built on demand.

    mu = sum_x 1/lambda(x) is kept as an exact rational (1/inf = 0) so the
    floor in the subset-count bound never sits on a float boundary.
    """

    __slots__ = ("values", "codes")

    def __init__(self, budgets, index=None) -> None:
        """The budget map x -> budgets[x], or with `index`, an int array,
        x -> budgets[index[x]]: budgets given once per distinct key (say, per
        distinct mass) and each element mapped to its key."""
        cleaned = [_clean_budget(b) for b in budgets]
        if not cleaned:
            raise ValueError("need at least one budget")
        values = sorted(set(cleaned))
        rank = {v: i for i, v in enumerate(values)}
        codes = np.array([rank[b] for b in cleaned],
                         dtype=np.min_scalar_type(len(values) - 1))
        if index is not None:
            codes = codes[np.asarray(index)]
        codes.flags.writeable = False
        self.values = tuple(values)
        self.codes = codes

    @property
    def budgets(self) -> tuple[Budget, ...]:
        return tuple(map(self.values.__getitem__, self.codes.tolist()))

    @property
    def size(self) -> int:
        return int(self.codes.size)

    @property
    def mu(self) -> Fraction:
        """sum_x 1/lambda(x) as an exact rational."""
        counts = np.bincount(self.codes, minlength=len(self.values)).tolist()
        return sum((Fraction(c, b) for b, c in zip(self.values, counts)
                    if b != math.inf), Fraction(0))

    @classmethod
    def from_text(cls, text: str) -> "LambdaBudget":
        """One budget per line: an integer, or inf/infinity in any case."""
        return cls(_parse(_data_lines(text), lambda line: math.inf
                          if line.lower() in ("inf", "infinity") else int(line),
                          "bad budget {!r}"))

    def __repr__(self) -> str:
        return f"LambdaBudget({list(self.budgets)!r})"


def kraft_sum(part: Partition) -> Fraction:
    """sum_x 1/L(x) as an exact rational; always equals the block count."""
    counts = np.bincount(part.sizes)  # blocks per block size
    sizes = np.flatnonzero(counts)
    # the s * c elements in the c blocks of size s add s * c / s
    return sum((Fraction(s * c, s)
                for s, c in zip(sizes.tolist(), counts[sizes].tolist())), Fraction(0))


_GRID_POINTS = 512


def _ziv_floor(evaluate, precision) -> int:
    """floor(v) exactly, by Ziv's strategy: at pass i = 0, 1, ..., evaluate()
    runs in decimal at precision(i) digits and returns an approximation of v
    and its error bound in units of 10^(1-digits); the first pass that puts
    the approximation farther than the bound from every integer decides."""
    for prec in map(precision, itertools.count()):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            ctx.Emax = decimal.MAX_EMAX
            near, units = evaluate()
            err = units * decimal.Decimal(10) ** (1 - prec)
            floor = math.floor(near)
            if floor + err < near < floor + 1 - err:
                return floor


def _floor_plus_log(x: Fraction, k: int, a: float) -> int:
    """floor(x + log_a k) exactly, for a rational x and a float a > 1.

    log_a k = p/q is rational only at k = 1 or for an integer a with
    a^p == k^q (so q <= log2 a), and then the sum is exact.  Otherwise
    _ziv_floor decides it at 40, 80, 160, ... digits, with an error bound of
    3 relative units on log_a k (two logarithms and a division) and 2 on the
    sum.
    """
    if k == 1 or a.is_integer():
        log = Fraction(math.log(k) / math.log(a)).limit_denominator(int(a).bit_length())
        if int(a) ** log.numerator == k ** log.denominator:
            return math.floor(x + log)

    def evaluate():
        log = decimal.Decimal(k).ln() / decimal.Decimal(a).ln()
        near = decimal.Decimal(x.numerator) / x.denominator + log
        return near, 3 * log + 2 * abs(near)
    return _ziv_floor(evaluate, lambda i: 40 << i)


def subset_count_bound_detail(mu, alphabet_size: int) -> tuple[int, float]:
    """Minimize floor(a*mu + log_a(k) + 2) over a > 1 on a geometric grid.

    Returns (bound, argmin alpha).  The grid covers (1, max(4, k)] and always
    includes a = 2, the value used by the single-shot encoder analysis.  Any
    grid point yields a valid upper bound, so grid search is safe even though
    the expression is not proven unimodal.

    Each floor is exact for the float grid point a and the exact mu: the
    float sum decides it unless it lies within 2^-48 of itself (a bound on
    the rounding of its nonnegative terms) from an integer.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet size must be positive")
    mu = Fraction(mu)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    mu_f = float(mu)
    log_k = math.log(alphabet_size)
    hi = float(max(4, alphabet_size))
    alphas = [hi ** (i / _GRID_POINTS) for i in range(1, _GRID_POINTS + 1)]
    alphas.append(2.0)
    best = None
    best_alpha = 2.0
    for a in alphas:
        near = a * mu_f + log_k / math.log(a) + 2.0
        err = near * 2.0 ** -48
        val = math.floor(near - err)
        if val != math.floor(near + err):
            val = _floor_plus_log(Fraction(a) * mu + 2, alphabet_size, a)
        if best is None or val < best:
            best, best_alpha = val, a
    return best, best_alpha


def subset_count_bound(mu, alphabet_size: int) -> int:
    """The minimized floor(a*mu + log_a(k) + 2); see subset_count_bound_detail."""
    return subset_count_bound_detail(mu, alphabet_size)[0]


def greedy_blocks(values, counts, size: int) -> list[tuple[int, int]]:
    """The blocks of build_partition's greedy sweep, in sweep order, run-length
    coded: pairs (r, s) of r > 0 blocks of s elements each, neighbours of
    different s, so N is the sum of the r.

    values[i] is the budget of run i and counts[i] its element count, runs
    in increasing budget order; size is the ground-set size k.  Runs with a
    budget >= k form the absorbing block, which comes last; the others are
    swept, each new block taking b elements, the budget of its first
    element, except the last, which stops at the end of the sweep.
    """
    swept = sum(c for b, c in zip(values, counts) if b < size)
    pairs = []
    end = head = 0  # head: the first position no block holds yet
    for b, count in zip(values, counts):
        end += count
        if b < size and head < end:
            heads = -(-(end - head) // b)
            last = head + (heads - 1) * b
            head = last + b
            pairs += [(heads - 1, b), (1, min(b, swept - last))]
    pairs.append((int(swept < size), size - swept))
    blocks = []  # merged, so a stretch ends only where the block size changes
    for r, s in pairs:
        if blocks and blocks[-1][1] == s:
            r += blocks.pop()[0]
        if r:
            blocks.append((r, s))
    return blocks


def build_partition(budget: LambdaBudget) -> Partition:
    """Greedy budget-respecting partition.

    Elements with lambda(x) >= k form one absorbing block, block 0; the rest
    are swept in order of increasing (lambda(x), x), each new block taking
    lambda(head) elements (or all that remain).  The result satisfies
    L(x) <= min(lambda(x), k) and uses at most subset_count_bound(mu, k)
    blocks.  The blocks, in sweep order, are greedy_blocks'.
    """
    size = budget.codes.size
    order = np.argsort(budget.codes, kind="stable")  # the (lambda(x), x) order
    blocks = greedy_blocks(budget.values, np.bincount(budget.codes).tolist(), size)
    reps, sizes = np.array(blocks).T
    used = int(reps.sum())
    absorbed = int(budget.values[budget.codes.max()] >= size)  # sweep-last, block 0
    labels = np.empty(size, dtype=np.intp)
    labels[order] = np.repeat((np.arange(used) + absorbed) % used, np.repeat(sizes, reps))
    return Partition.from_labels(labels)


def verify_budget(part: Partition, budget: LambdaBudget) -> int | None:
    """The first element x whose block is larger than min(lambda(x), k), or
    None when every element keeps to its budget."""
    if part.ground_size != budget.size:
        raise GroundSetMismatchError(
            f"partition covers {part.ground_size} elements, budget has {budget.size}"
        )
    k = part.ground_size
    limits = np.array([min(b, k) for b in budget.values])[budget.codes]
    over = np.flatnonzero(part.sizes[part.labels] > limits)
    return int(over[0]) if over.size else None
