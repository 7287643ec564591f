"""Finite probability models and the entropy functionals built on them.

All logarithms are base 2 and all entropies are in bits.  Zero masses are
represented as -inf in the log domain.  The law of an n-tuple is a Pmf over
base^n symbols: its log-masses are summed letter by letter and only then
exponentiated, so a tuple's mass underflows to 0 only when it is below the
float range.  Divergences between two laws other than KL live in
taskcodes.mismatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlphabetMismatchError, CapExceededError, InvalidOrderError

#: Default ceiling on the number of tuples any enumeration may produce.
DEFAULT_TUPLE_CAP = 1 << 22

# Inputs whose total mass is further than this from 1 are rejected instead
# of silently rescaled.
_SUM_WINDOW = 1e-9


def log2sumexp(log_values: np.ndarray) -> float:
    """Return log2(sum(2**v for v in log_values)), stable for large spreads.

    Entries of -inf contribute nothing; an all--inf input returns -inf.
    """
    arr = np.asarray(log_values, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        arr = arr[finite]
    if arr.size == 0:
        return -math.inf
    top = float(arr.max())
    # one temporary the size of the input: a joint law's can be 32 MB
    terms = arr - top
    np.exp2(terms, out=terms)
    return top + math.log2(float(terms.sum()))


def _log2sumexp_rows(a: np.ndarray) -> np.ndarray:
    """log2sumexp of each row of a C-contiguous 2-D array of finite values
    and -inf, bit for bit.

    All rows go through one array step: numpy sums each contiguous row
    pairwise, as it sums the 1-D array inside log2sumexp, and the logarithm
    is math.log2 per row, because np.log2 can differ from it in the last
    bit.  A row holding -inf is then redone by log2sumexp, which drops those
    entries and so groups the pairwise sum differently; a row of -inf only
    passes through nan (-inf - -inf) first, so callers ignore 'invalid'.
    """
    top = np.fmax.reduce(a, axis=1)
    terms = a - top[:, None]
    np.exp2(terms, out=terms)
    out = top + list(map(math.log2, terms.sum(axis=1).tolist()))
    if a.min() == -math.inf:
        for j in np.flatnonzero(np.isneginf(a).any(axis=1)).tolist():
            out[j] = log2sumexp(a[j])
    return out


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
        with np.errstate(divide="ignore"):
            logs = np.log2(arr)
        arr.flags.writeable = False
        logs.flags.writeable = False
        self.masses = arr
        self.log_masses = logs

    @property
    def size(self) -> int:
        return int(self.masses.size)

    def __len__(self) -> int:
        return self.size

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.masses > 0.0)

    def __repr__(self) -> str:
        return f"Pmf({self.masses.tolist()!r})"


@dataclass(frozen=True)
class MarkovSource:
    """A time-invariant Markov chain: initial distribution + row-stochastic
    transition matrix over one shared state alphabet."""

    initial: Pmf
    transitions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.array(self.transitions, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("transition matrix must be square")
        if mat.shape[0] != self.initial.size:
            raise ValueError("initial distribution and transition matrix "
                             "must share one state alphabet")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0.0):
            raise ValueError("transition probabilities must be finite and nonnegative")
        sums = mat.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > _SUM_WINDOW)
        if bad.size:
            raise ValueError(f"transition row {bad[0]} sums to {sums[bad[0]]!r}")
        mat /= sums[:, None]
        mat.flags.writeable = False
        object.__setattr__(self, "transitions", mat)

    @property
    def num_states(self) -> int:
        return self.initial.size


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

    Accepts any object with a ``log_masses`` attribute, such as a Pmf.
    """
    _check_alpha(alpha)
    return log2sumexp(alpha * dist.log_masses) / (1.0 - alpha)


def renyi_rho(dist, rho: float) -> float:
    """Renyi entropy of order 1/(1+rho), the order governing the rho-th
    moment of the number of performed tasks."""
    return renyi_entropy(dist, _rho_order(rho))


def iid_joint(p: Pmf, n: int, cap: int = DEFAULT_TUPLE_CAP) -> Pmf:
    """The n-fold product law of p, a Pmf over k^n symbols (k = p.size):
    tuple (x1, ..., xn) is symbol x1*k^(n-1) + ... + xn."""
    _check_cap(p.size, n, cap)
    if p.size == 1:
        return p  # the point mass, at any n
    acc = p.log_masses.copy()
    for _ in range(n - 1):
        acc = (acc[:, None] + p.log_masses[None, :]).ravel()
    return Pmf(np.exp2(acc, out=acc))


def markov_joint(src: MarkovSource, n: int, cap: int = DEFAULT_TUPLE_CAP) -> Pmf:
    """The joint law of the first n states of a Markov chain, a Pmf in the
    tuple order of iid_joint."""
    base = src.num_states
    _check_cap(base, n, cap)
    if base == 1:
        return src.initial  # the point mass, at any n
    with np.errstate(divide="ignore"):
        log_t = np.log2(src.transitions)
    acc = src.initial.log_masses.copy()
    for _ in range(n - 1):
        last = np.arange(acc.size) % base
        acc = (acc[:, None] + log_t[last, :]).ravel()
    return Pmf(np.exp2(acc, out=acc))


def markov_renyi_sum(src: MarkovSource, alpha: float, n: int) -> float:
    """H_alpha(X^n) for a Markov chain (see markov_renyi_sums)."""
    return markov_renyi_sums(src, alpha, [n])[0]


def markov_renyi_sums(src: MarkovSource, alpha: float, ns) -> list[float]:
    """H_alpha(X^n) for a Markov chain at each n of ns, a positive and
    nondecreasing sequence, from one pass of the O(n * states^2) vector
    recursion v1(x) = initial(x)^alpha, v_{k+1}(x') = sum_x v_k(x) T(x,x')^alpha
    up to the last n.

    Runs entirely in the log domain, so large n cannot underflow.  Each time
    step is one array step: row x' of step_t + lv holds log2 of the terms
    v_k(x) T(x,x')^alpha, and _log2sumexp_rows reduces every row at once, to
    the same bits as a log2sumexp call per target state.
    """
    _check_alpha(alpha)
    out = []
    k = 1
    # divide: log2 of a zero transition; invalid: a row of -inf only
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log2(src.transitions)
        lv = alpha * src.initial.log_masses
        step_t = np.ascontiguousarray((alpha * log_t).T)
        for n in ns:
            if n < k:
                raise ValueError("block lengths must be positive and nondecreasing")
            for _ in range(n - k):
                lv = _log2sumexp_rows(step_t + lv)
            k = n
            out.append(log2sumexp(lv) / (1.0 - alpha))
    return out


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """Kullback-Leibler divergence D(p||q) in bits; +inf when supp(p) is not
    contained in supp(q)."""
    _check_alphabets(p, q)
    supp = p.masses > 0.0
    if np.any(q.masses[supp] == 0.0):
        return math.inf
    pm = p.masses[supp]
    qm = q.masses[supp]
    return math.fsum(pm * np.log2(pm / qm))


def _data_lines(text: str):
    """Yield (line number, stripped line) for each line of text that is
    neither blank nor a '#' comment; line numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_pmf_text(text: str) -> Pmf:
    """Parse a PMF from plain text: one probability per line.

    Blank lines and lines starting with '#' are skipped.  Raises ValueError
    naming the offending line number on malformed input.
    """
    masses = []
    for lineno, line in _data_lines(text):
        try:
            masses.append(float(line))
        except ValueError:
            raise ValueError(f"line {lineno}: not a probability: {line!r}") from None
    if not masses:
        raise ValueError("no probabilities found")
    return Pmf(masses)


def read_markov_text(text: str) -> MarkovSource:
    """Parse a Markov source: first line = state count, then the initial
    row, then one transition row per state, whitespace-separated."""
    rows = list(_data_lines(text))
    if not rows:
        raise ValueError("empty Markov source file")
    lineno, line = rows[0]
    try:
        k = int(line)
    except ValueError:
        raise ValueError(f"line {lineno}: state count must be an integer") from None
    if k < 1:
        raise ValueError(f"line {lineno}: state count must be positive")
    if len(rows) != k + 2:
        raise ValueError(f"expected {k + 2} data lines for {k} states, got {len(rows)}")

    def parse_row(idx: int, expect: int) -> list[float]:
        lineno, line = rows[idx]
        parts = line.split()
        if len(parts) != expect:
            raise ValueError(
                f"line {lineno}: expected {expect} entries, got {len(parts)}"
            )
        try:
            return [float(v) for v in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: malformed number") from None

    initial = Pmf(parse_row(1, k))
    transitions = [parse_row(2 + i, k) for i in range(k)]
    return MarkovSource(initial=initial, transitions=np.array(transitions))
