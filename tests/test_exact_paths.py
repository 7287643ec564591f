"""The array-backed Markov DP and brute-force oracle against plain loops.

Each reference below is a per-element loop over the same definition; the
array code must return the same floats, bit for bit, and the same partition.
The oracle is also checked against an exhaustive set-partition search that
uses no growth strings.
"""
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taskcodes import (
    MarkovSource,
    Partition,
    Pmf,
    brute_force_optimum,
    log2sumexp,
    markov_renyi_sums,
    moment,
)
from taskcodes import probability
from taskcodes.probability import _log2sumexp_rows


def markov_renyi_sum_log_reference(src: MarkovSource, alpha: float, n: int) -> float:
    """The recursion in the log domain, one state at a time."""
    lv = alpha * src.initial.log_masses
    step = alpha * src.log_transitions
    for _ in range(n - 1):
        lv = np.array([log2sumexp(lv + step[:, j]) for j in range(src.initial.size)])
    return log2sumexp(lv) / (1.0 - alpha)


def markov_renyi_sum_reference(src: MarkovSource, alpha: float, n: int) -> float:
    """The recursion on weights, one product at a time, with the same
    certificates; the log-domain loop where they do not hold."""
    def scaled(logs):
        finite = [v for v in logs.ravel().tolist() if math.isfinite(v)]
        if not finite or min(finite) < max(finite) - 300:
            return None
        return max(finite), max(finite) - min(finite), np.exp2(logs - max(finite)).tolist()

    with np.errstate(over="ignore"):
        first, step = scaled(alpha * src.initial.log_masses), scaled(alpha * src.log_transitions)
    if first is None or step is None:
        return markov_renyi_sum_log_reference(src, alpha, n)
    (start, spread0, w), (top, spread, a) = first, step
    exponent = 0
    for _ in range(n - 1):
        products = []
        for y in range(len(w)):
            acc = 0.0
            for x in range(len(w)):
                acc += w[x] * a[x][y]
            products.append(acc)
        w = products
        most = max(w)
        if any(0.0 < v < most * 2.0 ** -300 for v in w):
            return markov_renyi_sum_log_reference(src, alpha, n)
        shift = math.frexp(most)[1]
        if abs(shift) > 300:
            w = [math.ldexp(v, -shift) for v in w]
            exponent += shift
    log_sum = math.log2(math.fsum(w))
    try:
        total = math.fsum((start, (n - 1) * top, exponent, log_sum))
    except OverflowError:
        return markov_renyi_sum_log_reference(src, alpha, n)
    # the first-order rounding bound, in units of 2^-53
    err = (1.5 * (5 + spread0 + (n - 1) * (4 + spread + len(w))) + 2 * abs(log_sum)
           + abs((n - 1) * top) + abs(total))
    h = total / (1.0 - alpha)
    if not math.isfinite(h) or err * 2.0 ** -53 > abs(total) * 2.0 ** -40:
        return markov_renyi_sum_log_reference(src, alpha, n)
    return h


def _growth_strings(n: int, max_blocks: int):
    a = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield a
            return
        for v in range(min(used + 1, max_blocks)):
            a[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(1, 1)


def brute_force_reference(p: Pmf, m: int, rho: float) -> tuple[float, Partition]:
    masses = p.masses
    best_val = math.inf
    best_blocks = None
    for rgs in _growth_strings(p.size, m):
        groups = [[] for _ in range(max(rgs) + 1)]
        for elem, b in enumerate(rgs):
            groups[b].append(elem)
        weights = [math.fsum(masses[x] for x in g) for g in groups]
        # a block of zero masses adds 0
        val = math.fsum(w * float(len(g)) ** rho if w else 0.0 for w, g in zip(weights, groups))
        if val < best_val - 1e-15:
            best_val = val
            best_blocks = [list(g) for g in groups]
    assert best_blocks is not None
    return best_val, Partition(best_blocks)


def set_partitions(elements: list[int], m: int):
    """Every partition of `elements` into at most m blocks: the block of the
    first element is that element and any subset of the others."""
    if not elements:
        yield []
        return
    if m == 0:
        return
    first, rest = elements[0], elements[1:]
    for r in range(len(rest) + 1):
        for others in itertools.combinations(rest, r):
            remaining = [x for x in rest if x not in others]
            for blocks in set_partitions(remaining, m - 1):
                yield [[first, *others], *blocks]


def exhaustive_minimum(p: Pmf, m: int, rho: float) -> float:
    """min over the partitions into at most m blocks of sum_x P(x) L(x)^rho,
    where a zero mass adds 0 and L^rho past the float range is inf."""
    def power(size: int) -> float:
        try:
            return float(size) ** rho
        except OverflowError:
            return math.inf

    return min(math.fsum(p.masses[x] * power(len(b)) for b in blocks for x in b
                         if p.masses[x] > 0.0)
               for blocks in set_partitions(list(range(p.size)), m))


def normalized(weights) -> list[float]:
    total = sum(weights)
    return [w / total for w in weights]


# a row of nonnegative weights with at least one positive entry; zeros are
# zero transitions or zero initial masses
def weights(k: int, zeros: bool = True):
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0)) if zeros else st.floats(0.05, 1.0)
    return st.lists(entry, min_size=k, max_size=k).filter(lambda w: sum(w) > 0.0)


@st.composite
def chains(draw) -> MarkovSource:
    k = draw(st.integers(1, 8))
    initial = Pmf(normalized(draw(weights(k))))
    if draw(st.booleans()) and draw(st.booleans()):
        return MarkovSource(initial, np.eye(k))
    rows = [normalized(draw(weights(k))) for _ in range(k)]
    return MarkovSource(initial, np.array(rows))


def log2sumexp_1d(row) -> float:
    """The counts-free log-sum as a 1-D formula: the finite entries alone,
    summed by numpy's pairwise order over the filtered array."""
    row = row[np.isfinite(row)]
    top = float(row.max(initial=-math.inf))
    if top == -math.inf:
        return -math.inf
    return top + math.log2(float(np.exp2(row - top).sum()))


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 63, 64, 65, 130])
def test_log2sumexp_rows_matches_log2sumexp(width):
    # enough rows that np.log2 in place of math.log2 (which differ in the
    # last bit on about one sum in 4000), or -inf entries kept in the array
    # step (which regroups numpy's pairwise sum), would show; with warnings
    # as errors, a row of -inf only, nan or +inf that passed through nan
    # (-inf - -inf, inf - inf) would fail too
    rng = np.random.default_rng(width)
    a = rng.uniform(-60.0, 0.0, (40000 // width + 50, width))
    a[rng.random(a.shape) < 0.1] = -math.inf
    a[:20] = -math.inf
    a[20:30, 0] = 0.0
    a[30:40, -1] = math.nan
    a[40:50, 0] = math.inf
    a[50:60, rng.integers(width, size=10)] = math.nan
    a = np.ascontiguousarray(a)
    got = _log2sumexp_rows(a)
    assert got.tolist() == [log2sumexp(row) for row in a]
    assert got.tolist() == [log2sumexp_1d(row) for row in a]


def test_log2sumexp_without_counts_keeps_only_finite_entries():
    # a term that overflowed to +inf or nan at a huge order is left out, as
    # a -inf one is, and nothing left gives -inf
    assert log2sumexp([0.0, math.inf, math.nan, -math.inf]) == 0.0
    assert log2sumexp([math.nan, math.inf]) == -math.inf
    assert log2sumexp([]) == -math.inf
    assert _log2sumexp_rows(np.empty((3, 0))).tolist() == [-math.inf] * 3
    assert _log2sumexp_rows(np.empty((0, 3))).tolist() == []


def random_chain(k: int, zero_share: float) -> MarkovSource:
    """k states; each row has zero_share zero transitions on average, and a 1.0 weight."""
    r = random.Random(f"markov-{k}:{zero_share}")

    def row():
        w = [0.0 if r.random() < zero_share else r.uniform(0.1, 1.0) for _ in range(k)]
        w[r.randrange(k)] = 1.0
        return normalized(w)

    return chain(row(), [row() for _ in range(k)])


@st.composite
def exact_chains(draw) -> MarkovSource:
    """Up to 5 states, with zero transitions and transitions of 1e-40."""
    k = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0.0), st.just(1e-40), st.floats(0.05, 1.0))
    rows = [normalized(draw(st.lists(entry, min_size=k, max_size=k)
                            .filter(lambda w: sum(w) > 1e-30))) for _ in range(k)]
    return MarkovSource(Pmf(normalized(draw(weights(k)))), np.array(rows))


def log2_fraction(q: Fraction) -> float:
    """log2 q for a positive rational, to about an ulp: the power of two
    is split off first, so no large logarithms cancel."""
    shift = q.numerator.bit_length() - q.denominator.bit_length()
    return shift + math.log2(q / Fraction(2) ** shift)


def count_log_domain_rows(monkeypatch) -> list:
    """A list that gains an entry at each _log2sumexp_rows call."""
    calls = []
    rows = probability._log2sumexp_rows
    monkeypatch.setattr(probability, "_log2sumexp_rows",
                        lambda a: calls.append(1) or rows(a))
    return calls


ALPHAS = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 5.0), st.sampled_from([0.5, 2.0]))


def chain(initial, rows) -> MarkovSource:
    return MarkovSource(Pmf(initial), np.array(rows, dtype=float))


class TestMarkovRenyiSum:
    @given(chains(), ALPHAS, st.integers(1, 30))
    @example(chain([1.0], [[1.0]]), 0.5, 10)
    @example(chain([1.0], [[1.0]]), 3.0, 10)
    @example(chain([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]), 0.5, 20)
    @example(chain([0.0, 1.0, 0.0], [[0.2, 0.8, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
             0.3, 25)
    @example(chain([0.0, 0.0, 1.0], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
             2.5, 12)
    def test_matches_per_state_loop(self, src, alpha, n):
        assert markov_renyi_sums(src, alpha, [n])[0] == markov_renyi_sum_reference(src, alpha, n)

    @pytest.mark.parametrize("zero_share", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [0.5, 1.7])
    def test_matches_per_state_loop_at_64_states(self, zero_share, alpha):
        src = random_chain(64, zero_share)
        assert markov_renyi_sums(src, alpha, [60])[0] == markov_renyi_sum_reference(src, alpha, 60)

    # sorted lists repeat some n, and start above 1 or at it
    @given(chains(), ALPHAS, st.lists(st.integers(1, 30), min_size=1, max_size=6).map(sorted))
    @example(chain([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]]), 0.5, list(range(1, 31)))
    # a transient state that falls 2^-1.5 further behind the other at each
    # step: n = 200 is certified, n = 201 is not
    @example(chain([0.5, 0.5], [[0.125, 0.875], [0.0, 1.0]]), 0.5, [1, 100, 200, 201])
    def test_one_pass_rows_match_separate_calls(self, src, alpha, ns):
        assert markov_renyi_sums(src, alpha, ns) == [markov_renyi_sums(src, alpha, [n])[0] for n in ns]

    @settings(deadline=None)  # the exact Fraction reference takes most of the time
    @given(exact_chains(), st.sampled_from([2, 3]), st.integers(1, 40))
    @example(chain([0.5, 0.5], [[1.0 - 1e-40, 1e-40], [0.5, 0.5]]), 3, 40)  # 3 log2 1e-40 < -300
    @example(chain([0.5, 0.5], [[0.125, 0.875], [0.0, 1.0]]), 3, 40)  # 2^-9 behind per step
    def test_matches_exact_rationals(self, src, alpha, n):
        # float masses are dyadic rationals, so T^alpha and v_n are exact
        powers = [[Fraction(t) ** alpha for t in row] for row in src.transitions.tolist()]
        v = [Fraction(p) ** alpha for p in src.initial.masses.tolist()]
        for _ in range(n - 1):
            v = [sum(v[x] * powers[x][y] for x in range(len(v))) for y in range(len(v))]
        exact = log2_fraction(sum(v)) / (1 - alpha)
        got = markov_renyi_sums(src, float(alpha), [n])[0]
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))

    @pytest.mark.parametrize("src,ns", [
        (chain([0.5, 0.5, 0.0], [[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [1.0, 0.0, 0.0]]), [1, 4, 9]),
        (random_chain(64, 0.3), [1000]),
        # the transient state is 2^-298.5 behind at n = 200, inside the window
        (chain([0.5, 0.5], [[0.125, 0.875], [0.0, 1.0]]), [200]),
    ], ids=["3-states", "64-states-sparse", "transient"])
    def test_certified_chains_take_no_log_domain_step(self, monkeypatch, src, ns):
        calls = count_log_domain_rows(monkeypatch)
        rows = markov_renyi_sums(src, 0.5, ns)
        assert calls == []
        if src.initial.size < 64:  # the per-element reference takes seconds at 64 states
            assert rows == [markov_renyi_sum_reference(src, 0.5, n) for n in ns]

    @pytest.mark.parametrize("src,alpha,ns,rate", [
        # the third state enters at 2^-3986 (T^4 is below the float range)
        # and overtakes the decaying pair near n = 1330: rounding that entry
        # of A to 0 gives a rate of 1.0
        (chain([0.5, 0.5, 0.0], [[0.5, 0.5, 1e-300], [0.5, 0.5, 1e-300], [0.0, 0.0, 1.0]]),
         4.0, [2000], 0.66485351146),
        (chain([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]]), 1e300, [1, 2, 3], 0.43466872896),
        # nearly deterministic: the rate is decided by the last bits of A's
        # entries next to 1, and the weights would give it to 3.7e-8 only
        (chain([1.0, 0.0], [[1.0 - 2.0 ** -33, 2.0 ** -33], [2.0 ** -131, 1.0]]), 0.9, [1000],
         1.50152292253e-08),
        # at n = 201 the transient state is 2^-300 behind: outside the window
        (chain([0.5, 0.5], [[0.125, 0.875], [0.0, 1.0]]), 0.5, [201], 0.00787084246),
    ], ids=["entry-below-float-range", "huge-order", "rate-in-the-last-bits", "transient"])
    def test_uncertified_chains_take_the_log_domain(self, monkeypatch, src, alpha, ns, rate):
        with np.errstate(over="ignore"):
            first, step = alpha * src.initial.log_masses, alpha * src.log_transitions
        want = [probability._renyi(s, alpha) for s in probability._log_domain_sums(first, step, ns)]
        calls = count_log_domain_rows(monkeypatch)
        assert markov_renyi_sums(src, alpha, ns) == want
        assert calls
        assert want[-1] / ns[-1] == pytest.approx(rate, rel=1e-9)

    def test_float_range_refusal_stops_the_log_domain(self, monkeypatch):
        # every term of the sticky chain's sum leaves the float range at
        # n = 113, and nothing past it is computed
        calls = count_log_domain_rows(monkeypatch)
        src = chain([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(OverflowError, match=r"^the Renyi sum of order 1e\+307 at n = 113 "):
            markov_renyi_sums(src, 1e307, range(100, 100001))
        assert 0 < len(calls) <= 147

    @pytest.mark.parametrize("ns", [[0], [2, 1], [3, 5, 4]])
    def test_one_pass_needs_positive_nondecreasing_ns(self, ns):
        with pytest.raises(ValueError, match="positive and nondecreasing"):
            markov_renyi_sums(chain([1.0], [[1.0]]), 0.5, ns)


@st.composite
def pmfs(draw, max_size: int = 7) -> Pmf:
    k = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(["uniform", "near uniform", "small ints", "floats"]))
    if kind == "uniform":         # every block of one size ties
        w = [1.0] * k
    elif kind == "near uniform":  # values a few ulps to a few million ulps apart
        w = draw(st.lists(st.floats(1.0 - 1e-12, 1.0 + 1e-12), min_size=k, max_size=k))
    elif kind == "small ints":    # zero masses and many equal masses
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                 .filter(lambda w: sum(w) > 0))
    else:
        w = draw(weights(k))
    return Pmf(normalized([float(x) for x in w]))


RHOS = st.one_of(st.sampled_from([0.5, 1.0, 1.7, 2.0]), st.floats(0.1, 4.0))


@st.composite
def zero_mass_laws(draw) -> tuple[Pmf, int]:
    """A law over at most 7 symbols with at least one zero mass, and m <= |X| + 1."""
    masses = draw(pmfs(max_size=6)).masses.tolist()
    for _ in range(draw(st.integers(1, 7 - len(masses)))):
        masses.insert(draw(st.integers(0, len(masses))), 0.0)
    return Pmf(masses), draw(st.integers(1, len(masses) + 1))


def assert_same_optimum(p: Pmf, m: int, rho: float) -> None:
    val, part = brute_force_optimum(p, m, rho)
    want_val, want_part = brute_force_reference(p, m, rho)
    assert val == want_val
    assert part == want_part
    assert part.to_text() == want_part.to_text()


class TestBruteForceOptimum:
    @given(pmfs(), st.integers(1, 9), RHOS)
    @example(Pmf([1.0]), 1, 1.0)
    @example(Pmf([0.25] * 4), 2, 1.0)
    @example(Pmf([0.5, 0.0, 0.5]), 1, 2.0)     # a zero mass in the one block
    @example(Pmf([0.5, 0.0, 0.5]), 2, 1.7)
    @example(Pmf([0.2] * 5), 7, 0.5)           # m >= |supp|
    @example(Pmf([0.4, 0.1, 0.1, 0.4, 0.0, 0.0]), 3, 1.0)
    @example(Pmf([0.5, 1e-300, 0.5]), 2, 1.0)       # a mass far below the others' ulp
    @example(Pmf([0.5, 5e-324, 0.5]), 3, 2.0)       # a subnormal mass
    @example(Pmf([0.1, 0.2, 0.3, 0.4]), 2, 0.1)     # block 0 1 2: 0.1 + 0.2 + 0.3 != 0.6, its fsum
    def test_matches_growth_string_loop(self, p, m, rho):
        assert_same_optimum(p, m, rho)

    @given(zero_mass_laws(), st.one_of(RHOS, st.just(1e300)))
    @example((Pmf([0.5, 0.0, 0.5]), 2), 1.7)         # 0.5 * 2^1.7 + 0.5, not 2^1.7
    @example((Pmf([0.0, 0.5, 0.5]), 2), 1.0)         # 1.5, not 2
    @example((Pmf([0.5, 0.0, 0.0, 0.5]), 3), 1e300)  # 1, not inf: the zeros share a block
    @example((Pmf([0.0, 1.0]), 1), 1e300)
    def test_is_the_set_partition_minimum(self, law, rho):
        p, m = law
        val, part = brute_force_optimum(p, m, rho)
        assert math.isclose(val, exhaustive_minimum(p, m, rho), rel_tol=1e-12)
        assert part.num_blocks <= m
        assert math.isclose(moment(p, part, rho), val, rel_tol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(pmfs(max_size=8), st.data(), st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5, 7.0]))
    def test_value_is_the_moment_of_its_partition(self, p, data, rho):
        # the oracle rounds each block's mass sum before its power, moment each
        # element's term: the two agree to a few ulps, not bit for bit
        m = data.draw(st.integers(1, p.size + 1))
        val, part = brute_force_optimum(p, m, rho)
        assert part.num_blocks <= m
        assert math.isclose(val, moment(p, part, rho), rel_tol=2**-49)

    @pytest.mark.parametrize("masses,m,rho", [
        ([0.1] * 10, 5, 1.0),
        ([x / 55 for x in range(1, 11)], 4, 1.7),
        ([0.0, 0.2, 0.05, 0.15, 0.1, 0.0, 0.25, 0.05, 0.1, 0.1], 10, 0.5),
    ])
    def test_matches_growth_string_loop_at_10_symbols(self, masses, m, rho):
        assert_same_optimum(Pmf(masses), m, rho)

    @pytest.mark.parametrize("masses,m", [
        ([0.25] * 4, 4),
        ([0.25] * 4, 2),
        ([1.0, 0.0], 1),                # a zero mass in a block of power inf
        ([0.5, 0.3, 0.2, 0.0], 2),
        ([0.5, 0.3, 0.2, 0.0], 4),
    ])
    def test_block_power_past_the_float_range(self, masses, m):
        # c^1e300 overflows for every block of c >= 2 symbols: as in moment,
        # such a block's power is inf, and singletons keep the value finite
        p = Pmf(masses)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, part = brute_force_optimum(p, m, 1e300)
            assert val == moment(p, part, 1e300)
        if m >= len(masses):
            assert val == 1.0

    def test_every_candidate_infinite(self):
        # rho = inf with fewer blocks than symbols: every partition has
        # moment inf, and the first growth string (one block) is returned
        val, part = brute_force_optimum(Pmf([0.5, 0.25, 0.25]), 2, math.inf)
        assert val == math.inf
        assert part == Partition([[0, 1, 2]])
