"""The array-backed Markov DP and brute-force oracle against the loops they
replaced.

Each reference below is the per-element loop the package used before; the
array code must return the same floats, bit for bit, and the same partition.
"""
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from taskcodes import (
    MarkovSource,
    Partition,
    Pmf,
    TaskEncoder,
    brute_force_optimum,
    log2sumexp,
    markov_renyi_sum,
    markov_renyi_sums,
    moment,
)
from taskcodes.probability import _log2sumexp_rows


def markov_renyi_sum_reference(src: MarkovSource, alpha: float, n: int) -> float:
    with np.errstate(divide="ignore"):
        log_t = np.log2(src.transitions)
    lv = alpha * src.initial.log_masses
    step = alpha * log_t
    for _ in range(n - 1):
        lv = np.array([log2sumexp(lv + step[:, j]) for j in range(src.num_states)])
    return log2sumexp(lv) / (1.0 - alpha)


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
    supp = [int(x) for x in p.support]
    zeros = [x for x in range(p.size) if x not in set(supp)]
    if zeros and m == 1:
        part = Partition([list(range(p.size))])
        return math.fsum(p.masses * float(p.size) ** rho), part

    limit = m - 1 if zeros else m
    masses = p.masses
    best_val = math.inf
    best_blocks = None
    for rgs in _growth_strings(len(supp), limit):
        nblocks = max(rgs) + 1
        groups = [[] for _ in range(nblocks)]
        for elem, b in zip(supp, rgs):
            groups[b].append(elem)
        val = math.fsum(
            math.fsum(masses[x] for x in g) * float(len(g)) ** rho for g in groups
        )
        if val < best_val - 1e-15:
            best_val = val
            best_blocks = [list(g) for g in groups]
    assert best_blocks is not None
    if zeros:
        best_blocks.append(zeros)
    return best_val, Partition(best_blocks)


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


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 63, 64, 65, 130])
def test_log2sumexp_rows_matches_log2sumexp(width):
    # enough rows that np.log2 in place of math.log2 (which differ in the
    # last bit on about one sum in 4000), or -inf entries kept in the array
    # step (which regroups numpy's pairwise sum), would show
    rng = np.random.default_rng(width)
    a = rng.uniform(-60.0, 0.0, (40000 // width + 50, width))
    a[rng.random(a.shape) < 0.1] = -math.inf
    a[:20] = -math.inf
    a[20:30, 0] = 0.0
    a = np.ascontiguousarray(a)
    with np.errstate(invalid="ignore"):
        got = _log2sumexp_rows(a)
    assert got.tolist() == [log2sumexp(row) for row in a]


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
        assert markov_renyi_sum(src, alpha, n) == markov_renyi_sum_reference(src, alpha, n)

    @pytest.mark.parametrize("zero_share", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [0.5, 1.7])
    def test_matches_per_state_loop_at_64_states(self, zero_share, alpha):
        r = random.Random(f"markov-64:{zero_share}")

        def row():
            w = [0.0 if r.random() < zero_share else r.uniform(0.1, 1.0) for _ in range(64)]
            w[r.randrange(64)] = 1.0
            return normalized(w)

        src = chain(row(), [row() for _ in range(64)])
        assert markov_renyi_sum(src, alpha, 60) == markov_renyi_sum_reference(src, alpha, 60)

    # sorted lists repeat some n, and start above 1 or at it
    @given(chains(), ALPHAS, st.lists(st.integers(1, 30), min_size=1, max_size=6).map(sorted))
    @example(chain([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]]), 0.5, list(range(1, 31)))
    def test_one_pass_rows_match_separate_calls(self, src, alpha, ns):
        assert markov_renyi_sums(src, alpha, ns) == [markov_renyi_sum(src, alpha, n) for n in ns]

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
    @example(Pmf([0.5, 0.0, 0.5]), 1, 2.0)     # zeros with no room for their own block
    @example(Pmf([0.5, 0.0, 0.5]), 2, 1.7)
    @example(Pmf([0.2] * 5), 7, 0.5)           # m >= |supp|
    @example(Pmf([0.4, 0.1, 0.1, 0.4, 0.0, 0.0]), 3, 1.0)
    def test_matches_growth_string_loop(self, p, m, rho):
        assert_same_optimum(p, m, rho)

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
        ([1.0, 0.0], 1),                # the zero-mass branch at m = 1
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
            assert val == moment(p, TaskEncoder(part.num_blocks, part), 1e300)
        if m >= len(masses):
            assert val == 1.0

    def test_every_candidate_infinite(self):
        # rho = inf with fewer blocks than symbols: every partition has
        # moment inf, and the first growth string (one block) is returned
        val, part = brute_force_optimum(Pmf([0.5, 0.25, 0.25]), 2, math.inf)
        assert val == math.inf
        assert part == Partition([[0, 1, 2]])
