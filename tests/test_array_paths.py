"""The array-backed encoder path against the per-element loops it replaced.

Each reference below is the loop the package used before budgets and
partitions became arrays; the array code must agree with it exactly.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from taskcodes import (
    LambdaBudget,
    MarkovSource,
    Partition,
    Pmf,
    build_partition,
    floor_pow2,
    iid_joint,
    lambda_from_law,
    markov_joint,
)
from taskcodes.partitions import greedy_blocks


def greedy_reference(budgets) -> tuple[tuple[int, ...], ...]:
    """The per-element greedy sweep: blocks of lambda(head) elements in
    (lambda, x) order, then an absorbing block of the elements with
    budget >= k."""
    size = len(budgets)
    absorbing = [x for x in range(size) if budgets[x] >= size]
    rest = sorted((x for x in range(size) if budgets[x] < size),
                  key=lambda x: (budgets[x], x))
    blocks: list[list[int]] = []
    i = 0
    while i < len(rest):
        quota = int(budgets[rest[i]])
        remaining = len(rest) - i
        take = remaining if remaining <= quota else quota
        blocks.append(rest[i:i + take])
        i += take
    if absorbing:
        blocks.append(absorbing)
    return tuple(tuple(sorted(b)) for b in blocks)


def partition_error_reference(blocks) -> str | None:
    """The message the per-element Partition validation raised, or None."""
    cleaned = []
    for block in blocks:
        items = sorted(block)
        if not items:
            return "empty block"
        cleaned.append(items)
    seen: dict[int, int] = {}
    for b, items in enumerate(cleaned):
        for x in items:
            if x in seen:
                return f"element {x} appears in more than one block"
            seen[x] = b
    if not cleaned or sorted(seen) != list(range(len(seen))):
        return "blocks must cover a dense range 0..k-1"
    return None


# small values make ties and runs longer than their budget; the large ones
# are absorbed and are not exact as floats
BUDGET = st.one_of(st.integers(1, 4), st.integers(1, 70), st.just(math.inf),
                   st.integers(2 ** 53 + 1, 2 ** 70))
BUDGETS = st.lists(BUDGET, min_size=1, max_size=60)


class TestBuildPartition:
    @given(BUDGETS)
    @example([1])
    @example([math.inf])
    @example([5])
    @example([2] * 7)                      # one run, longer than its budget
    @example([3, 3, 5, 5, 5, 5, 5, 5])     # a block reaching into the next run
    @example([4, 1, 4, 2, 9, math.inf, 2, 9, 1])
    @example([math.inf] * 4 + [2] * 3)
    def test_matches_greedy_loop(self, budgets):
        part = build_partition(LambdaBudget(budgets))
        assert part.blocks == greedy_reference(budgets)

    @given(BUDGETS)
    @example([math.inf, math.inf, 1])     # the absorbing block after a swept one
    @example([math.inf] * 4 + [2] * 3)
    def test_blocks_are_numbered_as_the_sweep_makes_them(self, budgets):
        lb = LambdaBudget(budgets)
        blocks = greedy_blocks(lb.values, np.bincount(lb.codes).tolist(), lb.size)
        assert build_partition(lb).sizes.tolist() == [s for r, s in blocks for _ in range(r)]

    @given(BUDGETS, st.randoms(use_true_random=False))
    def test_indexed_budgets_match_listed(self, budgets, r):
        keys = sorted(set(budgets), key=str)
        r.shuffle(keys)
        index = np.array([keys.index(b) for b in budgets])
        indexed = LambdaBudget(keys, index)
        listed = LambdaBudget(budgets)
        assert indexed.budgets == listed.budgets
        assert build_partition(indexed) == build_partition(listed)


class TestLambdaBudget:
    @given(BUDGETS)
    def test_mu_is_the_fraction_sum(self, budgets):
        lb = LambdaBudget(budgets)
        assert lb.mu == sum((Fraction(1, b) for b in budgets if b != math.inf),
                            Fraction(0))

    @given(BUDGETS)
    def test_budgets_view_is_exact(self, budgets):
        view = LambdaBudget(budgets).budgets
        assert view == tuple(budgets)
        assert all(type(b) is int or b == math.inf for b in view)

    def test_indexed_budgets_are_checked(self):
        with pytest.raises(ValueError, match="positive integer or inf"):
            LambdaBudget([3, 0], np.array([0, 1]))


def scalar_budgets(p: Pmf, rho: float, m: int) -> tuple:
    """lambda(x) = max(1, ceil(beta * P(x)^(-1/(1+rho)))) by a scalar power
    per element, inf on zero mass."""
    rt = 1.0 / (1.0 + rho)
    supp = p.masses > 0.0
    beta = 2.0 * math.fsum(p.masses[supp] ** rt) / (m - (math.log2(p.size) + 2.0))
    return tuple(math.inf if mass <= 0.0 else max(1, math.ceil(beta * mass ** (-rt)))
                 for mass in p.masses)


# the sweep benchmark laws (Bernoulli(0.1) at R = 0.9; the ternary p and q at
# R = 1.4), one law with a zero mass, and a uniform law, whose budgets at
# M = floor(log2|X| + 2) + 1 are exact integers
SWEEP_LAWS = [
    ([0.9, 0.1], Fraction("0.9"), range(1, 14)),
    ([0.5, 0.3, 0.2], Fraction("1.4"), range(1, 9)),
    ([0.6, 0.3, 0.1], Fraction("1.4"), range(1, 9)),
    ([0.5, 0.3, 0.2, 0.0], Fraction("1.9"), range(1, 7)),
    ([0.25] * 4, Fraction("1.9"), range(1, 7)),
]

# enumerated Markov laws, whose tuples share few distinct masses: chains
# with two or three distinct transition values, one with zero transitions
MARKOV_LAWS = [
    (MarkovSource(Pmf([0.5, 0.5]), [[0.9, 0.1], [0.1, 0.9]]), Fraction("0.9"), range(1, 14)),
    (MarkovSource(Pmf([0.2, 0.3, 0.5]), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
     Fraction("1.4"), range(1, 9)),
    (MarkovSource(Pmf([1 / 3] * 3), [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
     Fraction("1.4"), range(1, 9)),
]


@pytest.mark.parametrize("masses,rate,ns", SWEEP_LAWS + MARKOV_LAWS)
@pytest.mark.parametrize("rho", [0.25, 1.0, 3.0])
def test_lambda_from_law_matches_scalar_formula(masses, rate, ns, rho):
    """`masses` is a single letter's law, or a Markov chain."""
    checked = 0
    for n in ns:
        p = (markov_joint(masses, n) if isinstance(masses, MarkovSource)
             else iid_joint(Pmf(masses), n))
        threshold = math.log2(p.size) + 2.0
        for m in (math.floor(threshold) + 1, floor_pow2(rate * n)):
            if m > threshold:
                assert lambda_from_law(p, rho, m).budgets == scalar_budgets(p, rho, m)
                checked += 1
    assert checked >= len(ns)


@pytest.mark.parametrize("rho", [0.25, 1.0, 3.0])
def test_lambda_from_law_is_exact_above_2_to_53(rho):
    # On the sweep laws no product beta * P(x)^(-rt) lands exactly on an
    # integer, so a power off in the last bit never moves a ceil there.
    # Tiny masses give budgets above 2^53, where every float is an integer,
    # so there any last-bit slip in the power changes a budget.
    tiny = np.geomspace(1e-300, 1e-100, 4095)
    p = Pmf(np.append(tiny, 1.0 - tiny.sum()))
    m = 15  # just above log2(4096) + 2
    assert lambda_from_law(p, rho, m).budgets == scalar_budgets(p, rho, m)


@pytest.mark.parametrize("masses", [[1.0], [5e-324, 1.0], [1e-300, 1.0],
                                    [0.0, 5e-324, 1e-300, 1.0], [0.5, 0.25, 0.25]])
@pytest.mark.parametrize("rho", [1e-15, 0.5, 1.0, 1e15])
@pytest.mark.parametrize("m", [5, 10 ** 6, 2 ** 200, int(1.7e308)],
                         ids=["5", "1e6", "2^200", "1.7e308"])
def test_budgets_are_at_least_one_unclamped(masses, rho, m):
    # sum_x P(x)^rt >= 1 for rt < 1 and M < 2^1024, so beta > 0, and a mass
    # <= 1 only scales it up: every ceil is at least 1
    p = Pmf(masses)
    rt = 1.0 / (1.0 + rho)
    try:
        budgets = lambda_from_law(p, rho, m).budgets
    except OverflowError:  # only for a budget past the float range
        assert max(-rt * math.log2(x) for x in masses if x > 0) > 1000
        return
    assert all(b == math.inf or (type(b) is int and b >= 1) for b in budgets)
    assert (math.inf in budgets) == (0.0 in masses)


class TestPartition:
    @given(st.lists(st.lists(st.integers(-2, 12), max_size=5), max_size=6))
    @example([])
    @example([[0, 1], []])
    @example([[0, 1], [1, 2]])
    @example([[2, 1], [0, 1], [0]])
    @example([[0], [2]])
    @example([[-1, 0]])
    @example([[0, 10 ** 9]])                # ids from a file: no range-sized array
    @example([[0], [2 ** 63]])
    @example([[2 ** 63], [2 ** 63]])
    @example([[-1, 2 ** 63]])
    @example([[0, 2 ** 64]])
    def test_validation_matches_reference(self, blocks):
        want = partition_error_reference(blocks)
        if want is None:
            assert Partition(blocks).blocks == tuple(tuple(sorted(b)) for b in blocks)
        else:
            with pytest.raises(ValueError) as exc:
                Partition(blocks)
            assert str(exc.value) == want

    @given(st.integers(1, 40).flatmap(
        lambda k: st.tuples(st.permutations(range(k)),
                            st.sets(st.integers(1, k - 1) if k > 1 else st.nothing()))))
    def test_views_of_a_valid_partition(self, drawn):
        perm, cuts = drawn
        bounds = [0, *sorted(cuts), len(perm)]
        blocks = [perm[a:b] for a, b in zip(bounds, bounds[1:])]
        part = Partition(blocks)
        assert part.blocks == tuple(tuple(sorted(b)) for b in blocks)
        assert part.num_blocks == len(blocks)
        for i, block in enumerate(blocks):
            for x in block:
                assert part.labels[x] == i
                assert part.sizes[part.labels[x]] == len(block)
        assert part.sizes[part.labels].tolist() == [part.sizes[part.labels[x]]
                                                    for x in range(len(perm))]
        reordered = Partition(list(reversed(blocks)))
        assert reordered == part and hash(reordered) == hash(part)
        assert Partition.from_text(part.to_text()) == part

    def test_from_labels_checks(self):
        assert Partition.from_labels([1, 0, 1]).blocks == ((1,), (0, 2))
        with pytest.raises(ValueError, match="empty block"):
            Partition.from_labels([0, 2])
        with pytest.raises(ValueError, match="empty block"):
            Partition.from_labels([0, 2, 2])  # label 1 unused below the largest
        with pytest.raises(ValueError, match="empty block"):
            Partition.from_labels([0, 10 ** 12])
        with pytest.raises(ValueError, match="dense range"):
            Partition.from_labels([0, -1])
        with pytest.raises(ValueError, match="dense range"):
            Partition.from_labels([])
