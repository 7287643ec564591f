import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from taskcodes import (
    GroundSetMismatchError,
    LambdaBudget,
    Partition,
    build_partition,
    kraft_sum,
    subset_count_bound,
    subset_count_bound_detail,
    verify_budget,
)
from taskcodes.partitions import _floor_plus_log, greedy_blocks
from conftest import random_budget, random_partition, rng
from test_array_paths import greedy_reference


class TestPartition:
    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], []])

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            Partition([[0], [2]])

    def test_cardinalities(self):
        part = Partition([[0, 1], [2]])
        assert part.sizes[part.labels].tolist() == [2, 2, 1]
        assert part.sizes[part.labels[2]] == 1

    def test_text_roundtrip(self):
        part = Partition([[3], [0, 2], [1]])
        again = Partition.from_text(part.to_text())
        assert again == part

    def test_text_orders_by_smallest_element(self):
        part = Partition([[2, 3], [0], [1]])
        assert part.to_text() == "0\n1\n2 3\n"

    def test_repr_shows_sorted_blocks(self):
        assert repr(Partition([[2, 0], [1]])) == "Partition([[0, 2], [1]])"

    def test_sizes_are_ints(self):
        for part in (Partition([[0, 2], [1]]), Partition.from_labels(np.array([1, 0, 1]))):
            assert (type(part.ground_size), type(part.num_blocks)) == (int, int)
            assert (part.ground_size, part.num_blocks) == (3, 2)

    def test_equals_only_partitions(self):
        assert Partition([[0]]).__eq__(0) is NotImplemented
        assert (Partition([[0]]) == 0) is False


class TestLambdaBudgetText:
    def test_skips_blank_and_comment_lines(self):
        budget = LambdaBudget.from_text("# budgets\n\n1\n  2 \r\n\t# more\n4\n4\n")
        assert budget.budgets == (1, 2, 4, 4)

    def test_inf_in_any_case(self):
        budget = LambdaBudget.from_text("inf\nInfinity\nINF\n3\n")
        assert budget.budgets == (math.inf, math.inf, math.inf, 3)
        assert budget.mu == Fraction(1, 3)

    @pytest.mark.parametrize("text,message", [
        ("1\n2.5\n", "line 2: bad budget '2.5'"),
        ("nan\n", "line 1: bad budget 'nan'"),
        ("inf x\n", "line 1: bad budget 'inf x'"),
        ("1\n0\n", "budget must be a positive integer or inf, got 0"),
        ("# none\n", "need at least one budget"),
    ])
    def test_bad_budget(self, text, message):
        with pytest.raises(ValueError) as info:
            LambdaBudget.from_text(text)
        assert str(info.value) == message


class TestKraftSum:
    def test_two_blocks(self):
        assert kraft_sum(Partition([[0, 1], [2]])) == 2

    def test_singletons(self):
        assert kraft_sum(Partition([[x] for x in range(9)])) == 9

    def test_single_block(self):
        assert kraft_sum(Partition([list(range(7))])) == 1

    def test_random_partitions_exact(self):
        for i in range(200):
            r = rng(42, i)
            part = random_partition(r, r.randint(2, 64))
            total = kraft_sum(part)
            assert isinstance(total, Fraction)
            assert total == part.num_blocks


class TestLambdaBudget:
    def test_mu_is_exact(self):
        lb = LambdaBudget([1, 2, 4, 4])
        assert lb.mu == Fraction(2)

    def test_infinity_contributes_zero(self):
        assert LambdaBudget([math.inf, math.inf]).mu == 0

    def test_size_is_an_int(self):
        for budget in (LambdaBudget([2, math.inf, 2]), LambdaBudget([2, 3], index=[1, 1, 0])):
            assert type(budget.size) is int and budget.size == 3

    def test_repr_lists_the_budgets(self):
        assert repr(LambdaBudget([3, math.inf, 1])) == "LambdaBudget([3, inf, 1])"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LambdaBudget([0, 1])
        with pytest.raises(ValueError):
            LambdaBudget([1.5])


class TestSubsetCountBound:
    def test_alpha_two_evaluation(self):
        # at alpha = 2 the expression is floor(4 + 2 + 2) = 8
        bound = subset_count_bound(Fraction(2), 4)
        assert bound <= 8
        assert bound >= 3  # the (1,2,4,4) instance needs 3

    def test_trivial_singleton(self):
        assert subset_count_bound(Fraction(0), 1) == 2

    def test_dense_grid_oracle(self):
        mu = 3.7
        k = 64

        def expr(a: float) -> int:
            return math.floor(a * mu + math.log(k) / math.log(a) + 2.0)

        oracle = min(expr(1.0 + (k - 1.0) * i / 1e5) for i in range(1, 10 ** 5 + 1))
        assert subset_count_bound(Fraction(37, 10), k) == oracle

    @pytest.mark.parametrize("mu,k,message", [(1, 0, "alphabet size must be positive"),
                                              (-1, 4, "mu must be nonnegative")])
    def test_rejects_bad_arguments(self, mu, k, message):
        with pytest.raises(ValueError, match=message):
            subset_count_bound_detail(mu, k)

    def test_floor_is_exact_below_an_integer(self):
        # mu puts the grid point a = 4^(165/512) at 10 - 5e-13: the floor
        # there is 9, and every other grid point gives 10 or more
        a = 4.0 ** (165 / 512)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            log = Fraction(decimal.Decimal(3).ln() / decimal.Decimal(a).ln())
        mu = (8 - Fraction(5, 10 ** 13) - log) / Fraction(a)
        assert subset_count_bound_detail(mu, 3) == (9, a)

    @pytest.mark.parametrize("j,twice_mu", [(7, 10), (29, 41), (47, 67), (61, 81)])
    def test_exact_integer_at_a_two_keeps_its_floor(self, j, twice_mu):
        # at a = 2, a*mu + log_2(2^j) + 2 is an exact integer, the least
        # floor on the grid
        assert subset_count_bound(Fraction(twice_mu, 2), 2 ** j) == twice_mu + j + 2

    @pytest.mark.parametrize("x,k,a,want", [
        (Fraction(8, 3), 4096, 512.0, 4),  # log_512 4096 = 4/3
        (Fraction(1, 3), 4096, 512.0, 1),
        (Fraction(5), 1, 1.5, 5),
        (Fraction(7, 2), 3, 3.0, 4),
        (Fraction(-1, 10 ** 30), 9, 3.0, 1),
    ])
    def test_floor_plus_log_on_rational_logs(self, x, k, a, want):
        assert _floor_plus_log(x, k, a) == want


@st.composite
def budget_runs(draw):
    """Distinct budgets in increasing order (ints, ints >= k, inf), their
    positive counts, and the budget of each element, in shuffled order."""
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    size = sum(counts)
    pool = st.one_of(st.integers(1, size + 3), st.just(math.inf))
    values = sorted(draw(st.lists(pool, min_size=len(counts), max_size=len(counts),
                                  unique=True)))
    budgets = draw(st.permutations([b for b, c in zip(values, counts) for _ in range(c)]))
    return values, counts, budgets


class TestGreedyBlocks:
    @given(budget_runs())
    def test_blocks_are_the_per_element_sweep(self, runs):
        values, counts, budgets = runs
        blocks = greedy_blocks(values, counts, len(budgets))
        assert all(r > 0 for r, _ in blocks)
        assert all(a[1] != b[1] for a, b in zip(blocks, blocks[1:]))  # neighbours merged
        used = sum(r for r, _ in blocks)
        assert used <= subset_count_bound(LambdaBudget(budgets).mu, len(budgets))
        want = greedy_reference(budgets)
        assert used == len(want)
        got = [s for r, s in blocks for _ in range(r * s)]
        assert got == [len(block) for block in want for _ in block]


class TestBuildPartition:
    def test_paper_counterexample_needs_three(self):
        lb = LambdaBudget([1, 2, 4, 4])
        part = build_partition(lb)
        assert part.num_blocks == 3
        assert part == Partition([[2, 3], [0], [1]])

    def test_all_infinite_budgets_one_block(self):
        part = build_partition(LambdaBudget([math.inf] * 6))
        assert part.num_blocks == 1

    def test_unit_budgets_singletons(self):
        part = build_partition(LambdaBudget([1] * 5))
        assert part.num_blocks == 5
        assert all(len(b) == 1 for b in part.blocks)

    def test_singleton_ground_set(self):
        assert build_partition(LambdaBudget([1])).num_blocks == 1

    def test_soundness_random(self):
        for i in range(300):
            r = rng(5, i)
            lb = random_budget(r, r.randint(1, 64))
            part = build_partition(lb)
            assert verify_budget(part, lb) is None
            assert part.num_blocks <= subset_count_bound(lb.mu, lb.size)

    def test_label_invariance(self):
        for i in range(50):
            r = rng(13, i)
            size = r.randint(2, 20)
            lb = random_budget(r, size)
            perm = list(range(size))
            r.shuffle(perm)
            permuted = LambdaBudget([lb.budgets[perm[x]] for x in range(size)])
            sizes_a = sorted(len(b) for b in build_partition(lb).blocks)
            sizes_b = sorted(len(b) for b in build_partition(permuted).blocks)
            assert sizes_a == sizes_b

    def test_sorted_sweep_invariant(self):
        for i in range(50):
            r = rng(17, i)
            size = r.randint(2, 32)
            lb = random_budget(r, size)
            part = build_partition(lb)
            order = sorted(range(size), key=lambda x: (lb.budgets[x], x))
            rank = {x: k for k, x in enumerate(order)}
            swept = [b for b in part.blocks
                     if not all(lb.budgets[x] >= size for x in b)]
            for earlier, later in zip(swept, swept[1:]):
                assert max(rank[x] for x in earlier) < min(rank[x] for x in later)


class TestVerifyBudget:
    def test_constructor_output_passes(self):
        lb = LambdaBudget([3, 1, 2, 8, 1])
        assert verify_budget(build_partition(lb), lb) is None

    def test_single_block_against_unit_budgets(self):
        violator = verify_budget(Partition([[0, 1, 2, 3]]), LambdaBudget([1] * 4))
        assert violator is not None
        assert violator == 0

    def test_singletons_always_pass(self):
        part = Partition([[x] for x in range(4)])
        assert verify_budget(part, LambdaBudget([1, 2, 3, math.inf])) is None

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            verify_budget(Partition([[0, 1]]), LambdaBudget([1, 1, 1]))

    def test_first_violator_past_a_fine_element(self):
        # element 0 is alone; 1 sits in a block of 3 over its budget 1
        assert verify_budget(Partition([[0], [1, 2, 3]]), LambdaBudget([1, 1, 3, 3])) == 1

    def test_every_budget_kept_gives_none(self):
        part = Partition([[0, 1], [2, 3, 4]])
        assert verify_budget(part, LambdaBudget([2, 5, 3, math.inf, 3])) is None
