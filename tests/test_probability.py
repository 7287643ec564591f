import math

import numpy as np
import pytest

from taskcodes import (
    AlphabetMismatchError,
    CapExceededError,
    IidTypes,
    InvalidOrderError,
    LambdaBudget,
    MarkovSource,
    Partition,
    Pmf,
    TypeLaw,
    iid_joint,
    kl_divergence,
    log2sumexp,
    markov_joint,
    markov_renyi_sums,
    read_markov_text,
    read_pmf_text,
    renyi_entropy,
    renyi_rho,
)
from taskcodes.probability import grouped_fsum
from conftest import random_pmf, rng

# Independent oracle for the two-point law (0.9, 0.1) at order 1/2:
# H_{1/2} = 2 * log2(sqrt(0.9) + sqrt(0.1)).
H_HALF_BERNOULLI_01 = 2.0 * math.log2(math.sqrt(0.9) + math.sqrt(0.1))


class TestPmf:
    def test_normalizes_within_window(self):
        p = Pmf([0.5, 0.5 + 5e-10])
        assert abs(p.masses.sum() - 1.0) <= 1e-12

    def test_rejects_gross_unnormalized(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.6])

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            Pmf([1.5, -0.5])
        with pytest.raises(ValueError):
            Pmf([])

    def test_support(self):
        p = Pmf([0.5, 0.0, 0.5])
        assert list(p.support) == [0, 2]
        assert p.log_masses[1] == -math.inf


class TestRenyiEntropy:
    def test_uniform_four_any_order(self):
        assert renyi_entropy(Pmf([0.25] * 4), 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_fair_coin(self):
        assert renyi_entropy(Pmf([0.5, 0.5]), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_01_oracle(self):
        got = renyi_entropy(Pmf([0.9, 0.1]), 0.5)
        assert got == pytest.approx(H_HALF_BERNOULLI_01, abs=1e-12)

    def test_invalid_order(self):
        for alpha in (0.0, -1.0, 1.0):
            with pytest.raises(InvalidOrderError):
                renyi_entropy(Pmf([0.5, 0.5]), alpha)

    def test_uniform_maximality(self):
        for i in range(50):
            r = rng(7, i)
            p = random_pmf(r, r.randint(2, 8))
            k = p.size
            for alpha in (0.3, 0.5, 2.0, 4.0):
                h = renyi_entropy(p, alpha)
                assert h <= math.log2(k) + 1e-12
        uniform = Pmf([1.0 / 5] * 5)
        assert renyi_entropy(uniform, 0.7) == pytest.approx(math.log2(5), abs=1e-12)

    def test_monotone_in_alpha(self):
        grid = [0.2, 0.5, 0.9, 1.5, 3.0, 8.0]
        for i in range(50):
            p = random_pmf(rng(11, i), 6)
            values = [renyi_entropy(p, a) for a in grid]
            assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="1/(1 - alpha) times a rounding-sized log2 of the power sum "
                              "next to order 1; ROADMAP item 4's stable form mends it")
    def test_order_next_to_one_nears_the_shannon_entropy(self):
        # the alpha -> 1 limit is 0.468995593589; today -0.375 is returned
        shannon = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert renyi_entropy(Pmf([0.9, 0.1]), 1.0 + 2.0 ** -52) == pytest.approx(
            shannon, abs=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="1 + sqrt(1e-300) rounds to 1 inside the power sum; "
                              "ROADMAP item 4's stable form mends it")
    def test_a_tiny_mass_keeps_its_entropy(self):
        # 2 log2(1 + 1e-150) = 2.885e-150; today 0.0 is returned
        assert renyi_entropy(Pmf([1e-300, 1.0]), 0.5) == pytest.approx(
            2.885390081777927e-150, rel=1e-9, abs=0.0)


class TestRenyiRho:
    def test_uniform_eight(self):
        assert renyi_rho(Pmf([1.0 / 8] * 8), 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_bernoulli_01(self):
        got = renyi_rho(Pmf([0.9, 0.1]), 1.0)
        assert got == pytest.approx(H_HALF_BERNOULLI_01, abs=1e-12)

    def test_matches_general_order(self):
        p = random_pmf(rng(3, 0), 5)
        assert renyi_rho(p, 1.0) == renyi_entropy(p, 0.5)

    def test_invalid_rho(self):
        with pytest.raises(InvalidOrderError):
            renyi_rho(Pmf([0.5, 0.5]), 0.0)

    def test_huge_finite_rho(self):
        # order 1e-300: next to the order-0 limit, log2 of the support size
        assert renyi_rho(Pmf([0.5, 0.25, 0.25, 0.0]), 1e300) == pytest.approx(math.log2(3))

    def test_infinite_order(self):
        with pytest.raises(InvalidOrderError, match="finite"):
            renyi_entropy(Pmf([0.9, 0.1]), math.inf)
        with pytest.raises(InvalidOrderError, match="finite"):
            markov_renyi_sums(MarkovSource(Pmf([1.0]), np.eye(1)), math.inf, [3])


@pytest.mark.parametrize("n", [23, 20000, 10**7])
def test_cap_refuses_without_building_the_tuple_count(n):
    # 2^20000 has more digits than Python converts to text
    with pytest.raises(CapExceededError, match=f"2\\^{n} tuples exceeds cap 4194304"):
        iid_joint(Pmf([0.5, 0.5]), n)
    with pytest.raises(CapExceededError):
        markov_joint(MarkovSource(Pmf([0.5, 0.5]), np.full((2, 2), 0.5)), n)


def test_cap_edges():
    assert iid_joint(Pmf([0.5, 0.5]), 4, cap=16).size == 16
    assert iid_joint(Pmf([1.0]), 50, cap=1).size == 1
    with pytest.raises(CapExceededError):
        iid_joint(Pmf([1 / 3] * 3), 3, cap=26)


def test_one_symbol_law_is_the_point_mass_at_any_n():
    # 1^n never exceeds the cap, so the builders may not loop over n
    one = Pmf([1.0])
    assert iid_joint(one, 10**12, cap=1).masses.tolist() == [1.0]
    assert markov_joint(MarkovSource(one, np.eye(1)), 10**12, cap=1).masses.tolist() == [1.0]


class TestIidJoint:
    def test_fair_coin_cube(self):
        law = iid_joint(Pmf([0.5, 0.5]), 3)
        assert law.size == 8
        assert np.allclose(law.log_masses, -3.0)

    def test_product_mass(self):
        law = iid_joint(Pmf([0.9, 0.1]), 2)
        # tuple (0, 1) sits at index 0*2 + 1
        assert 2.0 ** law.log_masses[1] == pytest.approx(0.09, abs=1e-12)

    def test_additivity(self):
        p = Pmf([0.9, 0.1])
        law = iid_joint(p, 5)
        assert renyi_entropy(law, 0.5) == pytest.approx(
            5 * H_HALF_BERNOULLI_01, abs=5e-9
        )

    def test_cap(self):
        with pytest.raises(CapExceededError):
            iid_joint(Pmf([0.5, 0.5]), 11, cap=1 << 10)


class TestMarkovSource:
    def test_transition_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="must be square"):
            MarkovSource(Pmf([0.5, 0.5]), np.array([[0.5, 0.5]]))

    def test_initial_law_must_share_the_states(self):
        with pytest.raises(ValueError, match="share one state alphabet"):
            MarkovSource(Pmf([1.0]), np.array([[0.9, 0.1], [0.1, 0.9]]))

    def test_log_transitions(self):
        src = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.75, 0.25], [0.0, 1.0]]))
        with np.errstate(divide="ignore"):
            expected = np.log2(src.transitions)
        assert np.array_equal(src.log_transitions, expected)
        assert src.log_transitions[1, 0] == -math.inf
        assert not src.log_transitions.flags.writeable
        with pytest.raises(ValueError):
            src.log_transitions[0, 0] = 0.0


class TestMarkovJoint:
    def test_identity_chain(self):
        src = MarkovSource(Pmf([0.5, 0.5]), np.eye(2))
        law = markov_joint(src, 4)
        masses = np.exp2(law.log_masses)
        assert masses[0] == pytest.approx(0.5)       # 0000
        assert masses[-1] == pytest.approx(0.5)      # 1111
        assert masses[1:-1].sum() == pytest.approx(0.0)

    def test_memoryless_degenerate(self):
        p = Pmf([0.3, 0.7])
        src = MarkovSource(p, np.array([[0.3, 0.7], [0.3, 0.7]]))
        law = markov_joint(src, 3)
        ref = iid_joint(p, 3)
        assert np.allclose(law.log_masses, ref.log_masses)

    def test_sticky_chain_mass(self):
        src = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        law = markov_joint(src, 2)
        assert 2.0 ** law.log_masses[0] == pytest.approx(0.45, abs=1e-12)


class TestMarkovRenyiSum:
    def test_iid_degenerate(self):
        p = Pmf([0.2, 0.8])
        src = MarkovSource(p, np.array([[0.2, 0.8], [0.2, 0.8]]))
        for alpha in (0.5, 2.0):
            got = markov_renyi_sums(src, alpha, [7])[0]
            assert got == pytest.approx(7 * renyi_entropy(p, alpha), abs=1e-9)

    def test_identity_chain_is_n_independent(self):
        src = MarkovSource(Pmf([1.0 / 3] * 3), np.eye(3))
        for n in (1, 5, 40):
            assert markov_renyi_sums(src, 0.5, [n])[0] == pytest.approx(
                math.log2(3), abs=1e-9
            )

    def test_matches_enumeration(self):
        src = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        got = markov_renyi_sums(src, 0.5, [10])[0]
        ref = renyi_entropy(markov_joint(src, 10), 0.5)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_large_n_does_not_underflow(self):
        src = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.99, 0.01], [0.01, 0.99]]))
        h = markov_renyi_sums(src, 0.5, [500])[0]
        assert math.isfinite(h) and h > 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="1/(1 - alpha) times a rounding-sized log2 of the power sum "
                              "next to order 1; ROADMAP item 4's stable form mends it")
    def test_order_next_to_one_nears_the_shannon_rates(self):
        # the README's sticky chain; today 1, 1, 1.333, 1, 0.8 per letter
        src = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        ns = range(1, 6)
        shannon = [-float(np.sum(law.masses * law.log_masses)) / n
                   for n in ns for law in [markov_joint(src, n)]]
        got = [h / n for n, h in zip(ns, markov_renyi_sums(src, 0.9999999999999999, ns))]
        assert got == pytest.approx(shannon, abs=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_counted_log2sumexp_keeps_its_minus_inf_entries_as_zeros(seed):
    r = rng(3, seed)
    size = r.randint(1, 12)
    logs = np.array([r.uniform(-60.0, 5.0) for _ in range(size)])
    counts = np.array([r.choice([1, 2, 7, 1 << 30]) for _ in range(size)])
    at = [r.randrange(size + 1) for _ in range(4)]
    with_holes = np.insert(logs, at, -math.inf)
    hole_counts = np.insert(counts, at, [3, 1, 1 << 40, 5])
    assert log2sumexp(with_holes, hole_counts) == log2sumexp(logs, counts)
    assert log2sumexp(with_holes, hole_counts.astype(object)) == log2sumexp(logs, counts)
    assert log2sumexp(np.full(3, -math.inf), np.ones(3, dtype=np.int64)) == -math.inf


@pytest.mark.parametrize("seed", range(20))
def test_grouped_fsum_zero_count_adds_nothing(seed):
    r = rng(4, seed)
    size = r.randint(1, 12)
    values = np.array([r.uniform(-1.0, 1.0) * 2.0 ** r.randint(-1070, 1000)
                       for _ in range(size)])
    counts = np.array([r.randint(1, 1 << 30) for _ in range(size)])
    at = r.randrange(size + 1)
    finite = r.uniform(-1.0, 1.0) * 2.0 ** r.randint(-1070, 1020)
    for zero in (finite, math.inf, -math.inf, math.nan):  # none decides the sum
        for dtype in (np.int64, object):
            typed = counts.astype(dtype)
            assert (grouped_fsum(np.insert(values, at, zero), np.insert(typed, at, 0))
                    == grouped_fsum(values, typed))


# two near-equal laws whose KL terms sum to -1.5e-16 in floats
NEAR_P = [0.38992542982971645, 0.103454531700452, 0.26457420817144006,
          0.09860962788354133, 0.14343620241485006]
NEAR_Q = [0.3899254298297163, 0.10345453170045216, 0.26457420817144006,
          0.09860962788354143, 0.14343620241485008]


class TestKlDivergence:
    def test_equal_laws(self):
        p = Pmf([0.4, 0.6])
        assert kl_divergence(p, p) == 0.0

    def test_support_violation(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.0, 1.0])) == math.inf

    def test_direct_oracle(self):
        got = kl_divergence(Pmf([0.5, 0.5]), Pmf([0.9, 0.1]))
        want = 0.5 * math.log2(0.5 / 0.9) + 0.5 * math.log2(0.5 / 0.1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            kl_divergence(Pmf([1.0]), Pmf([0.5, 0.5]))

    def test_ratio_past_the_float_range(self):
        # 0.5 / 1e-320 overflows, which gave inf and a RuntimeWarning; the value
        # is 0.5 * log2(0.5) + 0.5 * (log2(0.5) - log2 q_1), about 530.51
        q = Pmf([1.0, 1e-320])
        want = -1.0 - 0.5 * math.log2(float(q.masses[1]))
        assert kl_divergence(Pmf([0.5, 0.5]), q) == pytest.approx(want, rel=1e-12)

    def test_ratio_past_the_float_range_on_types(self):
        # q^2 holds 2^-1060 exactly; its ratio 2^-2 / 2^-1060 overflows, and the
        # pair law's divergence is twice the letter's, 2 * (-1/2 + 529/2) = 528
        types = IidTypes(2, 2)
        p, q = Pmf([0.5, 0.5]), Pmf([1.0, 2.0 ** -530])
        assert kl_divergence(TypeLaw(p, types), TypeLaw(q, types)) == pytest.approx(
            528.0, rel=1e-12)

    @pytest.mark.parametrize("p,q", [(NEAR_P, NEAR_Q), ([1.0, 2.5e-323], [1.0, 1e-320])])
    def test_rounding_below_zero_reads_as_zero(self, p, q):
        # the fsum of P log2(P/Q) was -1.5e-16 and -2.1e-322 here
        assert kl_divergence(Pmf(p), Pmf(q)) == 0.0


class TestParsing:
    def test_pmf_roundtrip(self):
        p = read_pmf_text("0.25\n0.25\n\n# comment\n0.5\n")
        assert list(p.masses) == [0.25, 0.25, 0.5]

    def test_pmf_line_number_in_error(self):
        with pytest.raises(ValueError, match="line 2"):
            read_pmf_text("0.5\noops\n0.5\n")

    def test_markov_roundtrip(self):
        src = read_markov_text("2\n0.5 0.5\n0.9 0.1\n0.1 0.9\n")
        assert src.initial.size == 2
        assert src.transitions[0][0] == pytest.approx(0.9)

    @pytest.mark.parametrize("read,text,message", [
        (read_pmf_text, "# c\n\n0.5\nx", "line 4: not a probability: 'x'"),
        (read_markov_text, "# c\n\nx\n", "line 3: state count must be an integer"),
        (read_markov_text, "# c\n\n0\n", "line 3: state count must be positive"),
        (read_markov_text, "# c\n1\n\n1\n# row\nx\n", "line 6: malformed number"),
        (read_markov_text, "1\n\n1 1\n1\n", "line 3: expected 1 entries, got 2"),
        (Partition.from_text, "# c\n\n0 1\nx", "line 4: malformed block"),
        (LambdaBudget.from_text, "# c\n\n1\nx", "line 4: bad budget 'x'"),
    ])
    def test_line_numbers_count_blank_and_comment_lines(self, read, text, message):
        with pytest.raises(ValueError) as info:
            read(text)
        assert str(info.value) == message

    def test_markov_shape_errors(self):
        with pytest.raises(ValueError):
            read_markov_text("2\n0.5 0.5\n0.9 0.1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_markov_text("2\n0.5 0.5\n0.9\n0.1 0.9\n")
