import math

import numpy as np
import pytest

from taskcodes import (
    AlphabetMismatchError,
    CapExceededError,
    InvalidOrderError,
    LambdaBudget,
    MarkovSource,
    Partition,
    Pmf,
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
    zero = r.uniform(-1.0, 1.0) * 2.0 ** r.randint(-1070, 1020)
    assert (grouped_fsum(np.insert(values, at, zero), np.insert(counts, at, 0))
            == grouped_fsum(values, counts))


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
