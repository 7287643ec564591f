import math

import pytest

from taskcodes import (
    Pmf,
    SupportViolationError,
    block_experiment,
    build_encoder,
    divergence_limits,
    iid_joint,
    kl_divergence,
    moment,
    product_additivity_check,
    renyi_divergence,
    sundaresan_divergence,
    upper_bound,
)
from taskcodes import mismatch, probability
from conftest import random_pmf, random_pmf_gapped, rng

P_FAIR = Pmf([0.5, 0.5])
Q_SKEW = Pmf([0.9, 0.1])
# Hand reduction at alpha = 1/2:
# (sqrt(.9)+sqrt(.1)) * (.5/sqrt(.9)+.5/sqrt(.1)) / 2 = 4/3 exactly.
DELTA_HALF = math.log2(4.0 / 3.0)


class TestSundaresan:
    def test_zero_on_equal_laws(self):
        for alpha in (0.3, 0.5, 2.0, 5.0):
            p = random_pmf(rng(51, int(alpha * 10)), 5)
            assert sundaresan_divergence(p, p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_four_thirds_oracle(self):
        got = sundaresan_divergence(P_FAIR, Q_SKEW, 0.5)
        assert got == pytest.approx(DELTA_HALF, abs=1e-9)

    def test_infinite_below_one_on_support_violation(self):
        p = Pmf([0.5, 0.5])
        q = Pmf([1.0, 0.0])
        assert sundaresan_divergence(p, q, 0.5) == math.inf
        # above one the same pair is finite (supports overlap)
        assert math.isfinite(sundaresan_divergence(p, q, 2.0))

    def test_infinite_above_one_iff_disjoint(self):
        p = Pmf([1.0, 0.0])
        q = Pmf([0.0, 1.0])
        assert sundaresan_divergence(p, q, 2.0) == math.inf

    def test_nonnegative_random(self):
        for i in range(300):
            r = rng(53, i)
            p = random_pmf(r, 5)
            q = random_pmf(r, 5)
            for alpha in (0.3, 0.5, 2.0, 5.0):
                d = sundaresan_divergence(p, q, alpha)
                assert d >= 0.0
                assert d > 0.0  # random pairs never coincide


class TestRenyiDivergence:
    def test_zero_on_equal(self):
        p = random_pmf(rng(59, 0), 4)
        assert renyi_divergence(p, p, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_oracle(self):
        got = renyi_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5]), 0.5)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_alpha_to_one_brackets_kl(self):
        for i in range(30):
            r = rng(61, i)
            p = random_pmf(r, 4)
            q = random_pmf(r, 4)
            kl = kl_divergence(p, q)
            below = renyi_divergence(p, q, 1.0 - 1e-4)
            above = renyi_divergence(p, q, 1.0 + 1e-4)
            assert below - 1e-3 <= kl <= above + 1e-3

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the largest term overflows to +inf at order 1e308 and is "
                              "dropped from the sum; ROADMAP item 4's term rewrite mends it")
    def test_huge_order_nears_the_order_inf_limit(self):
        # log2 max P/Q = log2 (0.6 / 0.1); today 0.222 is returned
        got = renyi_divergence(Pmf([0.6, 0.35, 0.05]), Pmf([0.1, 0.3, 0.6]), 1e308)
        assert got == pytest.approx(math.log2(6.0), abs=1e-9)


class TestDivergenceLimits:
    def test_equal_uniform(self):
        u = Pmf([0.25] * 4)
        lim = divergence_limits(u, u)
        assert lim.kl == pytest.approx(0.0, abs=1e-12)
        assert lim.order0 == pytest.approx(0.0, abs=1e-12)
        assert lim.order_inf == pytest.approx(0.0, abs=1e-12)

    def test_support_count_limit(self):
        lim = divergence_limits(Pmf([0.5, 0.5, 0.0, 0.0]), Pmf([0.25] * 4))
        assert lim.order0 == pytest.approx(1.0, abs=1e-12)

    def test_argmax_set_limit(self):
        lim = divergence_limits(Pmf([0.7, 0.3]), Pmf([0.5, 0.5]))
        assert lim.order_inf == pytest.approx(math.log2(1.4), abs=1e-12)

    def test_probes_match_limits(self):
        for i in range(100):
            r = rng(67, i)
            p = random_pmf(r, r.randint(2, 6))
            q = random_pmf_gapped(r, p.size)
            lim = divergence_limits(p, q)
            assert lim.probes[1e-3] == pytest.approx(lim.order0, abs=1e-2)
            assert lim.probes[1e3] == pytest.approx(lim.order_inf, abs=1e-2)
            assert lim.probes[1.0 - 1e-4] == pytest.approx(lim.kl, abs=1e-2)
            assert lim.probes[1.0 + 1e-4] == pytest.approx(lim.kl, abs=1e-2)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            divergence_limits(Pmf([0.5, 0.5]), Pmf([1.0, 0.0]))

    def test_fields_by_name_and_position(self):
        lim = divergence_limits(Pmf([0.7, 0.3]), Pmf([0.5, 0.5]))
        assert tuple(lim) == (lim.kl, lim.order0, lim.order_inf, lim.probes)
        assert lim[2] == pytest.approx(math.log2(1.4), abs=1e-12)


class TestProductAdditivity:
    def test_equal_laws(self):
        p = random_pmf(rng(71, 0), 3)
        assert product_additivity_check(p, p, 0.5, 5)

    def test_fair_vs_skew(self):
        assert product_additivity_check(P_FAIR, Q_SKEW, 0.5, 3)
        joint = sundaresan_divergence(
            iid_joint(P_FAIR, 3), iid_joint(Q_SKEW, 3), 0.5
        )
        assert joint == pytest.approx(3 * DELTA_HALF, abs=3e-9)

    def test_n_equals_one(self):
        assert product_additivity_check(P_FAIR, Q_SKEW, 2.0, 1)

    def test_infinite_on_both_sides(self):
        # supp(p) is not inside supp(q): Delta_{1/2} is +inf at n = 1 and n = 3
        assert product_additivity_check(P_FAIR, Pmf([1.0, 0.0]), 0.5, 3)

    def test_random_pairs(self):
        for i in range(50):
            r = rng(73, i)
            p = random_pmf(r, 3)
            q = random_pmf(r, 3)
            alpha = r.choice([0.3, 0.5, 2.0])
            assert product_additivity_check(p, q, alpha, r.randint(2, 6))


class TestMismatchedBound:
    def test_matched_reduces_to_direct_bound(self):
        p = random_pmf(rng(79, 0), 4)
        bound = upper_bound(p, 7, 1.0, design=p)
        assert bound == pytest.approx(upper_bound(p, 7, 1.0), rel=1e-12)
        assert moment(p, build_encoder(p, 1.0, 7), 1.0) < bound

    def test_fair_vs_skew_bound_holds(self):
        bound = upper_bound(P_FAIR, 8, 1.0, design=Q_SKEW)
        mom = moment(P_FAIR, build_encoder(Q_SKEW, 1.0, 8), 1.0)
        mt = (8 - 1 - 2) / 4.0
        want = 1.0 + 2.0 ** (1.0 + DELTA_HALF - math.log2(mt))
        assert bound == pytest.approx(want, rel=1e-9)
        assert mom < bound

    def test_vacuous_at_m_below_threshold(self):
        # like the matched bound: +inf at M <= log2|X| + 2, no error
        assert upper_bound(P_FAIR, 3, 1.0, design=Q_SKEW) == math.inf

    def test_support_violation_gives_vacuous_bound(self):
        bound = upper_bound(Pmf([0.5, 0.5]), 8, 1.0, design=Pmf([1.0, 0.0]))
        assert bound == math.inf

    def test_dominates_matched_bound(self):
        for i in range(100):
            r = rng(83, i)
            p = random_pmf(r, 4)
            q = random_pmf(r, 4)
            bound = upper_bound(p, 8, 1.0, design=q)
            assert bound >= upper_bound(p, 8, 1.0) - 1e-9


class TestMismatchedBlockExperiment:
    def test_matched_equals_plain_experiment(self):
        p = Q_SKEW
        rep_mis = block_experiment(p, 8, "0.9", 1.0, design=p)
        rep = block_experiment(p, 8, "0.9", 1.0)
        assert rep_mis.moment == pytest.approx(rep.moment, rel=1e-12)
        assert rep_mis.upper == pytest.approx(rep.upper, rel=1e-12)
        assert sundaresan_divergence(p, p, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rate_above_penalized_entropy(self):
        # R = 1.6 > H + Delta = 1 + log2(4/3)
        moments = [block_experiment(P_FAIR, n, "1.6", 1.0, design=Q_SKEW).moment
                   for n in (8, 12, 16)]
        assert moments[0] > moments[1] > moments[2]
        assert moments[-1] < 2.0

    def test_rate_in_penalty_window(self):
        # H < R = 1.2 < H + Delta: matched converges, mismatched bound does not
        for n in (8, 12):
            matched = block_experiment(P_FAIR, n, "1.2", 1.0)
            mis = block_experiment(P_FAIR, n, "1.2", 1.0, design=Q_SKEW)
            assert matched.moment < 1.5
            assert mis.upper > 2.0
            assert sundaresan_divergence(P_FAIR, Q_SKEW, 0.5) == pytest.approx(
                DELTA_HALF, abs=1e-12)

    def test_design_row_takes_the_source_sum_twice(self, monkeypatch):
        # once for each public bound: the penalty reuses the upper bound's
        plain, orders = probability.renyi_entropy, []

        def counted(dist, alpha):
            orders.append(alpha)
            return plain(dist, alpha)
        for module in (probability, mismatch):
            monkeypatch.setattr(module, "renyi_entropy", counted)
        block_experiment(P_FAIR, 8, "1.6", 1.0, design=Q_SKEW)
        assert orders == [0.5, 0.5]
