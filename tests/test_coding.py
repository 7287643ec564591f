import decimal
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from taskcodes import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    DescriptionCountTooSmallError,
    IidTypes,
    InvalidOrderError,
    MarkovSource,
    Partition,
    Pmf,
    RateTooSmallError,
    TypeLaw,
    block_experiment,
    brute_force_optimum,
    build_encoder,
    floor_pow2,
    iid_joint,
    lambda_from_law,
    lower_bound,
    markov_joint,
    moment,
    renyi_rho,
    upper_bound,
)
from taskcodes import coding
from conftest import random_pmf, rng

DYADIC = Pmf([0.5, 0.25, 0.125, 0.125])


def pick_m(r, size: int) -> int:
    lo = math.floor(math.log2(size) + 2.0) + 1
    return r.randint(lo, size + 2)


class TestLambdaFromLaw:
    def test_uniform_four_hand_trace(self):
        # beta = 2 * sum sqrt(1/4) / (5 - 2 - 2) = 4, budgets ceil(4 * 2) = 8
        lb = lambda_from_law(Pmf([0.25] * 4), 1.0, 5)
        assert lb.budgets == (8, 8, 8, 8)

    def test_zero_mass_gets_infinite_budget(self):
        lb = lambda_from_law(Pmf([0.5, 0.0, 0.5]), 1.0, 6)
        assert lb.budgets[1] == math.inf

    def test_mu_within_construction_margin(self):
        for i in range(100):
            r = rng(23, i)
            p = random_pmf(r, r.randint(2, 8))
            m = pick_m(r, p.size)
            lb = lambda_from_law(p, r.choice([0.5, 1.0, 2.0]), m)
            assert float(lb.mu) <= (m - math.log2(p.size) - 2.0) / 2.0 + 1e-12

    def test_m_too_small(self):
        with pytest.raises(DescriptionCountTooSmallError, match="log2"):
            lambda_from_law(Pmf([0.25] * 4), 1.0, 4)


class TestBuildEncoder:
    def test_uniform_four_single_block(self):
        part = build_encoder(Pmf([0.25] * 4), 1.0, 5)
        assert part.num_blocks == 1
        assert moment(Pmf([0.25] * 4), part, 1.0) == pytest.approx(4.0)
        assert upper_bound(Pmf([0.25] * 4), 5, 1.0) == pytest.approx(17.0)

    def test_huge_m_gives_singletons(self):
        p = Pmf([0.25] * 4)
        part = build_encoder(p, 1.0, 10 ** 6)
        assert moment(p, part, 1.0) == pytest.approx(1.0)

    def test_precondition_boundary(self):
        for size in (2, 4, 7, 8):
            p = Pmf([1.0 / size] * size)
            m = math.ceil(math.log2(size)) + 3
            part = build_encoder(p, 1.0, m)
            assert part.num_blocks <= m

    def test_more_preimages_than_m_are_refused(self, monkeypatch):
        # law-derived budgets never give more than M blocks; both encoders check
        m = 6
        monkeypatch.setattr(coding, "build_partition",
                            lambda budget: Partition.from_labels(np.arange(m + 1)))
        with pytest.raises(ValueError, match="^7 preimages exceed M = 6$"):
            build_encoder(Pmf([1 / 7] * 7), 1.0, m)
        monkeypatch.setattr(coding, "greedy_blocks", lambda *args: [(m + 1, 1)])
        law = TypeLaw(Pmf([0.5, 0.5]), IidTypes(2, 3))
        with pytest.raises(ValueError, match="^7 preimages exceed M = 6$"):
            coding._type_encoder(law, law, 1.0, m)


class TestMoment:
    def test_all_to_one(self):
        p = Pmf([0.2, 0.3, 0.5])
        part = Partition([[0, 1, 2]])
        assert moment(p, part, 1.0) == pytest.approx(3.0)

    def test_singletons(self):
        p = Pmf([0.2, 0.3, 0.5])
        part = Partition([[0], [1], [2]])
        assert moment(p, part, 2.5) == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        part = Partition([[0], [1, 2, 3]])
        assert moment(DYADIC, part, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_alphabet_mismatch(self):
        part = Partition([[0, 1]])
        with pytest.raises(AlphabetMismatchError):
            moment(Pmf([0.5, 0.25, 0.25]), part, 1.0)

    @pytest.mark.parametrize("rho", [1e300, math.inf])
    def test_power_past_the_float_range(self, rho):
        # 1 * 2^rho is inf; the zero mass adds 0 * 2^rho = 0, not nan
        part = Partition([[0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert moment(Pmf([1.0, 0.0]), part, rho) == math.inf

    def test_zero_mass_in_an_overflowing_block(self):
        part = Partition([[0], [1, 2]])
        assert moment(Pmf([1.0, 0.0, 0.0]), part, 1e300) == 1.0


class TestBounds:
    def test_lower_uniform_eight(self):
        assert lower_bound(Pmf([1.0 / 8] * 8), 2, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_lower_vacuous_when_m_large(self):
        assert lower_bound(Pmf([0.25] * 4), 8, 1.0) <= 1.0

    def test_lower_dyadic(self):
        want = 2.0 ** (renyi_rho(DYADIC, 1.0) - 1.0)
        assert lower_bound(DYADIC, 2, 1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(1.8322, abs=1e-4)

    def test_finite_past_an_exponent_of_1023(self):
        # 2^1023.5, about 1.27e308, still lies in the float range
        p = Pmf([0.5, 0.5])
        want = 2.0 ** 1023 * math.sqrt(2.0)
        assert lower_bound(p, 1, 1023.5) == pytest.approx(want, rel=1e-12)
        assert upper_bound(p, 7, 1023.5) == pytest.approx(want, rel=1e-12)  # M~ = 1

    def test_upper_infinite_below_threshold(self):
        assert upper_bound(Pmf([0.25] * 4), 4, 1.0) == math.inf

    def test_constructed_moment_below_upper(self):
        for i in range(200):
            r = rng(31, i)
            p = random_pmf(r, r.randint(2, 8))
            rho = r.choice([0.5, 1.0, 2.0])
            m = pick_m(r, p.size)
            part = build_encoder(p, rho, m)
            assert moment(p, part, rho) < upper_bound(p, m, rho)

    def test_lower_needs_a_positive_m(self):
        with pytest.raises(ValueError, match="M must be a positive integer"):
            lower_bound(Pmf([0.5, 0.5]), 0, 1.0)


class TestBruteForce:
    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="M must be a positive integer"):
            brute_force_optimum(Pmf([0.5, 0.5]), 0, 1.0)

    def test_uniform_eight_two_blocks(self):
        val, part = brute_force_optimum(Pmf([1.0 / 8] * 8), 2, 1.0)
        assert val == pytest.approx(4.0, abs=1e-12)
        assert sorted(len(b) for b in part.blocks) == [4, 4]

    def test_m_at_least_alphabet(self):
        val, _ = brute_force_optimum(Pmf([0.3, 0.3, 0.4]), 3, 2.0)
        assert val == pytest.approx(1.0)

    def test_dyadic_two_blocks(self):
        val, _ = brute_force_optimum(DYADIC, 2, 1.0)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_m(self):
        p = random_pmf(rng(37, 0), 6)
        values = [brute_force_optimum(p, m, 1.0)[0] for m in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)

    def test_zero_mass_parked_in_overflow(self):
        p = Pmf([0.5, 0.5, 0.0])
        val, part = brute_force_optimum(p, 3, 1.0)
        assert val == pytest.approx(1.0)
        assert frozenset([2]) in set(map(frozenset, part.blocks))

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetTooLargeError):
            brute_force_optimum(Pmf([1.0 / 11] * 11), 2, 1.0)


class TestSandwich:
    def test_random_instances(self):
        for i in range(60):
            r = rng(41, i)
            p = random_pmf(r, r.randint(2, 8))
            rho = r.choice([0.5, 1.0, 2.0])
            m = pick_m(r, p.size)
            low = lower_bound(p, m, rho)
            opt, _ = brute_force_optimum(p, m, rho)
            part = build_encoder(p, rho, m)
            mom = moment(p, part, rho)
            up = upper_bound(p, m, rho)
            assert low <= opt + 1e-9
            assert opt <= mom + 1e-9
            assert mom < up


def test_fmt_keeps_the_sign_of_an_infinity():
    assert [coding.fmt(v) for v in (-math.inf, math.inf, -0.0, math.nan)] == [
        "-inf", "inf", "0", "nan"]


def test_ceiling_inequality():
    # ceil(x)^rho < 1 + 2^rho * x^rho for all x >= 0
    for i in range(10 ** 4):
        r = rng(43, i)
        x = r.uniform(0.0, 50.0) if r.random() < 0.9 else 0.0
        for rho in (0.5, 1.0, 2.0, 5.0):
            # written as ceil(x)^rho - 1 < 2^rho * x^rho so the x -> 0+
            # corner is not lost to float rounding of 1 + tiny
            if x == 0.0:
                assert math.ceil(x) ** rho < 1.0
            else:
                assert math.ceil(x) ** rho - 1.0 < 2.0 ** rho * x ** rho


class TestFloorPow2:
    def test_integer_exponent(self):
        assert floor_pow2(Fraction(10)) == 1024

    def test_fractional(self):
        assert floor_pow2(Fraction(72, 5)) == 21618   # 2^14.4 = 21619.19...
        assert floor_pow2(Fraction(32, 10)) == 9      # 2^3.2 = 9.189...

    def test_small(self):
        assert floor_pow2(Fraction(1, 2)) == 1

    def test_exact_certificate(self):
        # m = floor(2^(a/q)) iff m^q <= 2^a < (m+1)^q, in exact integers
        r = rng(97, 0)
        for _ in range(1200):
            q = r.randint(2, 1000)
            e = Fraction(r.randint(0, (60 if r.random() < 0.9 else 1022) * q), q)
            m = floor_pow2(e)
            assert m ** e.denominator <= 2 ** e.numerator < (m + 1) ** e.denominator

    @pytest.mark.parametrize("above", [False, True])
    def test_retries_when_the_power_is_near_an_integer(self, monkeypatch, above):
        # 40-decimal exponents next to log2(3) put 2^e within 1e-39 of 3,
        # far inside the error bound of the first pass (80 guard bits): only
        # a retry at more guard bits decides between 2 and 3
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            digits = int(decimal.Decimal(3).ln() / decimal.Decimal(2).ln() * 10**40)
        passes = []
        opened = decimal.localcontext
        monkeypatch.setattr(decimal, "localcontext", lambda: passes.append(1) or opened())
        assert floor_pow2(Fraction(digits + above, 10**40)) == 2 + above
        assert len(passes) > 1

    @pytest.mark.parametrize("exponent,expected", [
        (Fraction(1234567, 10**6), 2),
        (Fraction(14, 10**6), 1),
        (Fraction(1, 10**12), 1),
        (Fraction(9876543210123, 10**12), 940),
        (Fraction(500000001, 10**6), int(
            "32733928768383989600027108351863717181895179103535726984368151376069"
            "56374134258175127193331167802152824229387334131850865701695055180290"
            "328525337941869")),
        (Fraction(1022999999, 10**6), int(
            "89884594439840990969404991663114036215951100168347742231426153635727"
            "67175925701847478317243433675725764910689997221987152440719429917749"
            "90253902765295778528533118036134781095067679092442065135213287363460"
            "58782417373516909749736569959751316996415129216627937543650623425603"
            "799989021868294111485435253298097744")),
        (Fraction(1022999999999999, 10**12), int(
            "89884656743053492090068191942210884213887606485885982216542972351359"
            "78964033405776522755791356511095383253173126651542433803330616262733"
            "15097295335594739699560277276311961894910036782376169751681402515933"
            "04363892022571409501634234092071760882345193052878323795737284007160"
            "379897822521734284880788083721704935")),
    ])
    def test_six_and_twelve_decimal_rates(self, exponent, expected):
        # pinned from the earlier arbitrary-precision (mpmath) implementation
        assert floor_pow2(exponent) == expected


class TestBlockExperiment:
    def test_float_rate_is_rounded_to_six_places(self):
        assert coding.as_rate(1 / 3) == Fraction("0.333333")
        p = Pmf([0.9, 0.1])
        assert block_experiment(p, 8, 0.9000001, 1.0) == block_experiment(p, 8, "0.9", 1.0)

    def test_block_length_must_be_positive(self):
        with pytest.raises(ValueError, match="block length must be positive"):
            block_experiment(Pmf([0.9, 0.1]), 0, "0.9", 1.0)

    def test_rate_above_entropy_trend(self):
        p = Pmf([0.9, 0.1])
        moments = []
        for n in (8, 12, 16):
            rep = block_experiment(p, n, "0.9", 1.0)
            assert rep.lower <= rep.moment < rep.upper
            assert rep.delta > 0
            moments.append(rep.moment)
        assert moments[0] > moments[1] > moments[2]

    def test_rate_below_entropy_lower_bound_grows(self):
        p = Pmf([0.9, 0.1])
        gap = renyi_rho(p, 1.0) - 0.4
        rep = block_experiment(p, 16, "0.4", 1.0)
        assert rep.lower >= 2.0 ** (16 * gap - 1)

    def test_uniform_source_above_rate(self):
        rep = block_experiment(Pmf([0.5, 0.5]), 6, "1.5", 1.0)
        assert 1.0 <= rep.moment <= rep.upper

    def test_rate_too_small(self):
        with pytest.raises(RateTooSmallError):
            block_experiment(Pmf([0.5, 0.5]), 8, "0.3", 1.0)

    def test_delta_shrinks(self):
        p = Pmf([0.9, 0.1])
        deltas = [block_experiment(p, n, "0.9", 1.0).delta
                  for n in (8, 12, 16)]
        assert deltas[0] > deltas[1] > deltas[2] > 0
        assert deltas[-1] < 0.5

    def test_csv_row_format(self):
        rep = block_experiment(Pmf([0.9, 0.1]), 8, "0.9", 1.0)
        row = rep.csv_row()
        assert row.startswith("8,0.9,1,")
        assert len(row.split(",")) == 10

    @pytest.mark.parametrize("masses,rate,rho", [
        ([0.9, 0.1], "0.9", 1.0),
        ([0.5, 0.3, 0.2], "1.4", 0.25),
        ([0.5, 0.3, 0.2, 0.0], "1.9", 3.0),
    ])
    def test_bounds_are_the_public_bounds(self, masses, rate, rho):
        # one Renyi entropy serves both bounds of a row, to the same bits
        for n in (3, 6):
            rep = block_experiment(Pmf(masses), n, rate, rho)
            p = iid_joint(Pmf(masses), n)
            assert rep.lower == lower_bound(p, rep.description_count, rho)
            assert rep.upper == upper_bound(p, rep.description_count, rho)

    @pytest.mark.parametrize("rate", ["256", "1e3"])
    def test_description_count_beyond_float_range(self, rate):
        with pytest.raises(OverflowError, match="exceeds the float range"):
            block_experiment(Pmf([0.5, 0.5]), 4, rate, 1.0)

    def test_markov_row_with_a_design(self):
        # the encoder is built for n i.i.d. letters of the design and scored
        # under the Markov law; the upper bound carries the penalty
        src = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        q = Pmf([0.7, 0.3])
        rep = block_experiment(src, 8, "0.9", 1.0, design=q)
        p8, q8 = markov_joint(src, 8), iid_joint(q, 8)
        m = rep.description_count
        part = build_encoder(q8, 1.0, m)
        assert (rep.used_count, rep.moment) == (part.num_blocks, moment(p8, part, 1.0))
        assert rep.upper == upper_bound(p8, m, 1.0, design=q8)
        assert rep.upper > block_experiment(src, 8, "0.9", 1.0).upper
        assert rep.csv_row() == ("8,0.9,1,147,64,3.5524247,0.365218307483,"
                                 "19.4814631342,34.25,0.26274598963")

    @pytest.mark.parametrize("n,bound", [(523, "-52.6"), (1000, "788.9")])
    def test_refuses_masses_lost_below_the_float_range(self, n, bound):
        # 0.1^j 0.9^(n-j) underflows to 0 for j near n; those tuples sit,
        # weightless, in the absorbing block, while (2^n)^rho times their
        # true mass could change the moment by 2^-53 or more
        with pytest.raises(OverflowError, match=f"at n = {n} could add 2\\^{bound}"):
            block_experiment(Pmf([0.9, 0.1]), n, "0.9", 1.0, cap=10**10000)

    def test_masses_lost_below_2_to_the_minus_53_are_kept(self):
        # tuples underflow from n = 324 on, too few to show in the moment
        rep = block_experiment(Pmf([0.9, 0.1]), 522, "0.9", 1.0, cap=10**10000)
        assert rep.lower <= rep.moment <= rep.upper
        assert coding.fmt(rep.moment) == "1"

    def test_m_is_refused_before_any_law_is_built(self, monkeypatch):
        # M needs only n and |X|: a rate too small for n = 22 is refused
        # without building the 2^22-entry law or its types
        def refuse(*args):
            raise AssertionError("an n-tuple law was built")
        monkeypatch.setattr("taskcodes.coding.IidTypes", refuse)
        monkeypatch.setattr("taskcodes.coding.markov_joint", refuse)
        with pytest.raises(RateTooSmallError):
            block_experiment(Pmf([0.9, 0.1]), 22, "0.1", 1.0)


@pytest.mark.parametrize("rho", [math.inf, 1e-300])
def test_rho_without_a_renyi_order(rho):
    # 1/(1+rho) is 0 or rounds to 1: every user of the order names rho
    p = Pmf([0.5, 0.3, 0.2])
    calls = [
        lambda: renyi_rho(p, rho),
        lambda: lambda_from_law(p, rho, 8),
        lambda: block_experiment(p, 2, "1.4", rho),
        lambda: block_experiment(p, 2, "1.4", rho, design=p),
        lambda: upper_bound(p, 8, rho, design=p),
    ]
    for call in calls:
        with pytest.raises(InvalidOrderError, match="rho must be finite"):
            call()


@pytest.mark.parametrize("source,design", [
    (Pmf([0.5, 0.3, 0.2]), None),
    (Pmf([0.5, 0.3, 0.2]), Pmf([0.6, 0.3, 0.1])),
    (MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]])), None),
])
def test_a_row_passes_every_named_stage_once(monkeypatch, source, design):
    # every row, on types or enumerated, goes through the public stages
    # (the benchmark's tracer times them by these names)
    calls = {}
    for name in ("lambda_from_law", "lower_bound", "upper_bound"):
        def counted(*args, _name=name, _fn=getattr(coding, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(coding, name, counted)
    rep = block_experiment(source, 9, "1.4", 1.0, design)
    assert calls == {"lambda_from_law": 1, "lower_bound": 1, "upper_bound": 1}
    assert rep.lower <= rep.moment <= rep.upper
