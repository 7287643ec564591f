"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from taskcodes import (
    MarkovSource,
    Pmf,
    block_experiment,
    brute_force_optimum,
    build_encoder,
    build_partition,
    divergence_limits,
    kraft_sum,
    lower_bound,
    markov_joint,
    markov_renyi_sums,
    moment,
    product_additivity_check,
    renyi_entropy,
    renyi_rho,
    subset_count_bound,
    sundaresan_divergence,
    upper_bound,
    verify_budget,
    LambdaBudget,
)
from conftest import random_budget, random_partition, random_pmf, random_pmf_gapped, rng

SEED = 0


def report(number: int, label: str, passed: bool, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {label} ({elapsed:.2f}s)")
    assert passed, f"criterion {number}: {label}"


def timed(fn):
    start = time.perf_counter()
    ok = fn()
    return ok, time.perf_counter() - start


def test_criterion_1_kraft_identity():
    def check():
        for i in range(1000):
            r = rng(SEED, i)
            part = random_partition(r, r.randint(2, 64))
            if kraft_sum(part) != part.num_blocks:
                return False
        return True

    ok, elapsed = timed(check)
    report(1, "Kraft-analog identity on 1000 random partitions", ok and elapsed < 1.0,
           elapsed)


def test_criterion_2_counterexample():
    def check():
        budget = LambdaBudget([1, 2, 4, 4])
        if budget.mu != Fraction(2):
            return False
        if build_partition(budget).num_blocks != 3:
            return False
        # exhaustively rule out any budget-respecting 2-block partition
        for labels in itertools.product(range(2), repeat=4):
            blocks: dict[int, list[int]] = {}
            for x, b in enumerate(labels):
                blocks.setdefault(b, []).append(x)
            ok_sizes = all(
                len(blk) <= budget.budgets[x] for blk in blocks.values() for x in blk
            )
            if ok_sizes and len(blocks) <= 2:
                return False
        return True

    ok, elapsed = timed(check)
    report(2, "budgets (1,2,4,4): mu = 2 but 3 blocks are necessary",
           ok and elapsed < 1.0, elapsed)


def test_criterion_3_construction_guarantee():
    def check():
        for i in range(1000):
            r = rng(SEED + 1, i)
            budget = random_budget(r, r.randint(1, 64))
            part = build_partition(budget)
            if verify_budget(part, budget) is not None:
                return False
            if part.num_blocks > subset_count_bound(budget.mu, budget.size):
                return False
        return True

    ok, elapsed = timed(check)
    report(3, "greedy construction respects budgets and the subset-count bound",
           ok and elapsed < 5.0, elapsed)


def test_criterion_4_sandwich():
    def check():
        for i in range(200):
            r = rng(SEED + 2, i)
            p = random_pmf(r, r.randint(2, 8))
            rho = r.choice([0.5, 1.0, 2.0])
            lo_m = math.floor(math.log2(p.size) + 2.0) + 1
            m = r.randint(lo_m, p.size + 2)
            low = lower_bound(p, m, rho)
            opt, _ = brute_force_optimum(p, m, rho)
            part = build_encoder(p, rho, m)
            mom = moment(p, part, rho)
            up = upper_bound(p, m, rho)
            if not (low <= opt + 1e-9 and opt <= mom + 1e-9 and mom < up):
                return False
        return True

    ok, elapsed = timed(check)
    report(4, "lower <= brute-force optimum <= constructed moment < upper "
              "on 200 instances", ok and elapsed < 30.0, elapsed)


def test_criterion_5_hoelder_tightness():
    def check():
        p = Pmf([1.0 / 8] * 8)
        opt, _ = brute_force_optimum(p, 2, 1.0)
        low = lower_bound(p, 2, 1.0)
        return abs(opt - 4.0) <= 1e-12 and abs(low - 4.0) <= 1e-12

    ok, elapsed = timed(check)
    report(5, "uniform-8 with M = 2 attains the lower bound exactly", ok, elapsed)


def test_criterion_6_phase_transition():
    def check():
        p = Pmf([0.9, 0.1])
        rate_oracle = 2.0 * math.log2(math.sqrt(0.9) + math.sqrt(0.1))
        if abs(rate_oracle - renyi_rho(p, 1.0)) > 1e-9:
            return False
        # R = 0.9 above the entropy rate: moments shrink toward 1
        moments = [block_experiment(p, n, "0.9", 1.0).moment
                   for n in (8, 12, 16)]
        if not (moments[0] > moments[1] > moments[2]) or moments[2] >= 1.5:
            return False
        # R = 0.4 below: the converse bound blows up like 2^(n*(H - R))
        low = block_experiment(p, 16, "0.4", 1.0).lower
        target = 2.0 ** (16 * (rate_oracle - 0.4))
        return target / 2.0 <= low <= target * 2.0

    ok, elapsed = timed(check)
    report(6, "Bernoulli(0.1) sweep: two-sided phase transition around H_1/2",
           ok and elapsed < 60.0, elapsed)


def test_criterion_7_divergence_properties():
    def check():
        # pinned value
        got = sundaresan_divergence(Pmf([0.5, 0.5]), Pmf([0.9, 0.1]), 0.5)
        if abs(got - math.log2(4.0 / 3.0)) > 1e-9:
            return False
        for i in range(1000):
            r = rng(SEED + 3, i)
            size = r.randint(2, 6)
            p = random_pmf(r, size)
            q = random_pmf(r, size)
            for alpha in (0.3, 0.5, 2.0, 5.0):
                d = sundaresan_divergence(p, q, alpha)
                if not d > 0.0:  # random pairs never coincide
                    return False
                if sundaresan_divergence(p, p, alpha) != 0.0 and \
                        abs(sundaresan_divergence(p, p, alpha)) > 1e-12:
                    return False
        # infinity characterization, both directions
        partial_p, partial_q = Pmf([0.5, 0.5]), Pmf([1.0, 0.0])
        if sundaresan_divergence(partial_p, partial_q, 0.5) != math.inf:
            return False
        if not math.isfinite(sundaresan_divergence(partial_p, partial_q, 2.0)):
            return False
        disjoint_p, disjoint_q = Pmf([1.0, 0.0]), Pmf([0.0, 1.0])
        if sundaresan_divergence(disjoint_p, disjoint_q, 2.0) != math.inf:
            return False
        # limits vs probes
        for i in range(200):
            r = rng(SEED + 4, i)
            size = r.randint(2, 6)
            p = random_pmf(r, size)
            q = random_pmf_gapped(r, size)
            lim = divergence_limits(p, q)
            if abs(lim.probes[1e-3] - lim.order0) > 1e-2:
                return False
            if abs(lim.probes[1e3] - lim.order_inf) > 1e-2:
                return False
            if abs(lim.probes[1.0 - 1e-4] - lim.kl) > 1e-2:
                return False
            if abs(lim.probes[1.0 + 1e-4] - lim.kl) > 1e-2:
                return False
        return True

    ok, elapsed = timed(check)
    report(7, "Sundaresan divergence: positivity, infinities, limits, pinned value",
           ok and elapsed < 10.0, elapsed)


def test_criterion_8_additivity():
    def check():
        for i in range(100):
            r = rng(SEED + 5, i)
            size = r.randint(2, 4)
            p = random_pmf(r, size)
            q = random_pmf(r, size)
            alpha = r.choice([0.3, 0.5, 2.0, 5.0])
            n = r.randint(2, 6)
            if not product_additivity_check(p, q, alpha, n):
                return False
        return True

    ok, elapsed = timed(check)
    report(8, "product laws: divergence is exactly additive (n <= 6, 100 pairs)",
           ok and elapsed < 10.0, elapsed)


def test_criterion_9_mismatch_penalty():
    def check():
        p, q = Pmf([0.5, 0.5]), Pmf([0.9, 0.1])
        # moment < mismatch bound at every feasible n <= 16
        for n in range(2, 17):
            rep = block_experiment(p, n, "1.6", 1.0, design=q)
            if not rep.moment < rep.upper:
                return False
        # R = 1.6 above H + Delta = 1.41504: mismatched moments shrink
        mis = [block_experiment(p, n, "1.6", 1.0, design=q).moment
               for n in (8, 12, 16)]
        if not (mis[0] > mis[1] > mis[2]) or mis[2] >= 2.0:
            return False
        # H = 1 < R = 1.2 < H + Delta: matched converges, mismatched bound stuck
        for n in (8, 12, 16):
            matched = block_experiment(p, n, "1.2", 1.0)
            mis_rep = block_experiment(p, n, "1.2", 1.0, design=q)
            if matched.moment >= 1.5 or mis_rep.upper <= 2.0:
                return False
        return True

    ok, elapsed = timed(check)
    report(9, "mismatch penalty: bound holds and splits the rate window",
           ok and elapsed < 60.0, elapsed)


def test_criterion_10_markov_machinery():
    def check():
        chains = [
            MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]])),
            MarkovSource(Pmf([0.2, 0.3, 0.5]),
                         np.array([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1],
                                   [0.3, 0.3, 0.4]])),
            MarkovSource(Pmf([0.25] * 4),
                         np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1],
                                   [0.1, 0.1, 0.7, 0.1], [0.1, 0.1, 0.1, 0.7]])),
        ]
        for src, max_n in ((chains[0], 12), (chains[1], 7), (chains[2], 6)):
            for n in range(1, max_n + 1):
                for alpha in (0.5, 2.0):
                    dp = markov_renyi_sums(src, alpha, [n])[0]
                    ref = renyi_entropy(markov_joint(src, n), alpha)
                    if abs(dp - ref) > 1e-9:
                        return False
        # two-sided sweep around the n = 24 normalized DP entropy
        sticky = chains[0]
        rate_mid = markov_renyi_sums(sticky, 0.5, [24])[0] / 24
        rate_hi = round(rate_mid + 0.15, 6)
        rate_lo = round(rate_mid - 0.15, 6)
        hi = [block_experiment(sticky, n, str(rate_hi), 1.0).moment
              for n in (8, 12, 16)]
        if not (hi[0] > hi[1] > hi[2]):
            return False
        lo = [block_experiment(sticky, n, str(rate_lo), 1.0).lower
              for n in (8, 12, 16)]
        return lo[0] < lo[1] < lo[2] and lo[2] > 2.0

    ok, elapsed = timed(check)
    report(10, "Markov DP matches enumeration; sweep shows the two-sided trend",
           ok and elapsed < 60.0, elapsed)
